"""Design-space exploration of the toy space.

Its unique optimum has the paper's reasons: d=1 misses the deadline,
0.8 V opens fault attacks and "none" breaks the security floor.  In
``tests/cli/test_dse.py``: the cached re-run
(``TestExplore::test_reports_the_front_and_the_files``), the report's
violation flags (``TestReport::test_full_grid_with_flags``), the
white-box cells (``TestExplore::test_whitebox_exploration_on_a_small_field``)
and the invalid space (``TestExplore::test_rejects_an_invalid_space``).
"""

import pytest

SPACE = ("--digits 1,4 --vdd 0.8,1.0 --freq 847.5e3 --countermeasures "
         "full,none --curve TOY-B17 --max-latency-ms 5")


@pytest.fixture(scope="module")
def explored(repro, tmp_path_factory):
    directory = tmp_path_factory.mktemp("dse")
    proc = repro(f"dse explore --dir {directory / 'w1'} --workers 1 {SPACE}")
    return directory, proc


def test_explore_with_one_worker(explored):
    assert "d4-full-1V-847.5kHz" in explored[1].stdout


def test_four_workers_produce_byte_identical_results(repro, explored):
    directory = explored[0]
    repro(f"dse explore --dir {directory / 'w4'} --workers 4 --quiet {SPACE}")
    for name in ("pareto.json", "points.json"):
        assert (directory / "w4" / name).read_bytes() == \
            (directory / "w1" / name).read_bytes()


def test_pareto_reranks_from_the_cache(repro, explored):
    out = repro(f"dse pareto --dir {explored[0] / 'w1'}").stdout
    assert "Pareto-optimal: 1" in out


def test_lifting_the_constraints_widens_the_front(repro, explored):
    out = repro(f"dse pareto --dir {explored[0] / 'w1'} --max-latency-ms 0 "
                "--min-security -1").stdout
    assert "feasible: 8/8" in out


def test_traced_exploration_satisfies_the_span_metric_contract(repro,
                                                               tmp_path):
    repro(f"dse explore --dir {tmp_path} --workers 1 --quiet --obs {SPACE}")
    repro(f"obs report --dir {tmp_path} --require-spans dse.explore,point "
          "--require-metrics repro_dse_measurements_total,"
          "repro_dse_cache_hits_total,repro_dse_grid_points,"
          "repro_dse_front_size")
