"""CLI tests for the `repro dse` verbs (explore / pareto / report)."""

import hashlib
import json

import pytest

from repro.cli import (
    EXIT_FAILED,
    EXIT_OK,
    cmd_dse_explore,
    cmd_dse_pareto,
    cmd_dse_report,
    main,
)

SMOKE_ARGS = [
    "--digits", "1,4",
    "--vdd", "0.8,1.0",
    "--freq", "847.5e3",
    "--countermeasures", "full,none",
    "--curve", "TOY-B17",
    "--max-latency-ms", "5",
]

OPTIMUM = "d4-full-1V-847.5kHz"

#: SHA-256 of the sorted JSON map from cell digest to white-box findings
#: of the four-cell TOY-B17 exploration below.
WHITEBOX_FINDINGS_SHA256 = (
    "83f1de0af935007a317e9b549c47d5b322486d627bc89ceeb1eea5d185847a7e")


@pytest.fixture(scope="module")
def explored(tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("dse-cli"))
    code = main(["dse", "explore", "--dir", directory,
                 "--workers", "1", "--quiet"] + SMOKE_ARGS)
    assert code == EXIT_OK
    return directory


class TestExplore:
    def test_reports_the_front_and_the_files(self, explored, capsys):
        code = main(["dse", "explore", "--dir", explored,
                     "--workers", "1"] + SMOKE_ARGS)
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert OPTIMUM in out
        assert "pareto front:" in out
        # The fixture already measured every cell: pure cache.
        assert "0 simulated, 4 cached" in out

    def test_whitebox_exploration_on_a_small_field(self, tmp_path,
                                                   capsys):
        directory = tmp_path / "whitebox"
        code = main(["dse", "explore", "--dir", str(directory),
                     "--digits", "1,4", "--vdd", "1.0", "--freq", "847.5e3",
                     "--countermeasures", "full,none", "--curve", "TOY-B17",
                     "--whitebox", "--whitebox-traces", "12",
                     "--workers", "1"])
        assert code == EXIT_OK, capsys.readouterr().err
        cells = list((directory / "measurements").glob("*.json"))
        assert len(cells) == 4
        findings = {}
        for cell in cells:
            payload = json.loads(cell.read_text())
            findings[payload["digest"]] = payload["whitebox"]
            attacks = {f["attack"] for f in payload["whitebox"]}
            assert attacks >= {"spa", "dpa"}
        # Every finding's verdict and detail text, pinned: the battery's
        # acquisition and attacks may be rewritten, never its findings.
        blob = json.dumps(findings, sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == WHITEBOX_FINDINGS_SHA256

    def test_rejects_an_invalid_space(self, capsys):
        code = main(["dse", "explore", "--dir", "/tmp/unused",
                     "--digits", "4", "--countermeasures", "tinfoil"])
        assert code == EXIT_FAILED
        assert "unknown countermeasure" in capsys.readouterr().err


class TestPareto:
    def test_answers_from_the_cache(self, explored, capsys):
        code = main(["dse", "pareto", "--dir", explored])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert OPTIMUM in out
        assert "PARETO" in out

    def test_constraint_overrides_rerank(self, explored):
        report, code = cmd_dse_pareto(explored, max_latency_ms=0,
                                      min_security=-1)
        assert code == EXIT_OK
        # With both constraints lifted, more than one point survives.
        assert report.count("\n") > 3

    def test_json_front(self, explored):
        report, code = cmd_dse_pareto(explored, as_json=True)
        assert code == EXIT_OK
        payload = json.loads(report)
        assert [row["id"] for row in payload["front"]] == [OPTIMUM]

    def test_unexplored_directory_fails(self, tmp_path, capsys):
        code = main(["dse", "pareto", "--dir", str(tmp_path)])
        assert code == EXIT_FAILED
        assert "explore" in capsys.readouterr().err


class TestReport:
    def test_full_grid_with_flags(self, explored):
        report, code = cmd_dse_report(explored)
        assert code == EXIT_OK
        assert "8 operating points" in report
        assert "infeasible:latency" in report
        assert "infeasible:security" in report

    def test_json_grid(self, explored):
        report, code = cmd_dse_report(explored, as_json=True)
        assert code == EXIT_OK
        assert len(json.loads(report)["rows"]) == 8

    def test_unexplored_directory_fails(self, tmp_path):
        from repro.dse import DseError

        with pytest.raises(DseError):
            cmd_dse_report(str(tmp_path))


@pytest.mark.parametrize("verb, name, content", [
    ("report", "points.json", "[]"),
    ("report", "points.json", '{"rows": 5, "spec_digest": "x"}'),
    ("pareto", "space.json", '{"bogus": 1}'),
])
def test_wrong_shape_file_fails_with_one_line(tmp_path, capsys, verb, name,
                                              content):
    (tmp_path / name).write_text(content, encoding="utf-8")
    assert main(["dse", verb, "--dir", str(tmp_path)]) == EXIT_FAILED
    err = capsys.readouterr().err
    assert err.startswith("dse error:")
    assert "explore" in err


def test_malformed_quarantine_fails_explore_with_one_line(tmp_path, capsys):
    (tmp_path / "quarantine.json").write_text("[1]", encoding="utf-8")
    code = main(["dse", "explore", "--dir", str(tmp_path), "--curve",
                 "TOY-B17", "--digits", "4", "--vdd", "1.0", "--freq",
                 "847.5e3", "--countermeasures", "full", "--workers", "1"])
    assert code == EXIT_FAILED
    err = capsys.readouterr().err
    assert err.startswith("dse error:")
    assert err.count("\n") == 1
    assert "quarantine.json" in err


class TestObservability:
    def test_obs_run_satisfies_the_contract(self, tmp_path, capsys):
        directory = str(tmp_path / "obs-run")
        code = main(["dse", "explore", "--dir", directory, "--workers", "1",
                     "--quiet", "--obs", "--digits", "4",
                     "--vdd", "1.0", "--freq", "847.5e3",
                     "--countermeasures", "full", "--curve", "TOY-B17"])
        assert code == EXIT_OK
        capsys.readouterr()
        code = main(["obs", "report", "--dir", directory,
                     "--require-spans", "dse.explore,point",
                     "--require-metrics",
                     "repro_dse_measurements_total,"
                     "repro_dse_cache_hits_total,repro_dse_front_size"])
        assert code == EXIT_OK


def test_cmd_dse_explore_callable_directly(tmp_path):
    from repro.dse import DesignSpaceSpec

    spec = DesignSpaceSpec(digit_sizes=(4,), vdd_volts=(1.0,),
                           frequencies_hz=(847.5e3,),
                           countermeasures=("full",), curve="TOY-B17",
                           max_latency_s=None, min_security=None)
    report, code = cmd_dse_explore(str(tmp_path / "direct"), spec,
                                   workers=1, quiet=True)
    assert code == EXIT_OK
    assert "1 operating points" in report
