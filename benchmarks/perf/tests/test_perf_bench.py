"""Tests of the performance benchmark itself (not of the program).

Run with ``PYTHONPATH=src python -m pytest benchmarks/perf/tests``.
"""

import json
import os
import shutil
import statistics
import subprocess
import sys
import types

import pytest

import run
import speed
import tracer as tracing
import workloads

RUN_PY = os.path.join(run.HERE, "run.py")


def load_benchmark():
    with open(run.BENCHMARK_JSON, encoding="utf-8") as f:
        return json.load(f)


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------

@pytest.mark.parametrize("n, expected", [
    (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0),
    (100, 90.0), (199, 90.0), (200, 95.0), (1000, 99.0), (9999, 99.0),
    (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert run.tail_percentile(n) == expected


def test_percentile_matches_inclusive_quantiles():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    assert run.percentile(values, 25) == pytest.approx(q1)
    assert run.percentile(values, 50) == pytest.approx(q2)
    assert run.percentile(values, 75) == pytest.approx(q3)
    assert run.percentile([3.0], 75) == 3.0


@pytest.mark.parametrize("parent, change, better, expected", [
    ([100.0 + i % 3 for i in range(10)], [80.0 + i % 3 for i in range(10)],
     "lower", "improved"),
    ([100.0 + i % 3 for i in range(10)], [103.0 + i % 3 for i in range(10)],
     "lower", "no worse"),
    ([100.0 + i % 3 for i in range(10)], [120.0 + i % 3 for i in range(10)],
     "lower", "regressed"),
    ([100.0 + i % 3 for i in range(10)], [80.0 + i % 3 for i in range(10)],
     "higher", "regressed"),
    ([60.0, 140.0] * 5, [100.0] * 10, "lower", "unresolved"),
    ([100.0] * 9, [80.0] * 9, "lower", "unresolved"),
])
def test_compare_verdicts(parent, change, better, expected):
    _wins, verdict = run.verdict(parent, change, 0.1, better)
    assert verdict == expected


def test_speed_gauge_scales_by_nearby_kernel_samples():
    gauge = speed.SpeedGauge(nearest=3)
    gauge.samples = [(0.0, speed.NOMINAL_S), (10.0, speed.NOMINAL_S),
                     (20.0, 2 * speed.NOMINAL_S), (30.0, 2 * speed.NOMINAL_S),
                     (40.0, 2 * speed.NOMINAL_S)]
    assert gauge.scale(0.0, 2.0) == 1.0
    assert gauge.scale(29.0, 31.0) == 0.5
    assert speed.kernel_seconds() > 0


# ----------------------------------------------------------------------
# tracer
# ----------------------------------------------------------------------

@pytest.fixture
def fake_module():
    module = types.ModuleType("repro.perfbench_fake")

    def leaf(x):
        return x + 1

    def middle(x):
        return module.leaf(module.leaf(x))

    def outer(x):
        return 2 * module.middle(x)

    module.leaf, module.middle, module.outer = leaf, middle, outer
    sys.modules[module.__name__] = module
    yield module
    del sys.modules[module.__name__]


def test_self_time_of_nested_wrappers(fake_module):
    sites = (
        ("fake.outer", fake_module.__name__, None, "outer", tracing.SPAN),
        ("fake.middle", fake_module.__name__, None, "middle", tracing.HOT),
        ("fake.leaf", fake_module.__name__, None, "leaf", tracing.HOT),
    )
    original_outer = fake_module.outer
    with tracing.Tracer(sites) as tracer:
        with tracer.span("root") as root:
            assert fake_module.outer(1) == 6
            assert fake_module.outer(2) == 8
    assert fake_module.outer is original_outer
    outer, middle, leaf = (tracer.totals[k] for k in (
        "fake.outer", "fake.middle", "fake.leaf"))
    assert [outer[0], middle[0], leaf[0]] == [2, 2, 4]
    assert leaf[2] == pytest.approx(leaf[1])            # no children
    assert middle[2] == pytest.approx(middle[1] - leaf[1])
    assert outer[2] == pytest.approx(outer[1] - middle[1])
    assert root.self_s == pytest.approx(root.end - root.start - outer[1])
    # Outer calls are spans under the root; hot calls aggregate into them.
    assert [s.name for s in tracer.spans] == ["root", "fake.outer",
                                              "fake.outer"]
    assert {s.parent for s in tracer.spans[1:]} == {root.id}
    assert tracer.spans[1].agg["fake.leaf"][0] == 2
    assert tracer.spans[1].agg["fake.middle"][0] == 1
    assert tracer.self_time_sum() == pytest.approx(root.end - root.start)


def test_clmul_binding_sites_patched_and_restored():
    import repro.gf2m.digit_serial  # noqa: F401
    from repro.gf2m import polynomial
    from repro.gf2m.field import BinaryField

    original = polynomial.clmul
    reduce = BinaryField.__dict__["reduce"]
    sites = tracing.binding_sites(original)
    modules = {module.__name__ for module, _name in sites}
    assert {"repro.gf2m", "repro.gf2m.polynomial", "repro.gf2m.field",
            "repro.gf2m.digit_serial"} <= modules
    with tracing.Tracer():
        for module, name in sites:
            assert getattr(module, name) is not original
        assert BinaryField.__dict__["reduce"] is not reduce
    for module, name in sites:
        assert getattr(module, name) is original
    assert BinaryField.__dict__["reduce"] is reduce
    for module in tracing._repro_modules():
        for value in vars(module).values():
            assert getattr(value, "__name__", "") not in (
                "hot_wrapper", "span_wrapper", "generator_wrapper")


# ----------------------------------------------------------------------
# workloads at tiny sizes
# ----------------------------------------------------------------------

class TinyDpa(workloads.DpaCampaign):
    n_traces, shard_size, n_bits, noise_sigma = 48, 24, 1, 12.0


class TinyToySoak(workloads.ToySoak):
    sessions, sweep = 3, (0.0, 0.2)


class TinyK163Soak(workloads.K163Soak):
    sessions, sweep = 1, (0.2,)


@pytest.mark.parametrize("cls", [workloads.PointMult, TinyDpa, TinyToySoak,
                                 TinyK163Soak])
def test_tiny_workload_passes_checks_traced_and_untraced(cls, tmp_path):
    workload = cls(2013, str(tmp_path / "work"))
    try:
        with workload.session_timer():
            records, _ = run.drive(workload, steps=1)
        assert len(records[0][2]) == workload.ops_per_step
        plain = run.outputs_of(records)
        tracer = tracing.Tracer()
        with tracer:
            with tracer.span("root"):
                records, _ = run.drive(workload, steps=1, tracer=tracer)
        assert run.verify(workload, plain, [])[0] == 0
        failed, digests = run.verify(workload, run.outputs_of(records), [])
        assert failed == 0
        assert digests == run.verify(workload, plain, [])[1]
    finally:
        workload.close()
    assert not (tmp_path / "work").exists()


def test_first_pinned_steps_match_expected(tmp_path):
    for cls in (workloads.PointMult, workloads.ToySoak):
        workload = cls(2013, str(tmp_path))
        records, _ = run.drive(workload, steps=1)
        expected = run.expected_digests(cls.name, 2013)
        assert run.verify(workload, run.outputs_of(records),
                          expected[:1]) == (0, expected[:1])


# ----------------------------------------------------------------------
# the command against BENCHMARK.json
# ----------------------------------------------------------------------

def test_metric_names_match_benchmark_json():
    bench = load_benchmark()
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {
        name: unit for name, (unit, _c) in tracing.PER_LAYER.items()}
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"),
                                            (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    done = subprocess.run(
        [sys.executable, RUN_PY, "--workload", "protocol-soak-toy",
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=run.ROOT, stdout=subprocess.PIPE, text=True, timeout=170)
    assert done.returncode == 0
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    names = [m["name"] for m in load_benchmark()[section]]
    assert list(result["metrics"]) == names
    printed = [line.split()[1] for line in lines[:-1]
               if not line.startswith("#")]
    assert printed == names


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    shutil.copytree(run.HERE, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload",
         "pointmult-k163", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=60, env={k: v for k, v in os.environ.items()
                                    if k != "PYTHONPATH"})
    assert done.returncode != 0
    assert "correct" not in done.stdout
