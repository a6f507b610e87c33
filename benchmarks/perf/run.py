#!/usr/bin/env python3
"""Host-time benchmark of the repro stack, end to end and layer by layer.

Run from the repository root::

    python3 benchmarks/perf/run.py [--workload NAME] [--seed N]
        [--seconds S] [--trace 0|1] [--out DIR]
    python3 benchmarks/perf/run.py compare A/ B/
    python3 benchmarks/perf/run.py pin

Each workload runs in a fresh child process, one at a time.  An
untraced run (``--trace 0``) measures the workload for ``--seconds``
and prints every end-to-end metric as ``workload metric value unit``;
a traced run (``--trace 1``) runs a fixed number of steps untraced,
then again with every layer wrapped (see ``tracer.py``), and prints
every per-layer metric.  The last line of output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; any output
that fails its check, or differs from ``expected.json``, makes the run
exit 1.  Only host time is measured: simulated cycles, µJ, traces and
transcripts are the outputs being checked.  End-to-end times are scaled
to the nominal speed of a reference kernel timed between steps (see
``speed.py``), so that a shared host's slow spells cancel out.

``compare`` reads result files that ``--out`` wrote for a parent (A)
and a change (B) and gives each (workload, metric) a verdict against
the bounds in ``BENCHMARK.json``.  ``pin`` rewrites ``expected.json``.
"""

from time import perf_counter

_STARTED = perf_counter()  # a child's set-up time counts from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
EXPECTED_JSON = os.path.join(HERE, "expected.json")
#: Scratch space for the campaign stores; removed when a run ends.
WORKDIR = os.path.join(ROOT, ".perfbench-work")

sys.path.insert(0, HERE)
from speed import NOMINAL_S, SpeedGauge  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED = 2013
DEFAULT_SECONDS = 20
#: Set-ups per workload run: the measuring child plus fresh-process
#: probes that only set up; ``setup_s`` is their median.
SETUP_SAMPLES = 5
PIN_SEEDS = (2013, 7)
#: Largest accepted gap between the traced wall time and the sum of
#: the self times of every span in it.
ATTRIBUTION_TOLERANCE = 0.02
CHILD_TIMEOUT_S, PROBE_TIMEOUT_S = 150, 30

END_TO_END_UNITS = {"setup_s": "s", "op_ms_p50": "ms", "op_ms_p75": "ms",
                    "ops_per_s": "1/s", "peak_rss_mb": "MB"}
TAIL_CANDIDATES = ("50", "75", "90", "95", "99", "99.9")


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------

def percentile(values, p: float) -> float:
    """Linear interpolation between closest ranks (``p`` in 0..100)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    position = (len(ordered) - 1) * p / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_percentile(n: int, beyond: int = 10):
    """The highest candidate percentile with at least ``beyond`` of
    ``n`` samples above it, or None when not even the median has."""
    chosen = None
    for candidate in TAIL_CANDIDATES:
        if n * (1 - Fraction(candidate) / 100) >= beyond:
            chosen = float(candidate)
    return chosen


# ----------------------------------------------------------------------
# the child: one workload in one fresh process
# ----------------------------------------------------------------------

def drive(workload, seconds=None, steps=None, tracer=None, gauge=None):
    """Run steps back to back (closed loop, one client).

    Stops after ``steps`` steps, or once ``seconds`` have elapsed.
    Returns ``(records, wall_s)`` with one ``(start, end, latencies_s,
    output)`` record per step; a step that raised has output None.  A
    ``gauge`` samples the reference kernel between steps and once more
    at the end.
    """
    records = []
    t0 = perf_counter()
    index = 0
    while (index < steps if steps is not None
           else perf_counter() - t0 < seconds):
        if gauge is not None:
            gauge.tick()
        start = perf_counter()
        latencies, output = [], None
        try:
            if tracer is None:
                latencies, output = workload.step(index)
            else:
                with tracer.span("bench.step"):
                    latencies, output = workload.step(index)
        except Exception:
            traceback.print_exc()
        records.append((start, perf_counter(), latencies, output))
        index += 1
    wall = perf_counter() - t0
    if gauge is not None:
        gauge.sample()
    return records, wall


def outputs_of(records) -> list:
    return [record[3] for record in records]


def expected_digests(name: str, seed: int) -> list:
    with open(EXPECTED_JSON, encoding="utf-8") as f:
        return json.load(f).get(name, {}).get(str(seed), [])


def verify(workload, outputs, expected) -> tuple:
    """Check every step's output; returns (failed ops, digests)."""
    failed, digests = 0, []
    for index, output in enumerate(outputs):
        ok, digest = False, None
        if output is not None:
            try:
                ok, digest = workload.check(output)
            except Exception:
                traceback.print_exc()
        if index < len(expected) and digest != expected[index]:
            print(f"{workload.name}: step {index} digest {digest} != "
                  f"expected {expected[index]}", file=sys.stderr)
            ok = False
        if not ok:
            failed += workload.ops_per_step
        digests.append(digest)
    return failed, digests


def child(args) -> dict:
    sys.path.insert(0, SRC)
    import repro  # noqa: F401  (set-up covers the package import)

    workdir = os.path.join(WORKDIR, f"{args.workload}-{os.getpid()}")
    workload = WORKLOADS[args.workload](args.seed, workdir)
    setup_s = perf_counter() - _STARTED
    gauge = SpeedGauge()
    for _ in range(3):
        gauge.sample()
    setup_s *= NOMINAL_S / gauge.median_s()
    try:
        if args.setup_only:
            return {"setup_s": setup_s}
        expected = expected_digests(args.workload, args.seed)
        if args.trace:
            return dict(traced(workload, args, expected), setup_s=setup_s)
        return dict(untraced(workload, args, expected, gauge),
                    setup_s=setup_s)
    finally:
        workload.close()


def untraced(workload, args, expected, gauge) -> dict:
    with workload.session_timer():
        records, wall = drive(workload, seconds=args.seconds, gauge=gauge)
    attempted = len(records) * workload.ops_per_step
    failed, _digests = verify(workload, outputs_of(records), expected)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ms, raw_ms, busy = [], [], 0.0
    for start, end, latencies, _output in records:
        scale = gauge.scale(start, end)
        busy += (end - start) * scale
        ms += [1e3 * t * scale for t in latencies]
        raw_ms += [1e3 * t for t in latencies]
    metrics = {
        "op_ms_p50": percentile(ms, 50),
        "op_ms_p75": percentile(ms, 75),
        "ops_per_s": attempted / busy,
        "peak_rss_mb": peak_rss_mb,
    }
    return {"attempted": attempted, "failed": failed, "correct": failed == 0,
            "metrics": metrics, "latencies_ms": ms, "raw_latencies_ms": raw_ms,
            "kernel_s": [s for _t, s in gauge.samples], "wall_s": wall}


def traced(workload, args, expected) -> dict:
    from tracer import Tracer, layer_metrics

    steps = workload.trace_steps
    with workload.session_timer():
        plain, plain_wall = drive(workload, steps=steps)
    overheads = workload.overheads()
    tracer = Tracer()
    with tracer:
        with tracer.span(f"workload:{workload.name}"):
            records, wall = drive(workload, steps=steps, tracer=tracer)
    failed_plain, plain_digests = verify(workload, outputs_of(plain),
                                         expected)
    failed, digests = verify(workload, outputs_of(records), expected)
    if digests != plain_digests:
        print(f"{workload.name}: traced outputs differ from untraced ones",
              file=sys.stderr)
        failed = max(failed, steps * workload.ops_per_step)
    attributed = tracer.self_time_sum() / wall
    if abs(attributed - 1.0) > ATTRIBUTION_TOLERANCE:
        print(f"{workload.name}: span self times cover {attributed:.4f} "
              "of the traced wall time", file=sys.stderr)
        failed = max(failed, 1)
    if args.out:
        tracer.dump(os.path.join(args.out, f"trace-{workload.name}.json"),
                    workload=workload.name, seed=args.seed, steps=steps,
                    wall_s=wall, untraced_wall_s=plain_wall)
    metrics = {name: m["value"] for name, m in layer_metrics(
        tracer, traced_wall_s=wall, untraced_wall_s=plain_wall,
        **overheads).items()}
    failed = max(failed, failed_plain)
    return {"attempted": steps * workload.ops_per_step, "failed": failed,
            "correct": failed == 0, "metrics": metrics,
            "attributed_frac": attributed, "wall_s": wall}


# ----------------------------------------------------------------------
# the parent: fresh children, one workload at a time
# ----------------------------------------------------------------------

class BenchError(RuntimeError):
    pass


def spawn(argv: list, timeout: float) -> dict:
    """Run a child to completion and parse its last output line."""
    try:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "_child"] + argv,
            stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child {argv} exceeded {timeout} s") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"child {argv} exited {done.returncode}")
    return json.loads(lines[-1])


def metric_units(trace: bool) -> dict:
    if not trace:
        return END_TO_END_UNITS
    from tracer import PER_LAYER

    return {name: unit for name, (unit, _compute) in PER_LAYER.items()}


def run_workload(name: str, args) -> dict:
    common = ["--workload", name, "--seed", str(args.seed)]
    setups = [spawn(common + ["--setup-only"], PROBE_TIMEOUT_S)["setup_s"]
              for _ in range(SETUP_SAMPLES - 1)]
    child_args = common + ["--seconds", str(args.seconds),
                           "--trace", str(args.trace)]
    if args.out:
        child_args += ["--out", args.out]
    result = spawn(child_args, CHILD_TIMEOUT_S)
    setups.append(result["setup_s"])
    values = dict(result["metrics"])
    if not args.trace:
        values["setup_s"] = statistics.median(setups)
    metrics = {metric: {"value": values[metric], "unit": unit}
               for metric, unit in metric_units(args.trace).items()}
    for metric, m in metrics.items():
        print(f"{name} {metric} {m['value']!r} {m['unit']}")
    if args.trace:
        print(f"# {name}: span self times sum to "
              f"{result['attributed_frac']:.4f} of the traced wall time")
    else:
        n = len(result["latencies_ms"])
        tail = tail_percentile(n)
        line = f"# {name}: {n} ops in {result['wall_s']:.1f} s"
        if tail is not None:
            line += (f"; p{tail:g} (highest with >=10 beyond) = "
                     f"{percentile(result['latencies_ms'], tail):.3f} ms")
        print(line)
        print(f"# {name}: wall-clock op p50 "
              f"{percentile(result['raw_latencies_ms'], 50):.3f} ms; "
              f"reference kernel median "
              f"{1e3 * statistics.median(result['kernel_s']):.2f} ms "
              f"(nominal {1e3 * NOMINAL_S:.1f} ms)")
    summary = {"correct": result["correct"], "attempted": result["attempted"],
               "failed": result["failed"], "metrics": metrics}
    if args.out:
        save_result(args, name, setups, result, summary)
    return summary


def save_result(args, name, setups, result, summary) -> None:
    kind = "traced" if args.trace else "untraced"
    stem = f"{name}.{kind}.seed{args.seed}"
    repeat = 0
    while os.path.exists(os.path.join(args.out, f"{stem}.{repeat}.json")):
        repeat += 1
    record = {"workload": name, "seed": args.seed, "trace": args.trace,
              "repeat": repeat, "seconds": args.seconds,
              "setup_samples_s": setups,
              "latencies_ms": result.get("latencies_ms"),
              "raw_latencies_ms": result.get("raw_latencies_ms"),
              "kernel_s": result.get("kernel_s"),
              "attributed_frac": result.get("attributed_frac"),
              "result": summary}
    with open(os.path.join(args.out, f"{stem}.{repeat}.json"), "w",
              encoding="utf-8") as f:
        json.dump(record, f, indent=1)
        f.write("\n")


def run(args) -> int:
    if not os.path.exists(os.path.join(SRC, "repro", "__init__.py")):
        print(f"run.py: no repro package under {SRC}; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    names = [args.workload] if args.workload else list(WORKLOADS)
    ok = True
    try:
        for name in names:
            summary = run_workload(name, args)
            print(json.dumps(summary), flush=True)
            ok = ok and summary["correct"]
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        _remove_empty_workdir()
    return 0 if ok else 1


def _remove_empty_workdir() -> None:
    if os.path.isdir(WORKDIR) and not os.listdir(WORKDIR):
        os.rmdir(WORKDIR)


# ----------------------------------------------------------------------
# compare and pin
# ----------------------------------------------------------------------

def load_results(directory: str) -> dict:
    """Untraced results in ``directory``: {workload: {(seed, repeat): metrics}}."""
    runs: dict = {}
    for filename in sorted(os.listdir(directory)):
        if not filename.endswith(".json") or ".untraced." not in filename:
            continue
        with open(os.path.join(directory, filename), encoding="utf-8") as f:
            record = json.load(f)
        key = (record["seed"], record["repeat"])
        runs.setdefault(record["workload"], {})[key] = \
            record["result"]["metrics"]
    return runs


def verdict(parent: list, change: list, bound: float, better: str) -> tuple:
    """(win fraction, verdict) of paired parent/change values."""
    sign = 1.0 if better == "lower" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for a, b in pairs if sign * (b - a) < 0) / len(pairs)
    if len(pairs) < 10:
        return wins, "unresolved"
    med_a, med_b = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4)
    worse = sign * (med_b - med_a) / med_a
    if wins >= 0.9 and worse < 0 and abs(med_b - med_a) > q3 - q1:
        return wins, "improved"
    all_better = all(sign * (b - a) < 0 for a in parent for b in change)
    if (q3 - q1) / med_a > bound and not all_better:
        return wins, "unresolved"
    return wins, "regressed" if worse > bound else "no worse"


def compare(parent_dir: str, change_dir: str) -> int:
    with open(BENCHMARK_JSON, encoding="utf-8") as f:
        bench = json.load(f)
    parent, change = load_results(parent_dir), load_results(change_dir)
    regressed = False
    print(f"{'workload':20} {'metric':12} {'pairs':>5} "
          f"{'A median [q1, q3]':>32} {'B median [q1, q3]':>32} "
          f"{'win':>5}  verdict")
    for name in sorted(set(parent) & set(change)):
        keys = sorted(set(parent[name]) & set(change[name]))
        for metric in bench["end_to_end"]:
            a = [parent[name][k][metric["name"]]["value"] for k in keys]
            b = [change[name][k][metric["name"]]["value"] for k in keys]
            if len(keys) < 2:
                print(f"{name:20} {metric['name']:12} {len(keys):>5} "
                      "needs at least 2 pairs")
                continue
            wins, result = verdict(a, b, metric["bound"], metric["better"])
            regressed = regressed or result == "regressed"
            print(f"{name:20} {metric['name']:12} {len(keys):>5} "
                  f"{_quartiles(a):>32} {_quartiles(b):>32} {wins:>5.2f}  "
                  f"{result}")
    return 1 if regressed else 0


def _quartiles(values) -> str:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{statistics.median(values):.5g} [{q1:.5g}, {q3:.5g}]"


def pin() -> int:
    """Rewrite expected.json from the current program's outputs."""
    sys.path.insert(0, SRC)
    pinned: dict = {}
    for name, cls in WORKLOADS.items():
        for seed in PIN_SEEDS:
            workload = cls(seed, os.path.join(WORKDIR, f"pin-{name}"))
            try:
                records, _ = drive(workload, steps=cls.pin_steps)
                failed, digests = verify(workload, outputs_of(records), [])
            finally:
                workload.close()
            if failed:
                print(f"pin: {name} seed {seed}: {failed} failed ops",
                      file=sys.stderr)
                return 1
            pinned.setdefault(name, {})[str(seed)] = digests
            print(f"{name} seed {seed}: {len(digests)} steps pinned")
    with open(EXPECTED_JSON, "w", encoding="utf-8") as f:
        json.dump(pinned, f, indent=1, sort_keys=True)
        f.write("\n")
    _remove_empty_workdir()
    return 0


# ----------------------------------------------------------------------
# command line
# ----------------------------------------------------------------------

def _options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0)
    parser.add_argument("--out", help="directory for result and trace "
                        "files")


def main(argv: list) -> int:
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("parent_dir")
        parser.add_argument("change_dir")
        args = parser.parse_args(argv[1:])
        return compare(args.parent_dir, args.change_dir)
    if argv[:1] == ["pin"]:
        return pin()
    if argv[:1] == ["_child"]:
        parser = argparse.ArgumentParser(prog="run.py _child")
        _options(parser)
        parser.add_argument("--setup-only", action="store_true")
        args = parser.parse_args(argv[1:])
        print(json.dumps(child(args)))
        return 0
    parser = argparse.ArgumentParser(
        prog="run.py", description=__doc__.split("\n\n")[0])
    _options(parser)
    args = parser.parse_args(argv)
    if args.out:
        args.out = os.path.abspath(args.out)
    return run(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
