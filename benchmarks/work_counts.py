#!/usr/bin/env python3
"""Exact work-count gate over the host-time benchmark's traced runs.

Runs every workload of ``benchmarks/perf/run.py`` traced, at seed 2013,
and compares each ``count``-unit line it prints with
``results/work_counts.json``:

* a ``*.calls`` count (calls into one layer) must not exceed the file;
* every other count (``arch.sim_cycles``, ``protocols.frames_sent``,
  ``protocols.retransmissions``) counts simulated events, so it must
  equal the file: moving it changes the paper's metrics, not host time.

The counts are deterministic, so unlike wall time they gate exactly.  A
change that lowers a count rewrites the file with ``--write``.

Run from the repository root::

    python3 benchmarks/work_counts.py [--write]
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_PY = os.path.join(HERE, "perf", "run.py")
COUNTS_JSON = os.path.join(os.path.dirname(HERE), "results",
                           "work_counts.json")
SEED = 2013


def traced_counts() -> dict:
    """``{workload: {metric: count}}`` from one traced run of each
    workload; exits if the run fails its own output checks."""
    done = subprocess.run(
        [sys.executable, RUN_PY, "--trace", "1", "--seed", str(SEED)],
        stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        sys.exit(f"work_counts: run.py exited {done.returncode}")
    counts: dict = {}
    for line in done.stdout.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[3] == "count":
            workload, metric, value, _unit = parts
            counts.setdefault(workload, {})[metric] = int(value)
    return counts


def compare(expected: dict, got: dict) -> tuple:
    """(failures, lowered counts) of ``got`` against ``expected``."""
    failures, lowered = [], []
    for workload in sorted(set(expected) | set(got)):
        want, have = expected.get(workload, {}), got.get(workload, {})
        for metric in sorted(set(want) | set(have)):
            name = f"{workload} {metric}"
            if metric not in want or metric not in have:
                where = "this run" if metric in have else "the file"
                failures.append(f"{name}: only in {where}")
            elif metric.endswith(".calls") and have[metric] > want[metric]:
                failures.append(f"{name}: {have[metric]} calls, more than "
                                f"the recorded {want[metric]}")
            elif not metric.endswith(".calls") and \
                    have[metric] != want[metric]:
                failures.append(f"{name}: {have[metric]} simulated, the "
                                f"recorded count is {want[metric]}")
            elif have[metric] < want[metric]:
                lowered.append(f"{name}: {want[metric]} -> {have[metric]}")
    return failures, lowered


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(
        prog="work_counts.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true",
                        help=f"rewrite {os.path.relpath(COUNTS_JSON)} "
                        "from this run")
    args = parser.parse_args(argv)
    got = traced_counts()
    if args.write:
        with open(COUNTS_JSON, "w", encoding="utf-8") as f:
            json.dump({"seed": SEED, "counts": got}, f, indent=1,
                      sort_keys=True)
            f.write("\n")
        print(f"work_counts: wrote {COUNTS_JSON}")
        return 0
    with open(COUNTS_JSON, encoding="utf-8") as f:
        expected = json.load(f)["counts"]
    failures, lowered = compare(expected, got)
    for line in lowered:
        print(f"lower than recorded (rewrite with --write): {line}")
    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    total = sum(len(metrics) for metrics in got.values())
    print(f"work_counts: {total} counts over {len(got)} workloads, "
          f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
