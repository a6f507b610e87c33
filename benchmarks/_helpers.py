"""Shared machinery for the experiment benchmarks.

Each bench regenerates one table/figure-equivalent of the paper (see
DESIGN.md section 4 and EXPERIMENTS.md).  Reports are written to
``results/<experiment>.txt`` so the regenerated numbers survive the
pytest output capture, and the headline values are asserted against
the paper's expected *shape*.

Set ``REPRO_FAST=1`` to shrink campaign sizes for smoke runs.
Set ``REPRO_SEED=<int>`` to re-run the whole suite on a different
(still fully deterministic) randomness universe; every bench RNG is
derived from this master seed and an explicit stream number — no code
path touches the global ``random`` / ``np.random`` state.
"""

from __future__ import annotations

import os
import pathlib
import random

import numpy as np

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"

FAST = os.environ.get("REPRO_FAST", "") not in ("", "0")

#: Master seed of the benchmark suite (0 preserves the historical
#: per-bench streams exactly).
MASTER_SEED = int(os.environ.get("REPRO_SEED", "0"))

#: Noise level shared by every side-channel bench (the virtual scope).
NOISE_SIGMA = 38.0


def scaled(full: int, fast: int) -> int:
    """Campaign size: full scale, or the fast value under REPRO_FAST."""
    return fast if FAST else full


def write_report(name: str, lines: list) -> str:
    """Write (and echo) an experiment report; returns the text.

    Atomic (write-tmp-fsync-rename) so a bench killed mid-write never
    leaves a half-finished report shadowing the previous run's."""
    from repro.obs.metrics import atomic_write_bytes

    RESULTS_DIR.mkdir(exist_ok=True)
    text = "\n".join(lines) + "\n"
    atomic_write_bytes(str(RESULTS_DIR / f"{name}.txt"), text.encode())
    print(text)
    return text


def protocol_points(domain, count, rng):
    """Random prime-order-subgroup points with x != 0."""
    curve = domain.curve
    points = []
    while len(points) < count:
        p = curve.double(curve.random_point(rng))
        if not p.is_infinity and p.x != 0:
            points.append(p)
    return points


def fresh_rng(stream: int) -> random.Random:
    """A deterministic RNG on one explicit stream of the master seed.

    With the default ``REPRO_SEED=0`` this is ``random.Random(stream)``
    byte-for-byte, so the calibrated bench thresholds are unchanged.
    """
    return random.Random((MASTER_SEED << 32) ^ stream)


def fresh_generator(stream: int) -> np.random.Generator:
    """A numpy Generator on one explicit stream of the master seed."""
    return np.random.default_rng((MASTER_SEED << 32) ^ stream)


def bench_seed(stream: int) -> int:
    """An integer seed on one explicit stream (for seeded components
    such as :class:`repro.power.PowerTraceSimulator`)."""
    return (MASTER_SEED << 32) ^ stream


def campaign_workers() -> int:
    """Worker count for engine-driven benches (REPRO_WORKERS override)."""
    from repro.campaign import default_workers

    env = os.environ.get("REPRO_WORKERS", "")
    return default_workers(int(env) if env else None)


def dse_dir(name: str, spec) -> pathlib.Path:
    """A spec-keyed exploration directory under ``results/dse``.

    Digest-keyed like :func:`campaign_dir`, so re-running a bench hits
    the measurement cache while a spec change lands in a fresh
    directory.  Measurement caching is itself keyed per configuration,
    so benches sharing cells (e.g. the d = 4 reference) may also share
    a directory.
    """
    path = RESULTS_DIR / "dse" / f"{name}-{spec.digest()[:10]}"
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def campaign_dir(name: str, spec) -> pathlib.Path:
    """A spec-keyed campaign directory under ``results/campaigns``.

    The directory name embeds a digest of the spec, so re-running the
    same bench resumes its (possibly interrupted) campaign while any
    spec change — e.g. toggling REPRO_FAST — lands in a fresh
    directory instead of tripping the store's spec-mismatch guard.
    """
    path = RESULTS_DIR / "campaigns" / f"{name}-{spec.digest()[:10]}"
    path.parent.mkdir(parents=True, exist_ok=True)
    return path
