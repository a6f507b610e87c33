"""The measurement worker: simulate one design point, cache it.

One measurement = one cycle-level point multiplication of one
(digit size, countermeasure set) cell, reduced to the pair every
operating-point report derives from — ``(consumed, cycles)`` — plus
the area breakdown and, optionally, the white-box attack findings.
The result is written atomically to
``measurements/<config-digest>.json``; the digest covers exactly the
measurement's inputs, so the same cell is never simulated twice, not
even across explorations with different grids or constraints.

:func:`run_measurement_attempt` is a campaign supervisor task
(module-level, picklable, ``(spec, directory, index) -> record``), so
design points inherit the whole retry / watchdog / quarantine /
integrity machinery for free.  The record it returns carries an
``artifacts`` list, which the supervisor re-hashes before accepting
the result.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import time
from typing import Optional

from ..campaign.spec import derive_seed
from ..obs import runtime as obs_runtime
from ..obs.metrics import atomic_write_bytes
from ..obs.tracing import derive_span_id
from ..power.evaluation import MeasuredDesign, design_area
from .space import DesignSpaceSpec, MeasurementJob

__all__ = ["MEASUREMENTS_DIRNAME", "load_measurement",
           "measurement_relpath", "run_measurement_attempt"]

MEASUREMENTS_DIRNAME = "measurements"


def measurement_relpath(digest: str) -> str:
    return os.path.join(MEASUREMENTS_DIRNAME, f"{digest}.json")


def _whitebox_findings(spec: DesignSpaceSpec, config, digest: str) -> list:
    """Run the attack battery on this cell, on its own derived seed."""
    from ..security.evaluation import WhiteBoxEvaluation

    seed = derive_seed(spec.seed, f"dse.whitebox/{digest}")
    report = WhiteBoxEvaluation(
        config=config, n_traces=spec.whitebox_traces, n_bits=2, seed=seed,
    ).run()
    return [
        {"attack": f.attack, "resistant": f.resistant, "detail": f.detail}
        for f in report.findings
    ]


def run_measurement_attempt(spec: DesignSpaceSpec, directory: str,
                            job_index: int) -> dict:
    """One supervised measurement attempt (supervisor task protocol).

    Under tracing it emits a ``point`` span into the runtime the
    supervisor's shard scope made current.
    """
    started = time.perf_counter()
    obs = obs_runtime.current()
    job = spec.measurement_jobs()[job_index]
    digest = spec.config_digest(job)

    span_ctx = contextlib.nullcontext()
    if obs is not None:
        # the point's parent is the engine's root span, derived — not
        # communicated — so worker and coordinator agree on it.
        root_id = derive_span_id(obs.tracer.trace_id, None,
                                 "dse.explore", 0)
        span_attrs = {"digest": digest}
        if job.backend != "ecc":
            span_attrs["backend"] = job.backend
        else:
            span_attrs["digit"] = job.digit_size
            span_attrs["countermeasures"] = job.countermeasures
        span_ctx = obs.tracer.span(
            "point", key=job.index, parent_id=root_id, **span_attrs,
        )
    with span_ctx as span:
        if job.backend != "ecc":
            payload = _measure_backend_payload(spec, job, digest)
        else:
            config = spec.coprocessor_config(job)
            measured = MeasuredDesign.measure(config)
            whitebox = None
            if spec.whitebox:
                whitebox = _whitebox_findings(spec, config, digest)
            payload = {
                "schema": spec.schema_version,
                "digest": digest,
                "curve": spec.curve,
                "digit_size": job.digit_size,
                "countermeasures": job.countermeasures,
                "cycles": measured.cycles,
                "consumed": measured.consumed,
                "area": design_area(config).as_dict(),
                "whitebox": whitebox,
            }
        if span is not None:
            span.set(cycles=payload["cycles"])
        if obs is not None:
            obs.registry.counter(
                "repro_dse_measurements_total",
                "design-point simulations executed",
            ).inc()
    data = json.dumps(payload, indent=1, sort_keys=True).encode()
    relpath = measurement_relpath(digest)
    path = os.path.join(directory, relpath)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    atomic_write_bytes(path, data)
    return {
        "index": job.index,
        "digest": digest,
        "file": relpath,
        "artifacts": [[relpath, hashlib.sha256(data).hexdigest()]],
        "wall_seconds": time.perf_counter() - started,
    }


def _measure_backend_payload(spec: DesignSpaceSpec,
                             job: MeasurementJob, digest: str) -> dict:
    """One symmetric-engine measurement: seal the canonical message.

    Same cache shape as an ECC cell — ``(consumed, cycles, area)`` —
    so :func:`load_measurement` validates both without caring which
    kind of engine produced the bytes.
    """
    from ..backends.evaluation import measure_backend

    measured = measure_backend(job.backend)
    return {
        "schema": spec.schema_version,
        "digest": digest,
        "backend": job.backend,
        "message_bytes": measured.message_bytes,
        "cycles": measured.cycles,
        "consumed": measured.consumed,
        "area": {"total": measured.area_ge},
        "whitebox": None,
    }


def load_measurement(directory: str, digest: str) -> Optional[dict]:
    """A cached measurement's payload, or None when it must be
    (re-)simulated — missing, unreadable and digest-mismatched files
    all answer None, so a torn cache heals itself on the next run."""
    path = os.path.join(directory, measurement_relpath(digest))
    try:
        with open(path, "r", encoding="utf-8") as f:
            payload = json.load(f)
    except (OSError, ValueError):
        return None
    if payload.get("digest") != digest:
        return None
    if not isinstance(payload.get("cycles"), int) \
            or not isinstance(payload.get("consumed"), float):
        return None
    return payload
