"""The process-global observability runtime.

``repro.obs`` is opt-in: nothing is traced until something calls
:func:`configure` (the CLI's ``--obs`` flags, a test's
:func:`session` context manager).  Instrumented code asks
:func:`current` for the runtime and does nothing when it is None, so
the un-traced hot path costs one module-global read.

Cross-process propagation piggybacks on the environment: campaign
shard workers are ``spawn``-ed and inherit ``os.environ``, so
:func:`configure` exports ``REPRO_OBS_DIR``/``_DETAIL``/``_PROFILE``/
``_TRACE_ID`` and :func:`shard_scope` (which
:func:`repro.campaign.chaos.run_attempt` enters around every
supervised attempt, inline or spawned) reconstructs a worker runtime
from them — no pipes, no pickled tracers.  Each shard writes its own
deterministically named files,

* ``spans-shard-XXXXX.jsonl`` — the shard's span records
  (overwritten per attempt, so retries leave the last attempt's
  truth), and
* ``metrics-shard-XXXXX.json`` — the shard's metric snapshot,
  written *only when the attempt succeeds*,

and the shard supervisor folds completed shards' snapshots back into
the coordinator's registry in shard order (see
:meth:`repro.campaign.supervisor.ShardSupervisor.run`), which keeps
every aggregate independent of worker count and scheduling.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Optional

from .flightrec import FlightRecorder, flight_path
from .manifest import build_manifest, write_manifest
from .metrics import MetricRegistry
from .tracing import SpanWriter, Tracer, derive_trace_id

__all__ = ["ObsRuntime", "configure", "current", "enabled", "shutdown",
           "session", "shard_scope", "shard_span_path",
           "shard_metrics_path", "flight_dump", "OBS_DIRNAME",
           "SPANS_NAME", "METRICS_NAME", "PROMETHEUS_NAME", "ENV_DIR",
           "ENV_DETAIL", "ENV_PROFILE", "ENV_TRACE_ID"]

OBS_DIRNAME = "obs"
SPANS_NAME = "spans.jsonl"
METRICS_NAME = "metrics.json"
PROMETHEUS_NAME = "metrics.prom"

ENV_DIR = "REPRO_OBS_DIR"
ENV_DETAIL = "REPRO_OBS_DETAIL"
ENV_PROFILE = "REPRO_OBS_PROFILE"
ENV_TRACE_ID = "REPRO_OBS_TRACE_ID"

_runtime: "Optional[ObsRuntime]" = None


def shard_span_path(obs_dir: str, shard_index: int) -> str:
    return os.path.join(obs_dir, f"spans-shard-{shard_index:05d}.jsonl")


def shard_metrics_path(obs_dir: str, shard_index: int) -> str:
    return os.path.join(obs_dir, f"metrics-shard-{shard_index:05d}.json")


class ObsRuntime:
    """One configured observability session (coordinator or shard)."""

    def __init__(self, obs_dir: str, tracer: Tracer,
                 registry: MetricRegistry, role: str = "run",
                 detail: int = 2, profile: bool = False,
                 flight: "Optional[FlightRecorder]" = None):
        self.obs_dir = obs_dir
        self.tracer = tracer
        self.registry = registry
        self.role = role
        self.detail = detail
        self.profile = profile
        self.flight = flight if flight is not None else FlightRecorder()
        tracer.on_record = self.flight.record

    def span(self, name: str, **kwargs):
        return self.tracer.span(name, **kwargs)

    def flight_dump(self, reason: str, tag: Optional[str] = None,
                    **context) -> str:
        """Dump this runtime's black box as ``flight-<tag>.json``."""
        self.tracer.flush()
        return self.flight.dump(
            flight_path(self.obs_dir, tag or self.role), reason,
            context)

    def close(self) -> None:
        self.tracer.close()


def current() -> "Optional[ObsRuntime]":
    return _runtime


def enabled() -> bool:
    return _runtime is not None


def configure(obs_dir: str, *, kind: str = "run", seed=None,
              config_digest: str = "", detail: int = 2,
              profile: bool = False, argv: Optional[list] = None,
              extra: Optional[dict] = None,
              set_env: bool = True) -> ObsRuntime:
    """Start a coordinator runtime writing into ``obs_dir``.

    Writes the run manifest, opens the coordinator span file, derives
    the trace id from ``(seed, config_digest)`` and (by default)
    exports the environment variables worker processes attach from.
    Exactly one runtime may be active per process; tests use
    :func:`session` for scoped setup/teardown.
    """
    global _runtime
    if _runtime is not None:
        raise RuntimeError("repro.obs is already configured — call "
                           "shutdown() first (or use obs.session())")
    obs_dir = os.path.abspath(obs_dir)
    os.makedirs(obs_dir, exist_ok=True)
    manifest = build_manifest(kind, seed=seed, config_digest=config_digest,
                              argv=argv, extra=extra)
    write_manifest(obs_dir, manifest)
    trace_id = derive_trace_id(seed, config_digest)
    tracer = Tracer(trace_id,
                    SpanWriter(os.path.join(obs_dir, SPANS_NAME)),
                    detail=detail)
    _runtime = ObsRuntime(obs_dir, tracer, MetricRegistry(),
                          role="run", detail=detail, profile=profile)
    if set_env:
        os.environ[ENV_DIR] = obs_dir
        os.environ[ENV_DETAIL] = str(detail)
        os.environ[ENV_PROFILE] = "1" if profile else "0"
        os.environ[ENV_TRACE_ID] = trace_id
    return _runtime


def shutdown(write_metrics: bool = True) -> None:
    """Flush and close the active runtime (idempotent).

    Writes the final merged metric snapshot (JSON + Prometheus text)
    and clears the worker-propagation environment.
    """
    global _runtime
    runtime = _runtime
    _runtime = None
    for name in (ENV_DIR, ENV_DETAIL, ENV_PROFILE, ENV_TRACE_ID):
        os.environ.pop(name, None)
    if runtime is None:
        return
    if write_metrics and runtime.role == "run":
        runtime.registry.write_snapshot(
            os.path.join(runtime.obs_dir, METRICS_NAME)
        )
        from .metrics import atomic_write_bytes

        atomic_write_bytes(
            os.path.join(runtime.obs_dir, PROMETHEUS_NAME),
            runtime.registry.render_prometheus().encode(),
        )
    runtime.close()


@contextmanager
def session(obs_dir: str, **kwargs):
    """``with obs.session(dir) as rt:`` — configure/shutdown scoped."""
    runtime = configure(obs_dir, **kwargs)
    try:
        yield runtime
    finally:
        shutdown()


def merge_shard_metrics(runtime: ObsRuntime, shard_indices) -> int:
    """Fold completed shards' metric snapshots into the coordinator.

    Merged in ascending shard order (not completion order), so float
    accumulation order — and therefore the final snapshot bytes — is
    independent of scheduling.  Returns how many files were merged.
    """
    merged = 0
    for index in sorted(shard_indices):
        path = shard_metrics_path(runtime.obs_dir, index)
        if not os.path.exists(path):
            continue
        runtime.registry.merge_snapshot(
            MetricRegistry.load_snapshot(path)
        )
        merged += 1
    return merged


@contextmanager
def shard_scope(shard_index: int):
    """The per-shard-attempt observability context.

    Yields a shard-scoped :class:`ObsRuntime` (or None when tracing is
    off).  Works identically in both execution modes:

    * **spawned worker** — no runtime exists; one is reconstructed
      from the environment exported by :func:`configure`;
    * **inline (workers=1)** — the coordinator runtime exists; its
      tracer/registry are swapped for shard-scoped ones for the
      duration, so shard metrics aggregate exactly like a worker's.

    The shard's span file is (over)written every attempt; the metric
    snapshot is written only when the attempt body completes without
    raising, so failed attempts never contribute metrics.
    """
    global _runtime
    parent = _runtime
    if parent is not None:
        obs_dir = parent.obs_dir
        trace_id = parent.tracer.trace_id
        detail = parent.detail
        profile = parent.profile
    elif os.environ.get(ENV_DIR):
        obs_dir = os.environ[ENV_DIR]
        trace_id = os.environ.get(ENV_TRACE_ID, "0" * 16)
        detail = int(os.environ.get(ENV_DETAIL, "2"))
        profile = os.environ.get(ENV_PROFILE) == "1"
    else:
        yield None
        return

    tracer = Tracer(
        trace_id, SpanWriter(shard_span_path(obs_dir, shard_index)),
        detail=detail,
    )
    scoped = ObsRuntime(obs_dir, tracer, MetricRegistry(),
                        role=f"shard-{shard_index:05d}",
                        detail=detail, profile=profile)
    _runtime = scoped
    try:
        yield scoped
        scoped.registry.write_snapshot(
            shard_metrics_path(obs_dir, shard_index)
        )
    except BaseException as exc:
        # The shard body died: dump the black box before unwinding so
        # the coordinator (and `obs tail`) can see the final spans.
        scoped.flight_dump("exception", error=type(exc).__name__)
        raise
    finally:
        _runtime = parent
        scoped.close()


def flight_dump(reason: str, tag: Optional[str] = None,
                **context) -> Optional[str]:
    """Dump the active runtime's flight ring (None when tracing is
    off) — the one-liner crash paths call on the way down."""
    runtime = current()
    if runtime is None:
        return None
    return runtime.flight_dump(reason, tag=tag, **context)
