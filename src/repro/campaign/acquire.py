"""Parallel, resumable, fault-tolerant trace acquisition.

The engine fans shards out over supervised worker processes.  Each
shard is a self-contained unit of work: the worker rebuilds the device
under test from the (JSON-serializable) spec, derives its own RNG
streams from ``(master seed, stream label, shard index)``, simulates
its traces and writes its two shard files — no state crosses process
boundaries except the spec going in and a small record dict coming
back.  That is what makes the campaign:

* **deterministic** — a shard's bytes depend only on the spec, never
  on which worker ran it, in what order, or alongside what else;
* **resumable** — the coordinator checkpoints the manifest after every
  completed shard, so a killed campaign re-run with the same spec
  acquires only the missing shards;
* **scalable** — the coprocessor simulation is pure Python and CPU
  bound, so worker processes (not threads, which the GIL would
  serialize) are the right executor;
* **fault-tolerant** — execution goes through
  :class:`~repro.campaign.supervisor.ShardSupervisor`: every attempt
  runs in its own ``spawn``-ed process under a watchdog, failures are
  classified and retried with backoff, repeat offenders are
  quarantined (the campaign finishes *degraded*, never dead), and
  every event lands in the directory's ``failures.jsonl``.
"""

from __future__ import annotations

import contextlib
import os
import time
from typing import Optional

import numpy as np

from ..arch.batch import BatchCoprocessor
from ..ec.ladder import choose_z
from ..obs import runtime as obs_runtime
from ..obs.tracing import derive_span_id
from ..power.simulator import PowerTraceSimulator
from .chaos import ChaosConfig
from .errors import DATA_INTEGRITY, ScheduleMismatchError
from .progress import (
    CampaignMetrics,
    CampaignReporter,
    NullReporter,
    ShardEvent,
)
from .spec import SCENARIOS, CampaignSpec, derive_rng, derive_seed
from .store import ShardRecord, TraceSet, TraceStore
from .supervisor import FailureLog, Quarantine, RetryPolicy, ShardSupervisor

__all__ = ["AcquisitionEngine", "acquire_in_memory", "acquire_shard",
           "acquire_traces", "default_workers", "random_protocol_point"]

#: Traces per batch run.  A longer shard or in-RAM campaign runs in
#: batches of this many, which bounds the channel arrays: a full-length
#: K-163 trace has 85 698 cycles, 0.7 MB per float64 row.
BATCH_TRACES = 64


def default_workers(requested: Optional[int] = None) -> int:
    """Resolve a worker count (None -> all cores, capped at 8)."""
    if requested is not None:
        if requested < 1:
            raise ValueError("worker count must be positive")
        return requested
    return max(1, min(8, os.cpu_count() or 1))


def random_protocol_point(domain, rng):
    """One random prime-order-subgroup point with x != 0.

    Doubling a random curve point lands in the order-n subgroup for
    the cofactor-2 Koblitz/binary curves used here; protocol points
    always satisfy x != 0.
    """
    curve = domain.curve
    while True:
        p = curve.double(curve.random_point(rng))
        if not p.is_infinity and p.x != 0:
            return p


def acquire_traces(coprocessor, simulator: PowerTraceSimulator, key: int,
                   points: list, z_rng, randomize: bool,
                   max_iterations: Optional[int]):
    """Yield ``(z_values, execution, samples)`` per batch, in order.

    The one acquisition loop: for each batch of at most
    :data:`BATCH_TRACES` base points, draw each trace's starting Z with
    :func:`~repro.ec.ladder.choose_z` (1 unless ``randomize``), run the
    fixed-key point multiplications as one
    :class:`~repro.arch.batch.BatchCoprocessor` run (x-only, no
    y-recovery) and measure them on ``simulator``: ``samples`` is
    ``(batch, cycles)``.  The trace store's shards and in-RAM campaigns
    both acquire through it.
    """
    batch = BatchCoprocessor(coprocessor.config)
    k_padded = batch.recode_scalar(key)
    field = batch.domain.field
    for start in range(0, len(points), BATCH_TRACES):
        chunk = points[start:start + BATCH_TRACES]
        z_values = [choose_z(field, z_rng, randomize, None) for _ in chunk]
        execution = batch.run(k_padded, chunk, z_values, max_iterations)
        yield z_values, execution, simulator.measure(execution)


def acquire_in_memory(coprocessor, simulator: PowerTraceSimulator,
                      key: int, points: list, rng=None,
                      scenario: str = "protected",
                      max_iterations: Optional[int] = None) -> TraceSet:
    """Acquire one trace per base point with a fixed secret key, in RAM.

    ``scenario`` selects the Section 7 evaluation configuration:

    * ``"unprotected"`` — Z-randomization off (Z = 1 every run),
    * ``"known_randomness"`` — randomization on, but the adversary
      is handed each run's Z (white-box evaluation),
    * ``"protected"`` — randomization on, randomness secret.

    ``rng`` draws the Z values.  The streaming attacks read the result
    like a complete one-shard store.
    """
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}")
    if scenario != "unprotected" and rng is None:
        raise ValueError("randomized scenarios need an rng")
    rows, z_values = [], []
    for z_batch, execution, samples in acquire_traces(
            coprocessor, simulator, key, points, rng,
            scenario != "unprotected", max_iterations):
        rows.append(samples)
        z_values += z_batch
    return TraceSet(
        np.vstack(rows), list(points), execution.iteration_slices(),
        list(execution.key_bits), coprocessor.config,
        z_values if scenario == "known_randomness" else None,
    )


def acquire_shard(spec: CampaignSpec, directory: str,
                  shard_index: int) -> dict:
    """Simulate and write one shard; returns its manifest record dict
    plus the two shard files as ``artifacts`` (the supervisor's task
    protocol).

    Runs in a worker process (but is an ordinary function — tests call
    it inline).  RNG streams are derived per shard:

    * ``points/<shard>`` — the per-trace base points,
    * ``z/<shard>``      — the per-trace Z-randomization,
    * ``noise/<shard>``  — the oscilloscope noise (numpy Generator).

    When tracing is on (the coordinator configured :mod:`repro.obs`),
    the shard emits ``shard`` > ``trace`` > ``ladder.step`` spans with
    cycle and µJ attribution into the runtime the supervisor's shard
    scope made current; the traces themselves are byte-identical
    either way — observation never perturbs the measurement.
    """
    obs = obs_runtime.current()
    started = time.perf_counter()
    coprocessor = spec.build_coprocessor()
    simulator = PowerTraceSimulator(
        noise_sigma=spec.noise_sigma,
        seed=derive_seed(spec.seed, "noise", shard_index),
    )
    key = spec.resolve_key()
    attribute = _shard_energy_reporter(spec, coprocessor, obs)

    n = spec.shard_trace_count(shard_index)
    point_rng = derive_rng(spec.seed, "points", shard_index)
    points = [random_protocol_point(coprocessor.domain, point_rng)
              for _ in range(n)]
    batches = acquire_traces(
        coprocessor, simulator, key, points,
        derive_rng(spec.seed, "z", shard_index), spec.randomize_z,
        spec.max_iterations,
    )
    rows, z_values = [], []
    shard_uj = 0.0
    with contextlib.ExitStack() as stack:
        shard_span = None
        if obs is not None:
            # the shard's parent is the engine's root span, derived —
            # not communicated — so worker and coordinator agree on it.
            root_id = derive_span_id(obs.tracer.trace_id, None,
                                     "campaign.acquire", 0)
            shard_span = stack.enter_context(obs.tracer.span(
                "shard", key=shard_index, parent_id=root_id,
                shard=shard_index,
            ))
        for z_batch, execution, samples in batches:
            if obs is not None:
                # The batch ran first; each trace's span then carries
                # its own cycles and µJ.
                uj, consumed = attribute(execution)
                for row in range(execution.n_traces):
                    with obs.tracer.span("trace", key=len(z_values) + row
                                         ) as trace_span:
                        _attribute_trace(obs, trace_span, execution,
                                         uj[row], consumed[row])
                    shard_uj += uj[row]
            rows.append(samples)
            z_values += z_batch
        if shard_span is not None:
            shard_span.set(uj=shard_uj, traces=n)
            obs.registry.counter(
                "repro_campaign_energy_uj_total",
                "simulated microjoules across acquired traces",
            ).inc(shard_uj)

    if spec.scenario != "known_randomness":
        z_values = None
    store = TraceStore(directory)
    samples = rows[0] if len(rows) == 1 else np.vstack(rows)
    record = store.write_shard(shard_index, samples, points, z_values)
    record["wall_seconds"] = time.perf_counter() - started
    record["iteration_slices"] = execution.iteration_slices()
    record["key_bits"] = list(execution.key_bits)
    record["artifacts"] = [(record["samples_file"], record["samples_sha256"]),
                           (record["aux_file"], record["aux_sha256"])]
    return record


def _shard_energy_reporter(spec: CampaignSpec, coprocessor, obs):
    """A batch's (per-trace µJ, per-trace per-cycle consumed)
    attribution, or None when tracing is off (the energy model costs a
    calibration point-multiply, so it is only built under
    observation).  Each trace's µJ is what ``EnergyModel.report`` gives
    its own execution: the same consumed row, summed the same way."""
    if obs is None:
        return None
    from ..power.energy import calibrate_energy_model

    model = calibrate_energy_model(coprocessor)

    def attribute(execution):
        consumed = model.leakage_model.consumed(execution)
        uj = [model.report_activity(float(row.sum()), execution.cycles)
              .energy_joules * 1e6 for row in consumed]
        return uj, consumed

    return attribute


def _attribute_trace(obs, trace_span, execution, uj: float,
                     consumed) -> None:
    """Set one trace span's cycles/µJ and emit its ladder.step events.

    Each ladder iteration's share is its fraction of the trace's
    per-cycle consumed charge, so the children partition exactly the
    window they cover and the prologue/epilogue stays with the trace —
    the rollup's total equals the model's total by construction.
    """
    trace_span.set(cycles=execution.cycles, uj=uj)
    total = float(consumed.sum())
    for step_index, span in enumerate(execution.iterations):
        share = 0.0
        if total > 0:
            share = uj * float(
                consumed[span.start:span.end].sum()
            ) / total
        obs.tracer.event(
            "ladder.step", key=step_index, level=2,
            cycles=span.end - span.start, uj=share, bit=span.key_bit,
        )


class AcquisitionEngine:
    """Coordinates a campaign: plan, fan out, checkpoint, report.

    Parameters
    ----------
    directory:
        Campaign directory (created if needed).
    spec:
        What to acquire; must match the directory's manifest when
        resuming.
    workers:
        Process count (1 = run inline, no processes); None picks from
        the machine's core count.
    reporter:
        Progress observer (see :mod:`repro.campaign.progress`).
    verify_resume:
        On resume, digest-check shards already on disk and re-acquire
        any that fail (slower start, but catches torn writes).
    shard_timeout:
        Watchdog seconds per shard attempt (worker processes only);
        None disables the watchdog.
    retry_policy:
        :class:`~repro.campaign.supervisor.RetryPolicy` governing
        backoff and quarantine; None uses the defaults.
    chaos:
        Optional :class:`~repro.campaign.chaos.ChaosConfig` injecting
        seeded faults into every shard attempt (tests/CI only).
    """

    def __init__(
        self,
        directory: str,
        spec: CampaignSpec,
        workers: Optional[int] = None,
        reporter: Optional[CampaignReporter] = None,
        verify_resume: bool = True,
        shard_timeout: Optional[float] = None,
        retry_policy: Optional[RetryPolicy] = None,
        chaos: Optional[ChaosConfig] = None,
    ):
        self.directory = str(directory)
        self.spec = spec
        self.workers = default_workers(workers)
        self.reporter = reporter or NullReporter()
        self.verify_resume = verify_resume
        self.shard_timeout = shard_timeout
        self.retry_policy = retry_policy or RetryPolicy()
        self.chaos = chaos
        self.failure_log = FailureLog(self.directory)
        self.quarantine = Quarantine(self.directory)
        #: "clean" or "degraded" after :meth:`run`; None before.
        self.outcome: Optional[str] = None

    # ------------------------------------------------------------------

    def plan(self) -> tuple:
        """(store, pending shard indices) after manifest reconciliation."""
        store = TraceStore(self.directory)
        store.initialize(self.spec)
        pending = store.missing_shards(verify_digests=self.verify_resume)
        recorded_but_bad = [
            i for i in pending if any(r.index == i for r in store.shard_records)
        ]
        if recorded_but_bad:
            store.forget_shards(recorded_but_bad)
            store.save_manifest()
        return store, pending

    def _absorb(self, store: TraceStore, record: dict) -> ShardRecord:
        """Fold one worker result into the manifest (checkpoint)."""
        record = dict(record)
        del record["artifacts"]
        iteration_slices = [tuple(s) for s in record.pop("iteration_slices")]
        key_bits = list(record.pop("key_bits"))
        if not store.iteration_slices:
            store.iteration_slices = iteration_slices
            store.key_bits = key_bits
        elif (store.iteration_slices != iteration_slices
              or store.key_bits != key_bits):
            raise ScheduleMismatchError(
                "shards disagree on the iteration schedule — the device "
                "is not constant-time, or the spec changed under us",
                shard_index=record.get("index"),
                spec_digest=self.spec.digest(),
                kind=DATA_INTEGRITY,
            )
        shard = ShardRecord.from_dict(record)
        store.record_shard(shard)
        store.save_manifest()
        return shard

    def run(self) -> TraceStore:
        """Acquire every missing, non-quarantined shard.

        Returns the store — complete, or degraded when shards are
        quarantined (check :attr:`outcome` / ``metrics.degraded``;
        ``campaign doctor --clear`` releases quarantined shards for
        the next run).
        """
        started = time.perf_counter()
        obs = obs_runtime.current()
        with contextlib.ExitStack() as stack:
            root_span = None
            if obs is not None:
                # key=0 and no parent: this is the id every shard
                # worker independently derives as its parent.
                root_span = stack.enter_context(obs.tracer.span(
                    "campaign.acquire", key=0,
                    spec=self.spec.digest(),
                    traces=self.spec.n_traces,
                    shards=self.spec.n_shards,
                ))
            with (obs.tracer.span("campaign.plan")
                  if obs is not None else contextlib.nullcontext()):
                store, pending = self.plan()
            spec = self.spec
            held = [i for i in self.quarantine.indices()
                    if i in set(pending)]
            attemptable = [i for i in pending if i not in set(held)]
            metrics = CampaignMetrics(
                total_shards=spec.n_shards,
                total_traces=spec.n_traces,
                skipped_shards=spec.n_shards - len(pending),
                quarantined_shards=list(held),
            )
            self.reporter.on_start(
                spec.n_shards, spec.n_traces, len(attemptable),
                min(self.workers, len(attemptable)) or 1)

            def on_success(record: dict, attempt: int) -> None:
                shard = self._absorb(store, record)
                self._note_shard(store, shard, metrics, started)

            # Looked up per run, not bound at import, so a wrapper
            # patched onto this module is the task that runs.  Run
            # even with nothing attemptable: the run sweeps débris.
            result = ShardSupervisor(
                spec, self.directory, acquire_shard,
                workers=self.workers,
                policy=self.retry_policy,
                chaos=self.chaos,
                shard_timeout=self.shard_timeout,
                on_success=on_success,
                on_event=self._on_failure_event,
            ).run(attemptable)
            metrics.retried_attempts = result.retried_attempts
            metrics.failure_events = result.failure_events
            metrics.quarantined_shards = sorted(
                set(held) | set(result.quarantined)
            )
            metrics.elapsed_seconds = time.perf_counter() - started
            self.metrics = metrics
            self.outcome = ("degraded" if metrics.quarantined_shards
                            else "clean")
            if obs is not None:
                self._record_run_metrics(obs, metrics)
                root_span.set(outcome=self.outcome,
                              acquired=metrics.acquired_shards,
                              quarantined=len(metrics.quarantined_shards))
            self.reporter.on_finish(metrics)
        return store

    def _on_failure_event(self, event) -> None:
        obs = obs_runtime.current()
        if obs is not None:
            obs.registry.counter(
                "repro_campaign_failures_total",
                "failed shard attempts by kind and action",
            ).inc(kind=event.kind, action=event.action)
        self.reporter.on_failure(event)

    def _record_run_metrics(self, obs, metrics: CampaignMetrics) -> None:
        """Fold the run totals into the coordinator (the supervisor
        already merged the shards' snapshots)."""
        registry = obs.registry
        registry.counter(
            "repro_campaign_shards_total", "shards acquired this run",
        ).inc(metrics.acquired_shards)
        registry.counter(
            "repro_campaign_traces_total", "traces acquired this run",
        ).inc(metrics.acquired_traces)
        registry.counter(
            "repro_campaign_retries_total",
            "failed attempts that were retried",
        ).inc(metrics.retried_attempts)
        registry.gauge(
            "repro_campaign_quarantined", "shards quarantined",
        ).set(len(metrics.quarantined_shards))
        registry.gauge(
            "repro_campaign_resumed_shards",
            "shards already on disk when this run started",
        ).set(metrics.skipped_shards)
        walls = registry.histogram(
            "repro_campaign_shard_wall_seconds",
            "per-shard acquisition wall clock",
            buckets=(0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0, 300.0),
        )
        for wall in metrics.shard_walls:
            walls.observe(wall)
        registry.gauge(
            "repro_campaign_rate_traces_per_second",
            "coordinator-side acquisition throughput",
        ).set(metrics.traces_per_second)

    def _note_shard(self, store, shard, metrics, started) -> None:
        metrics.acquired_shards += 1
        metrics.acquired_traces += shard.n_traces
        metrics.shard_walls.append(shard.wall_seconds)
        elapsed = time.perf_counter() - started
        done_shards = metrics.acquired_shards + metrics.skipped_shards
        done_traces = store.n_traces_on_disk
        rate = metrics.acquired_traces / elapsed if elapsed > 0 else 0.0
        remaining = metrics.total_traces - done_traces
        eta = remaining / rate if rate > 0 else float("inf")
        self.reporter.on_shard(ShardEvent(
            index=shard.index,
            n_traces=shard.n_traces,
            wall_seconds=shard.wall_seconds,
            done_shards=done_shards,
            total_shards=metrics.total_shards,
            done_traces=done_traces,
            total_traces=metrics.total_traces,
            elapsed_seconds=elapsed,
            traces_per_second=rate,
            eta_seconds=eta,
        ))
