"""The soak kernel: one fan-out, one fold, one set of files.

Five soak families measure the protocol level — the Peeters–Hermans
availability sweep (:func:`repro.protocols.fleet.run_fleet`), power
cuts (:func:`repro.protocols.fleet.run_power_soak`), epoch-amortized
sessions (:func:`repro.protocols.amortized.run_amortized_soak`), the
identification server (:func:`repro.server.run_soak`) and
battery-depletion floods (:func:`repro.adversary.run_attack_soak`).
Each family keeps only its per-slice or per-cohort simulation, its
rulebook and a totals fold; everything else lives here, once.

Two entry points:

* :func:`fan_out` runs the three **in-memory sweeps**: slices of
  sessions (:func:`session_slices`) in-process or on a process pool,
  results back in job order, so the worker count cannot change a
  digit.  These sweeps stay off the supervisor on purpose: it needs a
  directory (``run_fleet(spec, workers=0)`` has none) and spawns a
  fresh interpreter per attempt, which costs more than a small sweep.
* :func:`run_cohorts` runs the two **supervised cohort soaks** under
  :class:`~repro.campaign.supervisor.ShardSupervisor`: one cohort per
  attempt (:func:`run_cohort_attempt`; as for every supervised task,
  the supervisor applies chaos faults and the obs shard scope around
  it, sweeps the directory's ``.tmp`` débris and merges the cohorts'
  metric snapshots), cohort files folded in cohort order, telemetry
  and alerts folded through the family's rulebook, and one
  ``summary.json``.  Cohort results are pure functions of ``(spec,
  cohort_index)``, so worker count and crash/retry history are
  invisible in every file.

Module-level imports are stdlib only: ``import repro.protocols.fleet``
must not load the campaign engine.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import json
import math
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional, Sequence

__all__ = ["fan_out", "session_slices", "sweep_records", "run_cohorts",
           "run_cohort_attempt", "CohortReport", "arrival_gap",
           "rounded_sum", "write_summary", "SUMMARY_NAME"]

SUMMARY_NAME = "summary.json"
_SCHEMA_VERSION = 1


# ----------------------------------------------------------------------
# in-memory sweeps
# ----------------------------------------------------------------------

def _sweep_workers(workers: Optional[int]) -> int:
    """``None`` means all cores up to 8; 0 or 1 runs in-process."""
    return min(os.cpu_count() or 1, 8) if workers is None else workers


def session_slices(sessions: int,
                   workers: Optional[int] = None) -> List[range]:
    """Consecutive session-index slices, about four per worker, so one
    slow slice does not leave the rest of the pool idle."""
    chunk = max(1, sessions // max(1, _sweep_workers(workers) * 4))
    return [range(start, min(start + chunk, sessions))
            for start in range(0, sessions, chunk)]


def fan_out(task: Callable, jobs: Sequence[tuple],
            workers: Optional[int] = None,
            progress: Optional[Callable] = None) -> list:
    """``[task(*job) for job in jobs]``, in-process or on a pool.

    Results come back in job order whatever order the workers finish
    in; ``progress(done, total)`` is called once per finished job.
    With ``workers`` of 0 or 1, or a single job, everything runs in
    this process — no pool, no pickling — so a caller's patch of the
    task's collaborators stays in effect.
    """
    workers = _sweep_workers(workers)
    results: list = [None] * len(jobs)
    if workers <= 1 or len(jobs) == 1:
        for index, job in enumerate(jobs):
            results[index] = task(*job)
            if progress:
                progress(index + 1, len(jobs))
        return results
    with concurrent.futures.ProcessPoolExecutor(workers) as pool:
        futures = {pool.submit(task, *job): index
                   for index, job in enumerate(jobs)}
        for done, future in enumerate(
                concurrent.futures.as_completed(futures), 1):
            results[futures[future]] = future.result()
            if progress:
                progress(done, len(jobs))
    return results


def sweep_records(task: Callable, spec, workers: Optional[int] = None,
                  progress: Optional[Callable] = None) -> dict:
    """Every session of every ``spec.sweep`` loss rate, fanned out.

    ``task(spec, frame_loss, indices)`` returns one record per index;
    the result maps each loss rate to its records in session order.
    """
    slices = session_slices(spec.sessions, workers)
    jobs = [(spec, loss, indices) for loss in spec.sweep
            for indices in slices]
    by_loss: dict = {loss: [] for loss in spec.sweep}
    for (_, loss, _), records in zip(jobs,
                                     fan_out(task, jobs, workers, progress)):
        by_loss[loss].extend(records)
    return by_loss


# ----------------------------------------------------------------------
# supervised cohort soaks: the worker side
# ----------------------------------------------------------------------

def arrival_gap(seed: int, stream: str, index: int, rate: float) -> float:
    """Deterministic exponential-ish gap before session ``index``."""
    from .channel.model import derive_channel_seed

    unit = derive_channel_seed(seed, stream, index, 0, 0) / 2.0 ** 64
    return -math.log(max(unit, 1e-12)) / rate


def run_cohort_attempt(simulate: Callable, spec, directory: str,
                       cohort_index: int) -> dict:
    """One supervised cohort attempt: simulate, write, report.

    ``functools.partial(run_cohort_attempt, simulate)`` is a family's
    supervisor task.  ``simulate(spec, cohort_index)`` returns the
    cohort payload: its aggregates plus ``telemetry`` events and a
    wall-stripped ``metrics`` snapshot, which also goes into the
    attempt's obs runtime when tracing is on.  The cohort file is
    written atomically at the end, so a retry after any crash starts
    clean.
    """
    from .obs import runtime as obs_runtime
    from .obs.metrics import atomic_write_bytes

    name = f"cohort-{cohort_index:05d}.json"
    path = os.path.join(directory, name)
    payload = simulate(spec, cohort_index)
    rt = obs_runtime.current()
    if rt is not None:
        rt.registry.merge_snapshot(payload["metrics"])
    data = json.dumps(payload, indent=1, sort_keys=True).encode()
    atomic_write_bytes(path, data)
    digest = hashlib.sha256(data).hexdigest()
    return {"shard": cohort_index, "file": name, "sha256": digest,
            "artifacts": [(name, digest)]}


# ----------------------------------------------------------------------
# supervised cohort soaks: the coordinator side
# ----------------------------------------------------------------------

@dataclass
class CohortReport:
    """What every supervised cohort soak reports; a family's report
    subclasses it with the fields of its totals fold."""

    outcome: str = "clean"         # clean | degraded
    spec_digest: str = ""
    directory: str = ""
    cohorts_total: int = 0
    cohorts_completed: int = 0
    quarantined: List[int] = field(default_factory=list)
    retried_attempts: int = 0
    alert_firings: int = 0
    session_uj_p99: Optional[float] = None
    summary_path: str = ""
    wall_s: float = 0.0

    def cohorts_line(self) -> str:
        return (f"  cohorts   {self.cohorts_completed}/{self.cohorts_total}"
                + (f"  (quarantined: "
                   f"{', '.join(map(str, self.quarantined))})"
                   if self.quarantined else ""))

    def run_lines(self) -> List[str]:
        """Telemetry, retries, wall time and summary path."""
        p99 = "-" if self.session_uj_p99 is None \
            else f"{self.session_uj_p99:.1f} uJ"
        return [
            f"  telemetry {self.alert_firings} alert firing(s), "
            f"session p99 {p99}",
            f"  retries   {self.retried_attempts} worker attempts "
            f"beyond the first",
            f"  wall      {self.wall_s:.1f} s",
            f"  summary   {self.summary_path}",
        ]


def rounded_sum(values: Iterable[float]) -> float:
    """Left-to-right sum rounded to 1e-6 at every step — the cohort-order
    energy fold every summary total uses."""
    total = 0.0
    for value in values:
        total = round(total + value, 6)
    return total


def write_summary(directory, payload: dict) -> str:
    """Atomically write ``<directory>/summary.json`` (sorted keys)."""
    from .obs.metrics import atomic_write_bytes

    path = os.path.join(str(directory), SUMMARY_NAME)
    atomic_write_bytes(
        path, json.dumps(payload, indent=1, sort_keys=True).encode())
    return path


def run_cohorts(directory, spec, task: Callable, fold: Callable, rules,
                report: Callable, *, workers: Optional[int] = None,
                chaos=None, policy=None, on_event=None) -> CohortReport:
    """Drive every cohort of ``spec`` under supervision; write the soak.

    ``task`` is the family's :func:`run_cohort_attempt` partial;
    ``fold(cohorts)`` turns the completed cohort aggregates, in cohort
    order, into the summary's ``totals``; ``rules`` is the alert
    rulebook; ``report(**fields)`` builds the family's
    :class:`CohortReport` from the shared fields plus the totals.

    ``summary.json`` is a pure function of the spec — cohort
    aggregates in cohort order, metric snapshots merged in cohort
    order, wall-clock families stripped — and the telemetry/alerts
    fold order is total, so all three files ``cmp`` equal across
    worker counts and chaos crash histories.
    """
    from .campaign.acquire import default_workers
    from .campaign.supervisor import ShardSupervisor
    from .obs.alerts import ALERTS_NAME, write_alert_log
    from .obs.metrics import MetricRegistry, strip_wall_metrics
    from .obs.stream import TELEMETRY_NAME, run_pipeline, write_telemetry

    started = time.monotonic()
    directory = str(directory)
    os.makedirs(directory, exist_ok=True)
    files: dict = {}
    outcome = ShardSupervisor(
        spec, directory, task, workers=default_workers(workers),
        policy=policy, chaos=chaos, on_event=on_event,
        on_success=lambda record, attempt: files.__setitem__(
            record["shard"], record["file"]),
    ).run(list(range(spec.cohorts)))
    quarantined = sorted(outcome.quarantined)

    merged = MetricRegistry()
    cohorts, events = [], []
    for index in sorted(files):
        with open(os.path.join(directory, files[index]), "r",
                  encoding="utf-8") as f:
            payload = json.load(f)
        merged.merge_snapshot(payload.pop("metrics"))
        events.extend(payload.pop("telemetry", ()))
        cohorts.append(payload)
    totals = fold(cohorts)

    live, alert_records = run_pipeline(events, rules,
                                       window_s=rules[0].window_s)
    write_telemetry(os.path.join(directory, TELEMETRY_NAME), live)
    alert_log = write_alert_log(os.path.join(directory, ALERTS_NAME),
                                rules, alert_records)
    session_uj = live["series"].get("session_uj", {})
    state = "degraded" if quarantined else "clean"
    summary_path = write_summary(directory, {
        "schema_version": _SCHEMA_VERSION,
        "spec": spec.identity_dict(),
        "spec_digest": spec.digest(),
        "outcome": state,
        "quarantined": quarantined,
        "cohorts": cohorts,
        "totals": totals,
        "telemetry": {
            "events": live["events"],
            "session_uj": {key: session_uj.get(key)
                           for key in ("count", "p50", "p95", "p99",
                                       "max")},
            "alerts": {"firings": alert_log["firings"],
                       "by_rule": alert_log["firings_by_rule"]},
        },
        "metrics": strip_wall_metrics(merged.snapshot()),
    })
    return report(
        outcome=state, spec_digest=spec.digest(), directory=directory,
        cohorts_total=spec.cohorts, cohorts_completed=len(files),
        quarantined=quarantined, retried_attempts=outcome.retried_attempts,
        alert_firings=alert_log["firings"],
        session_uj_p99=session_uj.get("p99"), summary_path=summary_path,
        wall_s=time.monotonic() - started, **totals)
