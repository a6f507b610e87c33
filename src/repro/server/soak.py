"""Fleet-scale soak runs: cohorts of sessions under supervision.

A soak drives many thousands of sessions against one enrolled fleet
and must produce the same summary — byte for byte — whether it ran on
one worker or eight, with or without chaos faults killing workers.
The trick is the unit of parallelism: a **cohort** is a block of
consecutive session indices simulated *whole* by one worker on its own
virtual-time loop.  Cohort results are pure functions of
``(spec, cohort_index)``, workers never share a simulation, and the
summary is assembled in cohort order — so scheduling, worker count
and crash/retry history are invisible in the output.

Supervision, chaos, the cohort files and the summary come from the
soak kernel's :func:`repro.soak.run_cohorts`: a chaos-killed worker
(``os._exit`` before the cohort runs) is a transient failure, the
cohort is retried from scratch (determinism makes the retry
byte-identical), and a cohort that keeps failing is quarantined — the
soak degrades loudly instead of hanging.  This module keeps the cohort
simulation, the fleet rulebook and the totals fold.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..channel import LossProfile, derive_channel_seed
from ..jsonspec import JsonSpec
from ..obs.alerts import default_rulebook
from ..obs.metrics import MetricRegistry, strip_wall_metrics
from ..obs.stream import make_event, spread_drain_events
from ..soak import (SUMMARY_NAME, CohortReport, arrival_gap, rounded_sum,
                    run_cohort_attempt, run_cohorts)
from .enrollment import EnrollmentStore
from .errors import (AdmissionRejectedError, ReplayQuarantinedError,
                     ServerError, SourceThrottledError)
from .reader import IdentificationServer, ServerConfig
from .simloop import SimLoop

__all__ = ["SoakSpec", "SoakReport", "run_soak", "run_cohort",
           "simulate_cohort", "soak_rulebook", "SUMMARY_NAME",
           "SESSION_OUTCOMES"]

_SCHEMA_VERSION = 1

#: The full enumeration of session outcomes a soak can observe.  The
#: summary zero-fills every bucket so "no attacks seen" and "attacks
#: not counted" are distinguishable at a glance.
SESSION_OUTCOMES = ("accepted", "rejected", "aborted", "deadline",
                    "adversarial", "budget_exhausted")


@dataclass(frozen=True)
class SoakSpec(JsonSpec):
    """Everything that determines a soak's results.

    ``store_dir`` is where the fleet lives — an environment fact, not
    an identity fact — so it is *excluded* from :meth:`digest`; the
    fleet itself is bound by ``enrollment_digest``.  Two soaks of the
    same spec against copies of the same fleet in different
    directories produce byte-identical summaries.
    """

    enrollment_digest: str
    store_dir: str
    sessions: int = 200            # per cohort
    cohorts: int = 4
    arrival_rate: float = 2000.0   # arrivals per virtual second
    frame_loss: float = 0.1
    seed: int = 0
    capacity: int = 256
    admission_queue: int = 64
    session_deadline_s: float = 2.0
    search_mode: str = "cached"
    distance_m: float = 0.5
    adversarial_fraction: float = 0.0
    throttle_limit: int = 0
    replay_quarantine: bool = False
    tag_budget_uj: float = 0.0
    schema_version: int = _SCHEMA_VERSION

    def __post_init__(self):
        if self.sessions < 1 or self.cohorts < 1:
            raise ValueError("need at least one session and one cohort")
        if self.arrival_rate <= 0:
            raise ValueError("arrival rate must be positive")
        if not 0.0 <= self.adversarial_fraction <= 1.0:
            raise ValueError("adversarial fraction must be in [0, 1]")
        if self.throttle_limit < 0:
            raise ValueError("throttle limit must be non-negative")
        if self.tag_budget_uj < 0:
            raise ValueError("tag budget must be non-negative")

    def identity_dict(self) -> dict:
        """The digest's view: the spec minus environment facts."""
        identity = self.to_dict()
        del identity["store_dir"]
        return identity

    def server_config(self) -> ServerConfig:
        return ServerConfig(
            capacity=self.capacity,
            admission_queue=self.admission_queue,
            session_deadline_s=self.session_deadline_s,
            search_mode=self.search_mode,
            distance_m=self.distance_m,
            source_session_limit=self.throttle_limit,
            replay_quarantine=self.replay_quarantine,
            tag_budget_uj=self.tag_budget_uj,
        )

    def is_adversarial(self, index: int) -> bool:
        """Ground truth for global session ``index`` — a pure function
        of (seed, index), so cohort splits cannot move it."""
        if self.adversarial_fraction <= 0.0:
            return False
        draw = derive_channel_seed(self.seed, "server/adversarial",
                                   index, 0, 0) / 2.0 ** 64
        return draw < self.adversarial_fraction

    def source_for(self, index: int) -> str:
        """Arrival source identity: malicious readers cluster behind a
        handful of identities (what throttling and quarantine key on);
        honest tags arrive from distinct ones."""
        if self.is_adversarial(index):
            return f"adv-{index % 4}"
        return f"tag-{index}"


# ----------------------------------------------------------------------
# one cohort = one independent simulation
# ----------------------------------------------------------------------

def _check_fleet(spec: SoakSpec, verify: bool) -> EnrollmentStore:
    store = EnrollmentStore(spec.store_dir, verify=verify)
    if store.spec.digest() != spec.enrollment_digest:
        raise ServerError(
            f"store at {spec.store_dir} holds fleet "
            f"{store.spec.digest()[:12]}..., soak spec wants "
            f"{spec.enrollment_digest[:12]}..."
        )
    return store


def simulate_cohort(spec: SoakSpec, cohort_index: int, *,
                    registry: Optional[MetricRegistry] = None) -> dict:
    """Run one cohort on a fresh loop; returns its aggregates+metrics.

    ``registry`` lets a caller watch the metrics live (the CLI's
    ``server run`` serves it over HTTP mid-flight).
    """
    store = _check_fleet(spec, verify=False)
    loop = SimLoop()
    registry = registry if registry is not None else MetricRegistry()
    server = IdentificationServer(
        loop, store, spec.server_config(), seed=spec.seed,
        profile=LossProfile(frame_loss=spec.frame_loss),
        registry=registry)
    base = cohort_index * spec.sessions
    source = f"cohort-{cohort_index:05d}"

    async def drive() -> List:
        server.start()
        futures = []
        submit_vts = {}
        shed_indices = []
        shed_events = []
        shed_reasons = {"overload": 0, "throttled": 0,
                        "quarantined": 0}
        for i in range(spec.sessions):
            index = base + i
            if i:
                await loop.sleep(arrival_gap(spec.seed, "server/arrival",
                                             index, spec.arrival_rate))
            try:
                submit_vts[index] = loop.now
                futures.append(server.submit(
                    index, source=spec.source_for(index),
                    adversarial=spec.is_adversarial(index)))
            except ReplayQuarantinedError:
                shed_indices.append(index)
                shed_reasons["quarantined"] += 1
                shed_events.append(make_event(loop.now, source, index,
                                              shed=1))
            except SourceThrottledError:
                shed_indices.append(index)
                shed_reasons["throttled"] += 1
                shed_events.append(make_event(loop.now, source, index,
                                              shed=1))
            except AdmissionRejectedError:
                shed_indices.append(index)
                shed_reasons["overload"] += 1
                shed_events.append(make_event(loop.now, source, index,
                                              shed=1))
        outcomes = [await future for future in futures]
        await server.close()
        return outcomes, submit_vts, shed_events, shed_indices, \
            shed_reasons

    outcomes, submit_vts, shed_events, shed_indices, shed_reasons = \
        loop.run_until_complete(drive())

    # One telemetry event per concluded session (plus the battery's
    # pro-rated per-window drain view) and one per shed arrival;
    # events are pure functions of (spec, cohort_index).
    telemetry = list(shed_events)
    for outcome in outcomes:
        vt = submit_vts[outcome.index]
        telemetry.append(make_event(
            vt, source, outcome.index,
            session_uj=outcome.tag_energy_uj))
        telemetry.extend(spread_drain_events(
            vt, source, outcome.index, outcome.tag_energy_uj,
            outcome.elapsed_s))

    by_outcome: Dict[str, int] = {k: 0 for k in SESSION_OUTCOMES}
    totals = {
        "epochs": 0, "frames": 0, "retransmissions": 0,
        "records_scanned": 0, "correct": 0,
    }
    tag_uj = reader_uj = 0.0
    for outcome in outcomes:
        if outcome.outcome not in by_outcome:
            raise ServerError(
                f"outcome {outcome.outcome!r} missing from "
                f"SESSION_OUTCOMES — every bucket must be enumerated",
                session_index=outcome.index)
        by_outcome[outcome.outcome] += 1
        totals["epochs"] += outcome.epochs_used
        totals["frames"] += outcome.frames_sent
        totals["retransmissions"] += outcome.retransmissions
        totals["records_scanned"] += outcome.records_scanned
        if outcome.identified_correctly:
            totals["correct"] += 1
        tag_uj += outcome.tag_energy_uj
        reader_uj += outcome.reader_energy_uj

    return {
        "cohort": cohort_index,
        "sessions": spec.sessions,
        "first_index": base,
        "outcomes": {k: by_outcome[k] for k in sorted(by_outcome)},
        "shed": len(shed_indices),
        "shed_reasons": {k: shed_reasons[k]
                         for k in sorted(shed_reasons)},
        "quarantined_sources": sorted(server.quarantined_sources),
        "admitted": server.admitted,
        "peak_in_flight": server.peak_in_flight,
        "epochs": totals["epochs"],
        "frames": totals["frames"],
        "retransmissions": totals["retransmissions"],
        "records_scanned": totals["records_scanned"],
        "correct": totals["correct"],
        "tag_energy_uj": round(tag_uj, 6),
        "reader_energy_uj": round(reader_uj, 6),
        "scheduler": {
            "requests": server.scheduler.requests_total,
            "batches": server.scheduler.batches_total,
        },
        "telemetry": telemetry,
        "metrics": strip_wall_metrics(registry.snapshot()),
    }


#: The supervised worker task: one cohort attempt of this family.
run_cohort = functools.partial(run_cohort_attempt, simulate_cohort)


#: The fleet soak's p99 alert line, in µJ.  A private-identification
#: session costs more than the attack lab's handshake — the tag walks
#: the full response ladder while the reader scans records — and the
#: soak's configured ``frame_loss`` stretches honest retransmission
#: tails further: measured honest p99 runs 111–230 µJ across seeds at
#: 10–25 % loss, against the ~324 µJ median an amplification-class
#: flood drags per session.  260 sits above every measured honest
#: tail and below flood drag; lossier channels than 25 % are outside
#: the calibrated envelope.
FLEET_P99_UJ = 260.0


def soak_rulebook(spec: SoakSpec):
    """The fleet soak's alert rulebook: the stock book with the p99
    line resized for the identification workload (see
    :data:`FLEET_P99_UJ`); everything else keeps the lab calibration
    from :func:`repro.obs.alerts.default_rulebook`."""
    return default_rulebook(p99_uj=FLEET_P99_UJ)


# ----------------------------------------------------------------------
# the coordinator
# ----------------------------------------------------------------------

def _soak_totals(cohorts: List[dict]) -> dict:
    """The summary's ``totals``: cohort aggregates in cohort order."""
    def outcomes(key):
        return sum(c["outcomes"].get(key, 0) for c in cohorts)

    def shed(reason):
        return sum(c.get("shed_reasons", {}).get(reason, 0) for c in cohorts)

    return {
        "sessions": sum(c["sessions"] for c in cohorts),
        "accepted": outcomes("accepted"),
        "shed": sum(c["shed"] for c in cohorts),
        "deadline": outcomes("deadline"),
        "adversarial": outcomes("adversarial"),
        "budget_exhausted": outcomes("budget_exhausted"),
        "throttled": shed("throttled"),
        "shed_quarantined": shed("quarantined"),
        "correct": sum(c["correct"] for c in cohorts),
        "peak_in_flight": max((c["peak_in_flight"] for c in cohorts),
                              default=0),
        "tag_energy_uj": rounded_sum(c["tag_energy_uj"] for c in cohorts),
        "reader_energy_uj": rounded_sum(c["reader_energy_uj"]
                                        for c in cohorts),
    }


@dataclass
class SoakReport(CohortReport):
    """What one soak accomplished, plus where the summary lives."""

    sessions: int = 0
    accepted: int = 0
    shed: int = 0
    deadline: int = 0
    adversarial: int = 0
    budget_exhausted: int = 0
    throttled: int = 0
    shed_quarantined: int = 0
    correct: int = 0
    peak_in_flight: int = 0
    tag_energy_uj: float = 0.0
    reader_energy_uj: float = 0.0

    @property
    def acceptance_rate(self) -> float:
        return self.accepted / self.sessions if self.sessions else 0.0

    def text(self) -> str:
        lines = [
            f"soak {self.spec_digest[:12]}: {self.outcome}",
            self.cohorts_line(),
            f"  sessions  {self.sessions}  accepted {self.accepted} "
            f"({self.acceptance_rate:.1%})  shed {self.shed}  "
            f"deadline {self.deadline}",
            f"  attacked  adversarial {self.adversarial}  "
            f"budget_exhausted {self.budget_exhausted}  "
            f"throttled {self.throttled}  "
            f"quarantined-arrivals {self.shed_quarantined}",
            f"  correct   {self.correct}/{self.accepted} accepted "
            f"identifications named the canonical tag",
            f"  peak      {self.peak_in_flight} concurrent sessions "
            f"(per cohort)",
            f"  energy    tag {self.tag_energy_uj:.1f} uJ, "
            f"reader {self.reader_energy_uj:.1f} uJ",
        ]
        return "\n".join(lines + self.run_lines())


def run_soak(directory: str, spec: SoakSpec, *,
             workers: Optional[int] = None,
             chaos=None,
             policy=None,
             on_event=None) -> SoakReport:
    """Drive every cohort under supervision and write ``summary.json``
    (plus ``telemetry.json`` and ``alerts.json``) through
    :func:`repro.soak.run_cohorts`; ``cmp`` two summaries from
    different worker counts and they match."""
    # Fail fast on a wrong or corrupt fleet before spawning workers.
    _check_fleet(spec, verify=True)
    return run_cohorts(directory, spec, run_cohort, _soak_totals,
                       soak_rulebook(spec), SoakReport, workers=workers,
                       chaos=chaos, policy=policy, on_event=on_event)
