"""Fleet execution of resilient sessions across a loss-rate sweep.

The availability experiment the session layer exists for: run
thousands of independently-seeded sessions at each point of a
frame-loss sweep and report, per loss rate,

* availability — the fraction of sessions that eventually identified,
* the retry bill — epochs, frames and retransmissions consumed,
* the energy bill — mean initiator µJ per identification and what the
  overhead does to the pacemaker's security-budget lifetime.

Sessions are embarrassingly parallel (every session derives its keys,
nonces and channel behaviour from ``(seed, session_index)`` alone), so
the fleet fans out through the soak kernel's :func:`repro.soak.fan_out`
in slices of sessions, and the aggregate is order-independent: results
come back in job order, so worker scheduling cannot change a single
reported digit.  The power soak below fans out the same way.
"""

from __future__ import annotations

import contextlib
import hashlib
from dataclasses import dataclass, field as dataclass_field
from typing import List, Optional, Sequence, Tuple

from typing import TYPE_CHECKING

from ..channel import LossProfile, loss_percent
from ..jsonspec import JsonSpec
from ..obs import runtime as _obs_runtime
from ..soak import fan_out, session_slices, sweep_records

if TYPE_CHECKING:  # lazy at runtime to avoid the energy <-> protocols
    # import cycle (repro.energy.comparison imports repro.protocols.ops)
    from ..energy.budget import DeviceBudget
from .session import (
    PROTOCOL_NAMES,
    RetransmissionPolicy,
    make_adapter,
    run_resilient_session,
)

__all__ = ["FleetSpec", "SessionRecord", "SweepPoint", "FleetReport",
           "run_fleet", "DEFAULT_SWEEP", "PowerSoakSpec",
           "PowerSessionRecord", "PowerSoakReport", "run_power_soak"]

#: Frame-loss points of the default sweep (0–20%, the ISSUE's range).
DEFAULT_SWEEP: Tuple[float, ...] = (0.0, 0.05, 0.10, 0.20)


def validate_sweep(sweep: Sequence[float]) -> None:
    """A sweep is one or more distinct loss rates in [0, 1): results
    are keyed by loss rate, so a repeated rate would be run and counted
    twice.  Exported series are labelled ``f"{loss:g}"``, so two rates
    with the same label (0.1 and 0.1000001) are refused as well."""
    if not sweep:
        raise ValueError("sweep needs at least one loss rate")
    for loss in sweep:
        if not 0.0 <= loss < 1.0:
            raise ValueError(f"loss rate {loss} outside [0, 1)")
    if len(set(sweep)) != len(sweep):
        raise ValueError(f"sweep repeats a loss rate: {tuple(sweep)}")
    labelled: dict = {}
    for loss in sweep:
        other = labelled.setdefault(f"{loss:g}", loss)
        if other != loss:
            raise ValueError(f"loss rates {other!r} and {loss!r} share "
                             f"the label {loss:g}; make them differ "
                             "within six significant digits")


@dataclass(frozen=True)
class FleetSpec(JsonSpec):
    """Everything a fleet run depends on (and nothing else).

    The spec is the unit of reproducibility: two runs of the same spec
    produce identical reports, whatever the worker count.  Its
    :meth:`digest` stamps soak manifests and trace ids.
    """

    protocol: str = "peeters-hermans"
    curve: str = "TOY-B17"
    sessions: int = 200
    seed: int = 2013
    sweep: Tuple[float, ...] = DEFAULT_SWEEP
    duplicate_rate: float = 0.02
    reorder_rate: float = 0.02
    distance_m: float = 0.5
    max_epochs: int = 12
    round_deadline_s: float = 0.08
    operations_per_day: float = 24.0

    _digest_chars = 16

    def __post_init__(self):
        if self.protocol not in PROTOCOL_NAMES:
            raise ValueError(f"unknown protocol {self.protocol!r} "
                             f"(know {', '.join(PROTOCOL_NAMES)})")
        if self.sessions < 1:
            raise ValueError("need at least one session")
        validate_sweep(self.sweep)

    def profile(self, frame_loss: float) -> LossProfile:
        """The channel at one sweep point, BER tied to the distance."""
        from ..energy.radio import RadioModel

        return LossProfile.from_radio(
            RadioModel(), self.distance_m, frame_loss=frame_loss,
            duplicate_rate=self.duplicate_rate,
            reorder_rate=self.reorder_rate,
        )

    def policy(self) -> RetransmissionPolicy:
        return RetransmissionPolicy(max_epochs=self.max_epochs,
                                    round_deadline_s=self.round_deadline_s)


@dataclass(frozen=True)
class SessionRecord:
    """The light per-session record a worker ships back."""

    session_index: int
    accepted: bool
    completed: bool
    aborted_phase: Optional[str]
    rounds_completed: int
    epochs_used: int
    frames_sent: int
    retransmissions: int
    corrupt_rejections: int
    stale_rejections: int
    replay_rejections: int
    elapsed_s: float
    initiator_uj: float
    responder_uj: float
    transcript_digest: str


@dataclass
class SweepPoint:
    """Aggregated outcome of every session at one loss rate."""

    frame_loss: float
    profile: LossProfile
    records: List[SessionRecord] = dataclass_field(default_factory=list)

    @property
    def sessions(self) -> int:
        return len(self.records)

    @property
    def successes(self) -> int:
        return sum(1 for r in self.records if r.accepted)

    @property
    def availability(self) -> float:
        return self.successes / self.sessions if self.records else 0.0

    @property
    def mean_epochs(self) -> float:
        return sum(r.epochs_used for r in self.records) / self.sessions

    @property
    def mean_frames(self) -> float:
        return sum(r.frames_sent for r in self.records) / self.sessions

    @property
    def total_retransmissions(self) -> int:
        return sum(r.retransmissions for r in self.records)

    @property
    def mean_initiator_uj(self) -> float:
        return sum(r.initiator_uj for r in self.records) / self.sessions

    def lifetime_years(self, spec: FleetSpec,
                       budget: "Optional[DeviceBudget]" = None) -> float:
        """Security-budget lifetime at this loss rate's mean session cost."""
        from ..energy.budget import PACEMAKER_BUDGET

        budget = budget or PACEMAKER_BUDGET
        mean_j = self.mean_initiator_uj * 1e-6
        if mean_j <= 0:
            return float("inf")
        return budget.lifetime_years_at(spec.operations_per_day, mean_j)

    def digest(self) -> str:
        """Order-independent digest over every session transcript."""
        h = hashlib.sha256()
        for record in sorted(self.records, key=lambda r: r.session_index):
            h.update(f"{record.session_index}:".encode())
            h.update(record.transcript_digest.encode())
        return h.hexdigest()


@dataclass
class FleetReport:
    """The full sweep, plus the derived verdict."""

    spec: FleetSpec
    points: List[SweepPoint]

    @property
    def fully_available(self) -> bool:
        """Did every session at every loss rate eventually identify?"""
        return all(p.availability == 1.0 for p in self.points)

    @property
    def energy_monotone(self) -> bool:
        """Does mean initiator energy rise with the loss rate?"""
        means = [p.mean_initiator_uj
                 for p in sorted(self.points, key=lambda p: p.frame_loss)]
        return all(b > a for a, b in zip(means, means[1:]))

    def summary(self) -> str:
        """Render the sweep table from this report's own figures.

        Every column is a :class:`SweepPoint` property and the energy
        verdict is :attr:`energy_monotone`, so the table, the verdict
        and the CLI's exit code read one computation.
        :func:`repro.obs.integration.record_fleet_report` exports the
        same records as the ``repro_fleet_*`` families of a traced run.
        """
        spec = self.spec
        lines = [
            f"protocol {spec.protocol} on {spec.curve}, "
            f"{spec.sessions} sessions per point, seed {spec.seed}, "
            f"distance {spec.distance_m} m",
            f"{'loss':>6} {'avail':>8} {'epochs':>7} {'frames':>7} "
            f"{'retx':>6} {'uJ/session':>11} {'life(y)':>8}",
        ]
        degraded = []
        for point in sorted(self.points, key=lambda p: p.frame_loss):
            lines.append(
                f"{loss_percent(point.frame_loss):>6} "
                f"{point.availability:>8.2%} "
                f"{point.mean_epochs:>7.2f} "
                f"{point.mean_frames:>7.2f} "
                f"{point.total_retransmissions:>6d} "
                f"{point.mean_initiator_uj:>11.2f} "
                f"{point.lifetime_years(spec):>8.1f}"
            )
            if point.availability < 1.0:
                degraded.append(f"{point.successes}/{point.sessions} "
                                f"at {loss_percent(point.frame_loss)}")
        verdict = ["availability: " + (
            "100% at every loss rate" if not degraded else
            "DEGRADED — " + ", ".join(degraded))]
        verdict.append("energy vs loss: " + (
            "strictly increasing (reliability is paid in uJ)"
            if self.energy_monotone else "NOT monotone"))
        return "\n".join(lines + verdict)


def _run_slice(spec: FleetSpec, frame_loss: float,
               indices: Sequence[int]) -> List[SessionRecord]:
    """Worker entry: run a slice of sessions at one sweep point.

    Top-level so it pickles; builds everything it needs from the spec
    (workers share no state).
    """
    from ..ec.curves import get_curve
    from ..energy.comparison import ComputeEnergyTable

    domain = None if spec.protocol == "mutual-auth" \
        else get_curve(spec.curve)
    profile = spec.profile(frame_loss)
    policy = spec.policy()
    records = []
    for index in indices:
        adapter = make_adapter(spec.protocol, domain, seed=spec.seed,
                               session_index=index)
        result = run_resilient_session(
            adapter, profile, policy, seed=spec.seed ^ _loss_salt(frame_loss),
            session_index=index, distance_m=spec.distance_m,
            table=ComputeEnergyTable(),
        )
        records.append(SessionRecord(
            session_index=index,
            accepted=result.accepted,
            completed=result.completed,
            aborted_phase=result.aborted_phase,
            rounds_completed=result.rounds_completed,
            epochs_used=result.epochs_used,
            frames_sent=result.frames_sent,
            retransmissions=result.retransmissions,
            corrupt_rejections=result.corrupt_rejections,
            stale_rejections=result.stale_rejections,
            replay_rejections=result.replay_rejections,
            elapsed_s=result.elapsed_s,
            initiator_uj=result.initiator_energy.total_j * 1e6,
            responder_uj=result.responder_energy.total_j * 1e6,
            transcript_digest=result.transcript_digest,
        ))
    return records


def _loss_salt(frame_loss: float) -> int:
    """A stable per-sweep-point salt so points are independent streams."""
    digest = hashlib.sha256(f"fleet-loss/{frame_loss!r}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


# ----------------------------------------------------------------------
# the power soak: a fleet of sessions under seeded power-cut schedules
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PowerSoakSpec(JsonSpec):
    """A fleet of intermittent-power sessions, each under its own
    seeded cut schedule.

    ``seed`` drives the protocol (keys, nonces, Z randomization);
    ``cut_seed`` drives the cut placements — two independent streams,
    so the same fleet can be soaked under many different outage
    patterns and the *outcomes* compared byte for byte.
    """

    curve: str = "TOY-B17"
    sessions: int = 50
    seed: int = 2013
    cut_seed: int = 1
    cuts: int = 3
    mean_on_cycles: int = 8_000
    checkpoint_interval: int = 8
    randomize_z: bool = True
    max_power_cycles: int = 64

    _digest_chars = 16

    def __post_init__(self):
        if self.sessions < 1:
            raise ValueError("need at least one session")
        if self.cuts < 0:
            raise ValueError("cut count must be non-negative")
        if self.mean_on_cycles < 1:
            raise ValueError("mean on-window must be at least one cycle")

    def intermittent_spec(self):
        from ..intermittent import IntermittentSpec

        return IntermittentSpec(
            curve=self.curve, seed=self.seed,
            checkpoint_interval=self.checkpoint_interval,
            randomize_z=self.randomize_z,
            max_power_cycles=self.max_power_cycles,
        )

    def schedule(self, session_index: int):
        from ..intermittent import PowerCutSchedule

        if self.cuts == 0:
            return PowerCutSchedule()
        return PowerCutSchedule.seeded(
            self.cut_seed, session_index, self.cuts,
            mean_on_cycles=self.mean_on_cycles)


@dataclass(frozen=True)
class PowerSessionRecord:
    """The light per-session record a power-soak worker ships back.

    Field names match :class:`~repro.intermittent.IntermittentResult`
    where they overlap, so
    :func:`~repro.obs.integration.record_intermittent_result` folds
    either shape into the registry.
    """

    session_index: int
    completed: bool
    accepted: bool
    identity: Optional[int]
    abort_reason: Optional[str]
    power_cycles: int
    checkpoints_committed: int
    torn_discards: int
    steps_executed: int
    steps_wasted: int
    checkpoint_uj: float
    compute_uj: float
    radio_uj: float
    outcome_digest: str
    #: on-the-wire nonce reuses (see
    #: :func:`repro.intermittent.count_nonce_reuse`) —
    #: placement-invariant, zero while the vault invariant holds.
    nonce_reuse: int = 0

    @property
    def total_uj(self) -> float:
        return self.checkpoint_uj + self.compute_uj + self.radio_uj


@dataclass
class PowerSoakReport:
    """Every session's outcome under its cut schedule."""

    spec: PowerSoakSpec
    records: List[PowerSessionRecord]

    @property
    def sessions(self) -> int:
        return len(self.records)

    @property
    def completed(self) -> int:
        return sum(1 for r in self.records if r.completed)

    @property
    def accepted(self) -> int:
        return sum(1 for r in self.records if r.accepted)

    @property
    def all_clean(self) -> bool:
        """Every session completed, or aborted with a typed reason —
        nothing crashed, nothing corrupted."""
        return all(r.completed or r.abort_reason for r in self.records)

    @property
    def total_power_cycles(self) -> int:
        return sum(r.power_cycles for r in self.records)

    @property
    def total_torn_discards(self) -> int:
        return sum(r.torn_discards for r in self.records)

    @property
    def total_nonce_reuse(self) -> int:
        return sum(r.nonce_reuse for r in self.records)

    def telemetry_events(self) -> List[dict]:
        """Ordered telemetry: one event per session on the ordinal
        virtual clock (sessions are independent simulations, so the
        session ordinal is the fleet's only shared timeline)."""
        from ..obs.stream import make_event

        return [make_event(float(r.session_index), "power",
                           r.session_index,
                           session_uj=r.total_uj,
                           nonce_reuse=r.nonce_reuse)
                for r in sorted(self.records,
                                key=lambda r: r.session_index)]

    def alert_records(self) -> List[dict]:
        """The stock *invariant* rules evaluated over the soak stream.

        Only placement-invariant series participate in the verdict
        (``nonce_reuse``; energy figures legitimately vary with where
        the cuts land), so the log — like :meth:`summary_payload` — is
        byte-identical across cut seeds and worker counts.
        """
        from ..obs.alerts import AlertEngine, default_rulebook

        rules = tuple(rule for rule in default_rulebook()
                      if rule.kind == "invariant")
        engine = AlertEngine(rules)
        for event in self.telemetry_events():
            engine.observe(event)
        return engine.finalize()

    def outcome_digest(self) -> str:
        """Order-independent digest over every session's outcome."""
        h = hashlib.sha256()
        for record in sorted(self.records, key=lambda r: r.session_index):
            h.update(f"{record.session_index}:".encode())
            h.update(record.outcome_digest.encode())
        return h.hexdigest()

    def summary_payload(self) -> dict:
        """The ``summary.json`` body: *placement-invariant* facts only.

        Per-session outcome digests and their combination — never
        energy, cycle or power-cut figures, which legitimately vary
        with where the cuts land.  CI asserts this payload is
        byte-identical across worker counts *and* across cut seeds
        whose schedules allow every session to complete.
        """
        return {
            "curve": self.spec.curve,
            "protocol_seed": self.spec.seed,
            "sessions": self.sessions,
            "completed": self.completed,
            "accepted": self.accepted,
            "identities": [r.identity
                           for r in sorted(self.records,
                                           key=lambda r: r.session_index)],
            "outcomes": {str(r.session_index): r.outcome_digest
                         for r in sorted(self.records,
                                         key=lambda r: r.session_index)},
            "outcome_digest": self.outcome_digest(),
            "nonce_reuse": self.total_nonce_reuse,
            "alert_firings": len([r for r in self.alert_records()
                                  if r["state"] == "firing"]),
        }

    def summary(self) -> str:
        """Render the soak table from this report's records and totals
        (the same one-computation rule as :meth:`FleetReport.summary`;
        :func:`repro.obs.integration.record_intermittent_result`
        exports the records as the ``repro_intermittent_*`` families)."""
        records = self.records
        sessions = self.sessions
        wasted = sum(r.steps_wasted for r in records)
        productive = sum(r.steps_executed - r.steps_wasted
                         for r in records)
        lines = [
            f"power soak on {self.spec.curve}: {sessions} sessions, "
            f"seed {self.spec.seed}, cut seed {self.spec.cut_seed}, "
            f"{self.spec.cuts} cuts/session around "
            f"{self.spec.mean_on_cycles} cycles",
            f"  completed {self.completed}/{sessions}, "
            f"accepted {self.accepted}/{sessions}",
            f"  power cycles survived: {self.total_power_cycles} "
            f"(torn staged records discarded: {self.total_torn_discards})",
            f"  nonce reuse on the wire: {self.total_nonce_reuse} "
            + ("(invariant held)" if self.total_nonce_reuse == 0
               else "(INVARIANT BROKEN — alert fired)"),
            f"  ladder steps: {productive} productive, "
            f"{wasted} re-executed after cuts",
            f"  energy: {sum(r.total_uj for r in records):.1f} uJ total "
            f"({sum(r.checkpoint_uj for r in records):.1f} uJ on "
            f"checkpoints), worst session "
            f"{max(r.total_uj for r in records):.1f} uJ" if records else
            "  energy: none recorded",
            f"  outcome digest: {self.outcome_digest()[:16]}",
        ]
        verdict = ("every session completed or aborted typed-clean"
                   if self.all_clean else
                   "UNCLEAN — a session died without a typed reason")
        return "\n".join(lines + ["  verdict: " + verdict])


def _run_power_slice(spec: PowerSoakSpec,
                     indices: Sequence[int]) -> List[PowerSessionRecord]:
    """Worker entry: run a slice of intermittent sessions.

    Builds sessions directly (not through
    :func:`~repro.intermittent.run_intermittent_session`) so workers
    never emit spans — the coordinator is the only aggregation path,
    keeping the registry independent of worker count.
    """
    from ..intermittent import IntermittentSession, count_nonce_reuse

    ispec = spec.intermittent_spec()
    records = []
    for index in indices:
        supply = spec.schedule(index).supply()
        result = IntermittentSession(ispec, index, supply=supply).run()
        records.append(PowerSessionRecord(
            session_index=index,
            completed=result.completed,
            accepted=result.accepted,
            identity=result.identity,
            abort_reason=result.abort_reason,
            power_cycles=result.power_cycles,
            checkpoints_committed=result.checkpoints_committed,
            torn_discards=result.torn_discards,
            steps_executed=result.steps_executed,
            steps_wasted=result.steps_wasted,
            checkpoint_uj=result.checkpoint_uj,
            compute_uj=result.compute_uj,
            radio_uj=result.radio_uj,
            outcome_digest=result.outcome_digest,
            nonce_reuse=count_nonce_reuse(result.wire),
        ))
    return records


def run_power_soak(spec: PowerSoakSpec,
                   workers: Optional[int] = None) -> PowerSoakReport:
    """Soak a fleet of sessions under seeded power-cut schedules.

    Same fan-out discipline as :func:`run_fleet`: sessions are
    embarrassingly parallel, records come back in session order, and
    the report cannot depend on worker count or scheduling.
    """
    from ..obs.integration import record_intermittent_result

    rt = _obs_runtime.current()
    soak_span = rt.span(
        "power.soak", key=0, curve=spec.curve, sessions=spec.sessions,
        cuts=spec.cuts, interval=spec.checkpoint_interval,
    ) if rt is not None else contextlib.nullcontext()
    with soak_span as span:
        jobs = [(spec, indices)
                for indices in session_slices(spec.sessions, workers)]
        report = PowerSoakReport(spec=spec, records=[
            record for records in fan_out(_run_power_slice, jobs, workers)
            for record in records])
        if rt is not None:
            for record in report.records:
                record_intermittent_result(rt.registry, record)
            span.set(completed=report.completed,
                     accepted=report.accepted,
                     clean=report.all_clean,
                     digest=report.outcome_digest()[:16])
    return report


def run_fleet(spec: FleetSpec, workers: Optional[int] = None,
              progress=None) -> FleetReport:
    """Run the whole sweep, optionally across worker processes.

    ``workers=0`` forces in-process execution (tests, small runs);
    otherwise defaults to ``min(cpu, 8)`` like the campaign runner.
    ``progress`` is an optional callable ``(done, total)``.
    """
    from ..obs.integration import record_fleet_report

    rt = _obs_runtime.current()
    # Deterministic attrs only — no worker count, so two runs of the
    # same spec produce byte-identical span trees whatever the
    # parallelism.
    soak_span = rt.span(
        "protocol.soak", key=0, protocol=spec.protocol,
        spec=spec.digest(), sessions=spec.sessions,
        points=len(spec.sweep),
    ) if rt is not None else contextlib.nullcontext()
    with soak_span as span:
        by_loss = sweep_records(_run_slice, spec, workers, progress)
        points = []
        for key, loss in enumerate(sorted(spec.sweep)):
            point = SweepPoint(frame_loss=loss,
                               profile=spec.profile(loss),
                               records=by_loss[loss])
            points.append(point)
            if rt is not None:
                rt.tracer.event(
                    "soak.point", key=key,
                    loss=f"{loss:g}", sessions=point.sessions,
                    accepted=point.successes,
                    retransmissions=point.total_retransmissions,
                    digest=point.digest(),
                )
        report = FleetReport(spec=spec, points=points)
        if rt is not None:
            record_fleet_report(rt.registry, report)
            span.set(available=report.fully_available,
                     monotone=report.energy_monotone)
    return report
