"""Supervised attack soaks: floods of adversarial sessions, one tag.

Structured exactly like :mod:`repro.server.soak` — the unit of
parallelism is a **cohort**, here one *tag* living through a block of
consecutive sessions on its own virtual timeline.  That framing is
load-bearing: the defenses only mean something across sessions (a
per-window energy budget caps the *flood*, not one handshake), so the
tag's :class:`~.defense.EnergyBudget` and
:class:`~.defense.WakeUpRadio` persist across every session of a
cohort, and sessions run back-to-back at seeded arrival times.  Cohort
results are pure functions of ``(spec, cohort_index)``; workers never
share a tag; the summary is assembled in cohort order — worker count
and chaos crash history are invisible in the bytes.

Supervision, chaos, the cohort files and the summary come from the
soak kernel's :func:`repro.soak.run_cohorts`: a chaos-killed worker
retries from scratch and determinism makes the retry byte-identical; a
cohort that keeps dying is quarantined and the soak reports
``degraded`` instead of hanging.  This module keeps the tag's cohort
simulation, the attack rulebook and the totals fold.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field as dataclass_field
from typing import Dict, List, Optional

from ..channel import LossProfile, derive_channel_seed
from ..jsonspec import JsonSpec
from ..obs.alerts import default_rulebook
from ..obs.metrics import MetricRegistry, strip_wall_metrics
from ..obs.stream import make_event, spread_drain_events
from ..protocols.session import RetransmissionPolicy
from ..soak import (SUMMARY_NAME, CohortReport, arrival_gap, rounded_sum,
                    run_cohort_attempt, run_cohorts)
from .defense import (DEFENSE_SETS, DefenseConfig, WakeUpRadio,
                      defense_config)
from .engine import ADVERSARY_NAMES, run_attack_session
from .errors import AdversaryError

__all__ = ["AttackSpec", "AttackReport", "run_attack_soak",
           "run_attack_cohort", "simulate_attack_cohort",
           "SUMMARY_NAME", "ATTACK_OUTCOMES"]

_SCHEMA_VERSION = 1

#: Every way an attack-lab session can end.  The summary enumerates
#: all of them explicitly — no outcome falls through to a generic
#: failure count.
ATTACK_OUTCOMES = ("accepted", "rejected", "aborted", "refused",
                   "budget_exhausted")


@dataclass(frozen=True)
class AttackSpec(JsonSpec):
    """Everything that determines an attack soak's results.

    ``adversary`` is one of :data:`~.engine.ADVERSARY_NAMES` or
    ``"mixed"`` (seeded rotation over all four); ``legit_fraction``
    dilutes the flood with honest sessions so the summary can show
    whether the defended tag still *serves* — graceful degradation is
    only meaningful if legitimate traffic survives it.
    """

    adversary: str = "mixed"
    defense: str = "none"
    sessions: int = 50             # per cohort (per tag)
    cohorts: int = 4
    legit_fraction: float = 0.2
    arrival_rate: float = 40.0     # session starts per virtual second
    frame_loss: float = 0.1
    seed: int = 0
    curve: str = "TOY-B17"
    distance_m: float = 0.5
    budget_cap_uj: float = 0.0     # override the defense set's cap
    budget_window_s: float = 0.0   # override the defense set's window
    schema_version: int = _SCHEMA_VERSION

    def __post_init__(self):
        if self.sessions < 1 or self.cohorts < 1:
            raise ValueError("need at least one session and one cohort")
        if self.arrival_rate <= 0:
            raise ValueError("arrival rate must be positive")
        if not 0.0 <= self.legit_fraction <= 1.0:
            raise ValueError("legit fraction must be in [0, 1]")
        if self.adversary != "mixed" \
                and self.adversary not in ADVERSARY_NAMES:
            known = ", ".join(ADVERSARY_NAMES + ("mixed",))
            raise ValueError(
                f"unknown adversary {self.adversary!r}; known: {known}")
        self.defense_config()  # validate the defense knobs eagerly

    def defense_config(self) -> DefenseConfig:
        overrides = {}
        if self.budget_cap_uj:
            overrides["budget_cap_uj"] = self.budget_cap_uj
        if self.budget_window_s:
            overrides["budget_window_s"] = self.budget_window_s
        return defense_config(self.defense, **overrides)

    def session_kind(self, index: int) -> str:
        """The seeded kind of global session ``index`` — a pure
        function of (seed, index), so cohort splits cannot move it."""
        if self.legit_fraction > 0.0:
            draw = derive_channel_seed(self.seed, "adversary/legit",
                                       index, 0, 0) / 2.0 ** 64
            if draw < self.legit_fraction:
                return "legit"
        if self.adversary != "mixed":
            return self.adversary
        pick = derive_channel_seed(self.seed, "adversary/mix",
                                   index, 0, 0)
        return ADVERSARY_NAMES[pick % len(ADVERSARY_NAMES)]


# ----------------------------------------------------------------------
# one cohort = one tag under one flood
# ----------------------------------------------------------------------

def simulate_attack_cohort(spec: AttackSpec, cohort_index: int) -> dict:
    """One tag through one cohort's flood; aggregates + metrics.

    The cohort's sessions run sequentially on a shared virtual clock
    (a session cannot start before the previous one ends — the tag is
    one device), with the energy budget and wake radio shared across
    all of them so per-window caps actually bind across the flood.
    """
    defense = spec.defense_config()
    policy = RetransmissionPolicy()
    budget = defense.budget()
    wake = WakeUpRadio(WakeUpRadio.derive_key(spec.seed,
                                              tag_index=cohort_index))
    base = cohort_index * spec.sessions

    registry = MetricRegistry()
    results = []
    clock = 0.0
    arrival = 0.0
    for i in range(spec.sessions):
        index = base + i
        if i:
            arrival += arrival_gap(spec.seed, "adversary/arrival",
                                   index, spec.arrival_rate)
        start = max(clock, arrival)
        result = run_attack_session(
            spec.session_kind(index), defense,
            LossProfile(frame_loss=spec.frame_loss), policy,
            spec.seed, index,
            curve=spec.curve, distance_m=spec.distance_m,
            start_at=start, budget=budget, wake=wake,
            registry=registry)
        clock = start + result.elapsed_s
        results.append(result)

    by_outcome: Dict[str, int] = {k: 0 for k in ATTACK_OUTCOMES}
    by_kind: Dict[str, int] = {}
    legit_total = legit_accepted = 0
    tag_uj = adversary_uj = 0.0
    epochs = frames = replays = stale = wake_refusals = 0
    budget_refusals = 0
    source = f"tag-{cohort_index:05d}"
    window_s = telemetry_window_s(spec)
    telemetry = []
    for result in results:
        telemetry.append(
            make_event(result.started_at, source, result.session_index,
                       session_uj=result.tag_uj,
                       budget_refusals=result.budget_refusals,
                       replay_rejections=result.replay_rejections))
        # The battery's view: the same charge, pro-rated over the
        # windows the session actually occupied.
        telemetry.extend(spread_drain_events(
            result.started_at, source, result.session_index,
            result.tag_uj, result.elapsed_s, window_s))
    for result in results:
        if result.outcome not in by_outcome:
            raise AdversaryError(
                f"outcome {result.outcome!r} missing from "
                f"ATTACK_OUTCOMES — every bucket must be enumerated",
                session_index=result.session_index)
        by_outcome[result.outcome] += 1
        by_kind[result.kind] = by_kind.get(result.kind, 0) + 1
        if result.kind == "legit":
            legit_total += 1
            if result.outcome == "accepted":
                legit_accepted += 1
        tag_uj += result.tag_uj
        adversary_uj += result.adversary_uj
        epochs += result.epochs_used
        frames += result.frames_sent
        replays += result.replay_rejections
        stale += result.stale_rejections
        wake_refusals += result.wake_refusals
        budget_refusals += result.budget_refusals

    amplification = round(tag_uj / adversary_uj, 6) \
        if adversary_uj > 0 else 0.0
    return {
        "cohort": cohort_index,
        "sessions": spec.sessions,
        "first_index": base,
        "outcomes": {k: by_outcome[k] for k in sorted(by_outcome)},
        "kinds": {k: by_kind[k] for k in sorted(by_kind)},
        "legit_sessions": legit_total,
        "legit_accepted": legit_accepted,
        "epochs": epochs,
        "frames": frames,
        "replay_rejections": replays,
        "stale_rejections": stale,
        "wake_refusals": wake_refusals,
        "budget_refusals": budget_refusals,
        "tag_energy_uj": round(tag_uj, 6),
        "adversary_energy_uj": round(adversary_uj, 6),
        "amplification": amplification,
        "peak_window_uj": round(budget.peak_window_uj, 6)
        if budget is not None else round(tag_uj, 6),
        "elapsed_virtual_s": round(clock, 6),
        "telemetry": telemetry,
        "metrics": strip_wall_metrics(registry.snapshot()),
    }


#: The supervised worker task: one cohort attempt of this family.
run_attack_cohort = functools.partial(run_cohort_attempt,
                                      simulate_attack_cohort)


def telemetry_window_s(spec: AttackSpec) -> float:
    """The soak's telemetry window: the defense's budget window when a
    cap is configured, the stock ``budget-cap`` window otherwise."""
    defense = spec.defense_config()
    if defense.budget_enabled:
        return defense.budget_window_s
    return DEFENSE_SETS["budget-cap"]["budget_window_s"]


def attack_rulebook(spec: AttackSpec):
    """The soak's alert rulebook: the defense's own budget knobs when
    a cap is configured, the stock ``budget-cap`` sizing otherwise —
    so an *undefended* soak is still watched by the thresholds the
    defended posture would have enforced (detection needs no defense
    and no attacker oracle, only telemetry)."""
    defense = spec.defense_config()
    if defense.budget_enabled:
        cap, window = defense.budget_cap_uj, defense.budget_window_s
    else:
        stock = DEFENSE_SETS["budget-cap"]
        cap, window = stock["budget_cap_uj"], stock["budget_window_s"]
    return default_rulebook(cap_uj=cap, window_s=window)


# ----------------------------------------------------------------------
# the coordinator
# ----------------------------------------------------------------------

def _attack_totals(cohorts: List[dict]) -> dict:
    """The summary's ``totals``: cohort aggregates in cohort order."""
    def total(key):
        return sum(c[key] for c in cohorts)

    tag_uj = rounded_sum(c["tag_energy_uj"] for c in cohorts)
    adversary_uj = rounded_sum(c["adversary_energy_uj"] for c in cohorts)
    return {
        "sessions": total("sessions"),
        "outcomes": {k: sum(c["outcomes"].get(k, 0) for c in cohorts)
                     for k in sorted(ATTACK_OUTCOMES)},
        "legit_sessions": total("legit_sessions"),
        "legit_accepted": total("legit_accepted"),
        "wake_refusals": total("wake_refusals"),
        "budget_refusals": total("budget_refusals"),
        "tag_energy_uj": tag_uj,
        "adversary_energy_uj": adversary_uj,
        "amplification": round(tag_uj / adversary_uj, 6)
        if adversary_uj > 0 else 0.0,
        "peak_window_uj": round(max((c["peak_window_uj"] for c in cohorts),
                                    default=0.0), 6),
    }


@dataclass
class AttackReport(CohortReport):
    """What one attack soak established, plus where the summary is."""

    adversary: str = ""
    defense: str = ""
    sessions: int = 0
    outcomes: Dict[str, int] = dataclass_field(default_factory=dict)
    legit_sessions: int = 0
    legit_accepted: int = 0
    tag_energy_uj: float = 0.0
    adversary_energy_uj: float = 0.0
    amplification: float = 0.0
    peak_window_uj: float = 0.0
    wake_refusals: int = 0
    budget_refusals: int = 0

    @property
    def legit_success_rate(self) -> float:
        if not self.legit_sessions:
            return 1.0
        return self.legit_accepted / self.legit_sessions

    def text(self) -> str:
        buckets = "  ".join(f"{k} {self.outcomes.get(k, 0)}"
                            for k in ATTACK_OUTCOMES)
        lines = [
            f"attack soak {self.spec_digest[:12]}: {self.outcome}",
            f"  adversary {self.adversary}  defense {self.defense}",
            self.cohorts_line(),
            f"  sessions  {self.sessions}  [{buckets}]",
            f"  legit     {self.legit_accepted}/{self.legit_sessions} "
            f"honest sessions accepted "
            f"({self.legit_success_rate:.1%})",
            f"  drained   tag {self.tag_energy_uj:.1f} uJ vs adversary "
            f"{self.adversary_energy_uj:.1f} uJ "
            f"(amplification {self.amplification:.2f}x)",
            f"  defenses  {self.wake_refusals} wakes refused, "
            f"{self.budget_refusals} budget refusals, peak window "
            f"{self.peak_window_uj:.1f} uJ",
        ]
        return "\n".join(lines + self.run_lines())


def run_attack_soak(directory: str, spec: AttackSpec, *,
                    workers: Optional[int] = None,
                    chaos=None,
                    policy=None,
                    on_event=None) -> AttackReport:
    """Drive every cohort under supervision and write ``summary.json``
    (plus ``telemetry.json`` and ``alerts.json``) through
    :func:`repro.soak.run_cohorts`; ``cmp`` across worker counts and
    chaos crash histories matches byte for byte."""
    report = functools.partial(AttackReport, adversary=spec.adversary,
                               defense=spec.defense)
    return run_cohorts(directory, spec, run_attack_cohort, _attack_totals,
                       attack_rulebook(spec), report, workers=workers,
                       chaos=chaos, policy=policy, on_event=on_event)
