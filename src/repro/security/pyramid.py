"""The security pyramid (Figure 1) as an explicit data model.

The paper's central methodological claim: countermeasures live at four
abstraction levels — protocol/system, algorithm, architecture, circuit
— and "skipping a countermeasure means opening the door for a possible
attack".  :func:`default_pyramid` encodes the paper's own design as a
threat/countermeasure matrix, and :meth:`SecurityPyramid.coverage`
answers the designer's question: which threats remain open given the
countermeasures actually enabled in a configuration?
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field as dataclass_field
from typing import Optional, Sequence

__all__ = ["AbstractionLevel", "Threat", "Countermeasure", "SecurityPyramid",
           "default_pyramid", "pyramid_for_config", "Posture",
           "BATTERY_DEPLETION_THREAT", "defense_posture",
           "POWER_INTERRUPTION_THREAT", "checkpoint_posture",
           "KEY_COMPROMISE_THREAT", "session_posture"]


class AbstractionLevel(enum.IntEnum):
    """Design abstraction levels, top (biggest leverage) first."""

    PROTOCOL = 4
    ALGORITHM = 3
    ARCHITECTURE = 2
    CIRCUIT = 1


@dataclass(frozen=True)
class Threat:
    """An attack class the device must survive."""

    name: str
    description: str


@dataclass(frozen=True)
class Countermeasure:
    """A defence, anchored at one abstraction level.

    ``primary`` distinguishes the countermeasures that *close* a
    threat from circuit-level hygiene that merely raises the attack
    effort (Section 6: the standard-cell tricks "do not provide the
    same level of protection as specialized logic styles do").
    """

    name: str
    level: AbstractionLevel
    addresses: tuple
    implemented_in: str  # module path in this library
    primary: bool = True


@dataclass
class SecurityPyramid:
    """A set of threats and the countermeasures deployed against them."""

    threats: list = dataclass_field(default_factory=list)
    countermeasures: list = dataclass_field(default_factory=list)

    def add_threat(self, threat: Threat) -> None:
        """Register a threat."""
        self.threats.append(threat)

    def add_countermeasure(self, cm: Countermeasure) -> None:
        """Register a countermeasure; its threats must be known."""
        known = {t.name for t in self.threats}
        for name in cm.addresses:
            if name not in known:
                raise ValueError(f"countermeasure addresses unknown threat {name!r}")
        self.countermeasures.append(cm)

    def defences_for(self, threat_name: str) -> list:
        """All countermeasures addressing one threat."""
        return [cm for cm in self.countermeasures if threat_name in cm.addresses]

    def uncovered_threats(self) -> list:
        """Threats with no *primary* countermeasure — the open doors.

        Supporting (non-primary) measures raise attack effort but do
        not close the threat by themselves.
        """
        return [
            t for t in self.threats
            if not any(cm.primary for cm in self.defences_for(t.name))
        ]

    def coverage(self) -> dict:
        """Threat name -> list of (level, countermeasure-name) pairs."""
        return {
            t.name: [(cm.level.name, cm.name) for cm in self.defences_for(t.name)]
            for t in self.threats
        }

    def levels_used(self) -> list:
        """The abstraction levels the deployed defences span."""
        return sorted({cm.level for cm in self.countermeasures}, reverse=True)

    def report(self) -> str:
        """Human-readable coverage matrix."""
        lines = ["Security pyramid coverage", "=" * 60]
        for level in sorted(AbstractionLevel, reverse=True):
            members = [cm for cm in self.countermeasures if cm.level == level]
            lines.append(f"[{level.name}]")
            if not members:
                lines.append("  (no countermeasures at this level)")
            for cm in members:
                lines.append(f"  {cm.name}  ->  {', '.join(cm.addresses)}")
        open_threats = self.uncovered_threats()
        lines.append("-" * 60)
        if open_threats:
            lines.append("OPEN DOORS: " + ", ".join(t.name for t in open_threats))
        else:
            lines.append("All modelled threats have at least one countermeasure.")
        return "\n".join(lines)


#: The threats the paper's analysis enumerates (Sections 2, 6, 7).
PAPER_THREATS = [
    Threat("eavesdropping", "wireless link interception of medical data"),
    Threat("impersonation", "fake reader/server reprograms the implant"),
    Threat("data-tampering", "modified telemetry corrupts the therapy"),
    Threat("tracking", "location privacy loss via tag linkability"),
    Threat("timing-attack", "key-dependent execution time"),
    Threat("spa", "single-trace power signature analysis"),
    Threat("dpa", "statistical power analysis over many traces"),
    Threat("fault-attack", "active glitch/laser state corruption"),
]


def default_pyramid() -> SecurityPyramid:
    """The pyramid instantiated with the paper's full countermeasure set."""
    pyramid = SecurityPyramid()
    for threat in PAPER_THREATS:
        pyramid.add_threat(threat)
    for cm in [
        Countermeasure("encrypted+authenticated channel (AES-CTR + CMAC)",
                       AbstractionLevel.PROTOCOL,
                       ("eavesdropping", "data-tampering"),
                       "repro.protocols.mutual_auth"),
        Countermeasure("mutual authentication, server first",
                       AbstractionLevel.PROTOCOL,
                       ("impersonation",),
                       "repro.protocols.mutual_auth"),
        Countermeasure("Peeters-Hermans private identification",
                       AbstractionLevel.PROTOCOL,
                       ("tracking", "impersonation"),
                       "repro.protocols.peeters_hermans"),
        Countermeasure("Montgomery powering ladder (regular op sequence)",
                       AbstractionLevel.ALGORITHM,
                       ("timing-attack", "spa"),
                       "repro.ec.ladder"),
        Countermeasure("randomized projective coordinates",
                       AbstractionLevel.ALGORITHM,
                       ("dpa",),
                       "repro.ec.ladder"),
        Countermeasure("input/output point validation",
                       AbstractionLevel.ALGORITHM,
                       ("fault-attack",),
                       "repro.fault.countermeasures"),
        Countermeasure("constant-cycle instruction set + fixed iteration count",
                       AbstractionLevel.ARCHITECTURE,
                       ("timing-attack",),
                       "repro.arch.isa"),
        Countermeasure("secure-zone partitioning (key never on host bus)",
                       AbstractionLevel.ARCHITECTURE,
                       ("spa", "dpa"),
                       "repro.arch.coprocessor",
                       primary=False),
        Countermeasure("balanced mux-select encoding",
                       AbstractionLevel.CIRCUIT,
                       ("spa",),
                       "repro.arch.control"),
        Countermeasure("no data-dependent clock gating",
                       AbstractionLevel.CIRCUIT,
                       ("spa",),
                       "repro.arch.clockgate"),
        Countermeasure("datapath input isolation",
                       AbstractionLevel.CIRCUIT,
                       ("dpa",),
                       "repro.arch.coprocessor",
                       primary=False),
        Countermeasure("glitch avoidance",
                       AbstractionLevel.CIRCUIT,
                       ("dpa",),
                       "repro.arch.coprocessor",
                       primary=False),
    ]:
        pyramid.add_countermeasure(cm)
    return pyramid


@dataclass(frozen=True)
class Posture:
    """One subsystem's term in the threat model.

    ``threat`` joins the scored set after :data:`PAPER_THREATS`;
    ``countermeasures`` are what the design deploys against it (the
    threat stays open unless one is primary); ``opens`` names paper
    threats the posture leaves open as a side effect.  Build one with
    :func:`defense_posture`, :func:`checkpoint_posture` or
    :func:`session_posture` and pass it to :func:`pyramid_for_config`
    or :func:`repro.security.score.score_design`.
    """

    threat: Threat
    countermeasures: tuple
    opens: tuple = ()


#: The active-adversary threat the adversary lab adds (not part of
#: :data:`PAPER_THREATS`, whose length is the paper's own account):
#: a malicious reader floods the tag with protocol work until the
#: battery dies.  Only scored when a design declares its depletion
#: defenses through :func:`defense_posture`.
BATTERY_DEPLETION_THREAT = Threat(
    "battery-depletion",
    "active flood forces protocol work until the battery dies")


def defense_posture(defenses) -> Posture:
    """The battery-depletion posture of an adversary-lab defense set.

    ``defenses`` is a :class:`repro.adversary.defense.DefenseConfig`
    (duck-typed, so the security layer never imports the adversary
    package).  Wake gating and the energy budget are primary — each
    alone bounds what a flood can drain; restart throttling only slows
    the bleed, so it is supporting hygiene.
    """
    measures = []
    if defenses.wake_gating:
        measures.append(Countermeasure(
            "authenticated wake-up radio gating",
            AbstractionLevel.PROTOCOL,
            ("battery-depletion",),
            "repro.adversary.defense"))
    if defenses.budget_cap_uj > 0:
        measures.append(Countermeasure(
            "per-window energy budget cap",
            AbstractionLevel.ARCHITECTURE,
            ("battery-depletion",),
            "repro.adversary.defense"))
    if defenses.restart_backoff_scale > 1.0 \
            or defenses.max_session_epochs > 0:
        measures.append(Countermeasure(
            "bounded restart backoff / epoch throttling",
            AbstractionLevel.PROTOCOL,
            ("battery-depletion",),
            "repro.adversary.defense",
            primary=False))
    return Posture(BATTERY_DEPLETION_THREAT, tuple(measures))


#: The intermittent-power threat (also opt-in): a reader that owns the
#: tag's field can cut it mid-session, forcing a restart that — on a
#: naive tag — re-derives a consumed nonce and leaks the key (see
#: :mod:`repro.adversary.fieldcut`), or tears the durable state.
POWER_INTERRUPTION_THREAT = Threat(
    "power-interruption",
    "field cuts mid-session force nonce reuse or torn state")


def checkpoint_posture(checkpoint_interval: int,
                       durable: bool = True) -> Posture:
    """The power-interruption posture of a checkpointing design.

    ``checkpoint_interval`` is the ladder steps between checkpoints
    (0 for none); ``durable`` is False for a naive tag without
    durable state.  The commit-before-use nonce vault and the
    two-phase atomic store are primary — together they make a second
    response under one nonce impossible and a torn committed record
    unconstructible.  Periodic ladder checkpointing only bounds the
    re-execution bill, so it is supporting hygiene.
    """
    measures = []
    if durable:
        measures.append(Countermeasure(
            "commit-before-use nonce checkpointing",
            AbstractionLevel.PROTOCOL,
            ("power-interruption",),
            "repro.intermittent.checkpoint"))
        measures.append(Countermeasure(
            "two-phase atomic NVM commit",
            AbstractionLevel.ARCHITECTURE,
            ("power-interruption",),
            "repro.intermittent.checkpoint"))
    if checkpoint_interval > 0:
        measures.append(Countermeasure(
            "periodic ladder-state checkpointing",
            AbstractionLevel.ALGORITHM,
            ("power-interruption",),
            "repro.intermittent.engine",
            primary=False))
    return Posture(POWER_INTERRUPTION_THREAT, tuple(measures))


#: The session-amortization threat (opt-in like the two above): once
#: a design derives symmetric session keys, a captured key exposes
#: every message sealed under it.  The forward-secrecy *window* — how
#: many messages one key covers — is the design knob; an unbounded
#: window (symmetric-only, never rekeying) leaves the door open.
KEY_COMPROMISE_THREAT = Threat(
    "key-compromise",
    "a captured session key exposes every message in its window")


def session_posture(rekey_epoch: Optional[int],
                    private_identification: bool = True,
                    erase_keys: bool = False) -> Posture:
    """The key-compromise posture of a session-amortizing design.

    ``rekey_epoch`` is the messages per asymmetric handshake, None for
    a design that never rekeys.  A *finite* rekeying epoch is primary
    — it bounds what any captured key can expose to one
    forward-secrecy window, and each epoch key is derived from a fresh
    asymmetric handshake rather than chained from its predecessor.
    Erasing retired epoch keys is supporting hygiene: it shrinks the
    capture surface but cannot bound a live key's window by itself.
    Without the Peeters-Hermans private handshake a fixed symmetric
    identity is linkable, so the posture also opens ``tracking``.
    """
    measures = []
    if isinstance(rekey_epoch, int) and not isinstance(rekey_epoch, bool) \
            and rekey_epoch >= 1:
        measures.append(Countermeasure(
            "epoch-bounded session rekeying (forward-secrecy window)",
            AbstractionLevel.PROTOCOL,
            ("key-compromise",),
            "repro.protocols.amortized"))
    if erase_keys:
        measures.append(Countermeasure(
            "retired epoch-key erasure",
            AbstractionLevel.PROTOCOL,
            ("key-compromise",),
            "repro.protocols.amortized",
            primary=False))
    opens = () if private_identification else ("tracking",)
    return Posture(KEY_COMPROMISE_THREAT, tuple(measures), opens)


def pyramid_for_config(config, postures: Sequence[Posture] = ()) \
        -> SecurityPyramid:
    """Build the pyramid that matches an actual coprocessor config.

    Drops the countermeasures the configuration disables, so
    :meth:`SecurityPyramid.uncovered_threats` shows exactly which doors
    a given design point leaves open.  Each posture then adds its
    threat, in sequence order, with the countermeasures it deploys.
    """
    from ..arch.clockgate import ClockGatingPolicy
    from ..arch.control import BalancedEncoding

    full = default_pyramid()
    dropped = set()
    if not config.randomize_z:
        dropped.add("randomized projective coordinates")
    if not isinstance(config.mux_encoding, BalancedEncoding):
        dropped.add("balanced mux-select encoding")
    if config.clock_gating is not ClockGatingPolicy.ALWAYS_ON:
        dropped.add("no data-dependent clock gating")
    if not config.input_isolation:
        dropped.add("datapath input isolation")
    if config.glitch_factor > 0:
        dropped.add("glitch avoidance")
    pruned = SecurityPyramid()
    for threat in full.threats:
        pruned.add_threat(threat)
    for cm in full.countermeasures:
        if cm.name not in dropped:
            pruned.add_countermeasure(cm)
    for posture in postures:
        pruned.add_threat(posture.threat)
        for cm in posture.countermeasures:
            pruned.add_countermeasure(cm)
    return pruned
