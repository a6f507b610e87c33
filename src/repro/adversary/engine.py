"""The active-adversary engine: malicious readers vs one tag.

The campaign layer's adversaries are passive — they *listen* to power
traces.  The deadliest adversary against an implant is active: a
malicious reader that simply makes the tag do work until the battery
dies.  This engine drives that adversary class through the same
machinery the honest stack uses — the real
:class:`~repro.protocols.peeters_hermans.PeetersHermansTag` (so the
nonce single-use lifecycle is enforced by the genuine object), the
real frame codec, the real :class:`~repro.channel.BodyAreaChannel`,
and the session layer's own
:class:`~repro.protocols.session.SessionEngine`, subclassed: the tag
is the engine's initiator, a scripted counterpart replaces its
responder — so every µJ the attack drains is priced by the same
energy model the paper's honest sessions use.

Four adversaries, each keyed to a weakness of the three-round flow:

* ``bogus-flood`` — wake the tag, collect its commit, never answer.
  Every epoch costs the tag a point multiplication for nothing.
* ``replay-flood`` — capture one challenge, replay it forever: into
  the live epoch (duplicate → the tag's replay rejection must hold,
  or a second ``s`` under one ``r`` recovers the key) and into later
  epochs (stale → rejected).  Drain is rx energy plus restarted
  epochs.
* ``amplification`` — answer honestly, then retransmit the challenge
  with a bumped attempt counter, which the tag must read as "response
  lost": the spent nonce forces a *full fresh epoch* (two point
  multiplications) per cheap retransmitted frame.  This is the lossy
  channel's retransmission logic turned into a weapon.
* ``abandonment`` — answer the first commit so the tag pays the
  expensive ``respond()``, then vanish mid-handshake.

Determinism: every decision — wake timing, challenge scalars, channel
fate — derives from :func:`~repro.channel.derive_channel_seed` keyed
per ``(seed, adversary, session, frame)``, so a cohort of attacks is
byte-identical across worker counts and chaos retries.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dataclass_field
from typing import List, Optional, Tuple

from ..channel import (
    BodyAreaChannel,
    Frame,
    LossProfile,
    derive_channel_seed,
    int_from_bytes,
    int_to_bytes,
)
from ..ec.curves import get_curve
from ..obs import runtime as _obs_runtime
from ..protocols.peeters_hermans import (
    PeetersHermansReader,
    PeetersHermansTag,
)
from ..protocols.session import (PayloadRejectedError,
                                 PeetersHermansAdapter,
                                 RetransmissionPolicy, SessionEngine,
                                 SessionHalt)
from .defense import DefenseConfig, WakeUpRadio, WAKE_TOKEN_BYTES
from .errors import AdversaryError, BudgetExhaustedError

__all__ = ["ADVERSARY_NAMES", "SESSION_KINDS", "AttackSessionResult",
           "run_attack_session", "make_attack_policy"]

#: The malicious-reader workloads the lab drives.
ADVERSARY_NAMES = ("bogus-flood", "replay-flood", "amplification",
                   "abandonment")

#: Everything a soak session can be: an adversary, or honest traffic
#: mixed in to prove the defended tag still serves it.
SESSION_KINDS = ADVERSARY_NAMES + ("legit",)

#: The scripted counterpart is the engine's responder.
_ADVERSARY = 1

#: How many wake attempts an adversary (or reader) makes before giving
#: up on a tag that will not power up, and their spacing.
_WAKE_ATTEMPTS = 3
_WAKE_INTERVAL_S = 0.02

#: Replay-flood burst: copies of the captured challenge per epoch.
_REPLAY_BURST = 4
_REPLAY_SPACING_S = 0.005


@dataclass
class AttackSessionResult:
    """One attack (or mixed-in honest) session, fully accounted."""

    kind: str
    session_index: int
    seed: int
    outcome: str          # refused|budget_exhausted|aborted|accepted|rejected
    detail: str
    epochs_used: int
    frames_sent: int      # tag-side frames
    wake_attempts: int
    wake_refusals: int
    replay_rejections: int
    stale_rejections: int
    payload_rejections: int
    responses_emitted: int
    budget_refusals: int
    tag_uj: float
    adversary_uj: float
    elapsed_s: float
    started_at: float
    events: List[str] = dataclass_field(default_factory=list)

    @property
    def amplification(self) -> float:
        """Drained tag µJ per adversary µJ — the attack's leverage."""
        if self.adversary_uj <= 0:
            return 0.0
        return self.tag_uj / self.adversary_uj

    def summary(self) -> str:
        return (
            f"{self.kind} session {self.session_index}: {self.outcome} "
            f"after {self.epochs_used} epoch(s); tag {self.tag_uj:.2f} uJ "
            f"vs adversary {self.adversary_uj:.2f} uJ "
            f"(amplification {self.amplification:.1f}x)"
        )


# ----------------------------------------------------------------------
# adversary scripts
# ----------------------------------------------------------------------

class _Policy:
    """One scripted counterpart to the tag (malicious or honest)."""

    kind = "abstract"
    knows_wake_key = False

    def __init__(self, engine: "_AttackSession"):
        self.engine = engine
        self.challenges_sent = 0

    def _challenge(self, epoch: int) -> bytes:
        """A deterministic in-range challenge (forged or drawn)."""
        e = self.engine
        n = e.domain.scalar_ring.n
        draw = derive_channel_seed(e.seed, f"adversary/{self.kind}/e",
                                   e.session_index, epoch, 0)
        return int_to_bytes(1 + draw % (n - 1), e._scalar_width)

    def on_commit(self, frame: Frame) -> None:
        """The tag's m0 arrived (one per epoch)."""

    def on_response(self, frame: Frame) -> None:
        """The tag's m2 arrived."""


class _BogusFlood(_Policy):
    """Solicit commits, never answer: pure commit drain."""

    kind = "bogus-flood"


class _ReplayFlood(_Policy):
    """Capture one challenge, replay it into every state forever."""

    kind = "replay-flood"

    def __init__(self, engine):
        super().__init__(engine)
        self.captured: Optional[Tuple[int, bytes]] = None

    def on_commit(self, frame: Frame) -> None:
        e = self.engine
        if self.captured is None:
            self.captured = (frame.epoch, self._challenge(frame.epoch))
            self.challenges_sent += 1
            e.adv_send(*self.captured)
            # ... then hammer the live epoch with exact copies: the
            # tag must reject every one (nonce single-use), or leak s
            # twice under one r.
            for i in range(_REPLAY_BURST):
                e._push(e.now + (i + 1) * _REPLAY_SPACING_S,
                        "adv-replay", *self.captured)
        else:
            # Later epochs only ever see the stale capture.
            e.adv_send(*self.captured)


class _Amplification(_Policy):
    """Answer honestly, then claim loss: one cheap retransmitted
    challenge forces a full fresh epoch (the spent nonce cannot be
    reused) — retransmission amplification over the lossy channel."""

    kind = "amplification"

    def __init__(self, engine):
        super().__init__(engine)
        self._payloads = {}

    def on_commit(self, frame: Frame) -> None:
        payload = self._challenge(frame.epoch)
        self._payloads[frame.epoch] = payload
        self.challenges_sent += 1
        self.engine.adv_send(frame.epoch, payload)

    def on_response(self, frame: Frame) -> None:
        # The response arrived fine — pretend it did not: bump the
        # attempt counter so the tag presumes loss and burns an epoch.
        payload = self._payloads.get(frame.epoch)
        if payload is not None:
            self.engine.adv_send(frame.epoch, payload, attempt=1)


class _Abandonment(_Policy):
    """Trigger the expensive respond(), then vanish mid-handshake."""

    kind = "abandonment"

    def on_commit(self, frame: Frame) -> None:
        if self.challenges_sent:
            return  # vanished
        self.challenges_sent += 1
        self.engine.adv_send(frame.epoch, self._challenge(frame.epoch))


class _Legit(_Policy):
    """The honest reader, for mixed soaks: completes identification."""

    kind = "legit"
    knows_wake_key = True

    def on_commit(self, frame: Frame) -> None:
        e = self.engine
        try:
            payload = e.handle_m0(frame.payload, e.rng_resp)
        except PayloadRejectedError:
            return
        self.challenges_sent += 1
        e.adv_send(frame.epoch, payload)

    def on_response(self, frame: Frame) -> None:
        e = self.engine
        try:
            e.concluded = e.conclude(frame.payload)
        except PayloadRejectedError:
            return
        e._note(f"concluded: {e.concluded[2]}")


_POLICIES = {
    "bogus-flood": _BogusFlood,
    "replay-flood": _ReplayFlood,
    "amplification": _Amplification,
    "abandonment": _Abandonment,
    "legit": _Legit,
}


def make_attack_policy(kind: str, engine: "_AttackSession") -> _Policy:
    try:
        cls = _POLICIES[kind]
    except KeyError:
        known = ", ".join(SESSION_KINDS)
        raise AdversaryError(
            f"unknown session kind {kind!r}; known: {known}") from None
    return cls(engine)


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------

class _AttackSession(SessionEngine, PeetersHermansAdapter):
    """One tag under one scripted counterpart over one lossy channel.

    The shared session engine, as its own Peeters–Hermans adapter: the
    tag is the initiator, the script is the responder.  Two
    graceful-degradation hooks sit in front of every tag energy spend:
    the wake gate (the main radio stays dark until an authenticated
    wake) and the energy budget (a charge past the per-window cap
    halts the session).
    """

    roles = ("tag", "adversary")

    def __init__(self, kind: str, defense: DefenseConfig,
                 channel: BodyAreaChannel, policy: RetransmissionPolicy,
                 seed: int, session_index: int, *,
                 curve: str = "TOY-B17",
                 distance_m: float = 0.5,
                 start_at: float = 0.0,
                 budget=None,
                 wake: Optional[WakeUpRadio] = None):
        from ..energy.comparison import ComputeEnergyTable
        from ..energy.radio import RadioModel

        # Real endpoints: the honest reader provisions the tag (it
        # holds Y = y*P); attack policies never touch the reader.
        domain = get_curve(curve)
        ring = domain.scalar_ring
        key_rng = random.Random(derive_channel_seed(
            seed, "adversary/keys", session_index, 0, 0))
        reader = PeetersHermansReader(domain, ring.random_scalar(key_rng))
        tag = PeetersHermansTag(
            domain, ring.random_scalar(key_rng), reader.public,
            multiplier=lambda k, point, rng: domain.curve.multiply(k, point))
        reader.register(session_index + 1, tag.identity_point)
        PeetersHermansAdapter.__init__(self, domain, tag, reader)
        SessionEngine.__init__(
            self, self, channel, policy, seed, session_index,
            streams=("adversary/session-id", "adversary/role/tag",
                     "adversary/role/reader"),
            start_at=start_at)
        if defense.max_session_epochs:
            self.max_epochs = min(self.max_epochs,
                                  defense.max_session_epochs)
        self.backoff_scale = defense.restart_backoff_scale
        self.init_state = "dark"

        self.kind = kind
        self.defense = defense
        self.distance_m = distance_m
        self.budget = budget if budget is not None else defense.budget()
        self.radio = RadioModel()
        self.wake = wake if wake is not None else WakeUpRadio(
            WakeUpRadio.derive_key(seed))

        # Per-action tag costs in µJ (compute side; radio priced per
        # frame at send/receive time).
        table = ComputeEnergyTable()
        n_bits = ring.n.bit_length()
        self._commit_uj = (table.point_multiplication_j
                           + n_bits * table.random_bit_j) * 1e6
        self._respond_uj = (table.point_multiplication_j
                            + table.modular_multiplication_j) * 1e6

        self.wake_attempts = 0
        self.wake_refusals = 0
        self.responses_emitted = 0
        self.budget_refusals = 0
        self.tag_uj = 0.0
        self.adversary_uj = 0.0

        self.policy_script = make_attack_policy(kind, self)

    # -- energy --------------------------------------------------------

    def _tx_uj(self, nbytes: int) -> float:
        return self.radio.transmit_energy(nbytes * 8, self.distance_m) \
            * 1e6

    def _rx_uj(self, nbytes: int) -> float:
        return self.radio.receive_energy(nbytes * 8) * 1e6

    def _charge_tag(self, uj: float, what: str) -> None:
        """Spend tag energy, or refuse via the budget and halt dark."""
        if self.budget is not None:
            try:
                self.budget.charge(uj, self.now)
            except BudgetExhaustedError as exc:
                self.budget_refusals += 1
                self._note(f"budget refused {what}: {exc}")
                raise SessionHalt(
                    "budget_exhausted",
                    "energy budget cap reached; tag dark until the "
                    "window rolls") from None
        self.tag_uj += uj

    def _account_tx(self, sender: int, data: bytes) -> None:
        if sender == _ADVERSARY:
            self.adversary_uj += self._tx_uj(len(data))
            return
        # Every transmitted tag bit, retransmissions included, is an
        # energy event; frames_sent counts tag-side frames only.
        self._charge_tag(self._tx_uj(len(data)), "tx")
        super()._account_tx(sender, data)

    def _account_rx(self, role: int, data: bytes) -> bool:
        if role == _ADVERSARY:
            self.adversary_uj += self._rx_uj(len(data))
            return True
        if self.init_state == "dark":
            return False  # main radio is off; nothing to receive
        self._charge_tag(self._rx_uj(len(data)), "rx frame")
        return super()._account_rx(role, data)

    # -- the tag (initiator) -------------------------------------------

    def make_m0(self, rng) -> bytes:
        self._charge_tag(self._commit_uj, "commit")
        return super().make_m0(rng)

    def make_m2(self, payload: bytes, rng) -> bytes:
        # Validate before charging: a garbage challenge must not cost
        # a point multiplication that never runs.
        if len(payload) != self._scalar_width:
            raise PayloadRejectedError("challenge has the wrong width")
        if not 1 <= int_from_bytes(payload) < self.domain.scalar_ring.n:
            raise PayloadRejectedError("challenge out of range")
        self._charge_tag(self._respond_uj, "respond")
        response = super().make_m2(payload, rng)
        self.responses_emitted += 1
        return response

    # -- wake gating ---------------------------------------------------

    def _start(self) -> None:
        """The counterpart's wake schedule (legit: authentic token)."""
        if self.policy_script.knows_wake_key:
            token = self.wake.token(self.session_id)
        else:
            forged = derive_channel_seed(self.seed, "adversary/forged",
                                         self.session_index, 0, 0)
            token = forged.to_bytes(WAKE_TOKEN_BYTES, "big")
        for attempt in range(_WAKE_ATTEMPTS):
            self._push(self.started_at + attempt * _WAKE_INTERVAL_S,
                       "wake-tx", token, attempt)

    def _wake_rx(self, token: bytes) -> None:
        """The always-on wake receiver hears a token (budget-exempt)."""
        self.tag_uj += self.defense.wake_rx_uj
        self.wake_attempts += 1
        if self.init_state != "dark":
            return  # already up; late wake copies are noise
        if self.defense.wake_gating \
                and not self.wake.verify(self.session_id, token):
            self.wake_refusals += 1
            self._note("wake refused: invalid wake token, protocol "
                       "layer stays dark")
            return
        self._note("wake accepted: protocol layer powering up")
        self._start_epoch()

    def _on_event(self, kind: str, args: tuple) -> None:
        if kind == "wake-tx":
            token, attempt = args
            self.adversary_uj += self._tx_uj(len(token))
            for delivery in self.channel.transmit(
                    token, -(attempt + 1), attempt, self.now):
                self._push(delivery.at, "wake-rx", delivery.data)
        elif kind == "wake-rx":
            self._wake_rx(*args)
        else:  # "adv-replay": a scheduled copy of a captured challenge
            self.adv_send(*args)

    # -- the script (responder) ----------------------------------------

    def adv_send(self, epoch: int, payload: bytes,
                 attempt: int = 0) -> None:
        """The counterpart transmits one challenge frame."""
        self._send(_ADVERSARY, epoch, 1, attempt, "e", payload)

    async def _responder_frame(self, frame: Frame) -> None:
        if frame.round_index == 0:
            self.policy_script.on_commit(frame)
        elif frame.round_index == 2:
            self.policy_script.on_response(frame)

    # -- verdict -------------------------------------------------------

    def result(self) -> AttackSessionResult:
        if self.concluded is not None:
            accepted, _identity, detail = self.concluded
            outcome = "accepted" if accepted else "rejected"
        elif self.halt is not None:
            outcome, detail = self.halt.outcome, self.halt.detail
        elif self.init_state == "dark":
            outcome = "refused"
            detail = (f"all {self.wake_refusals} wake attempt(s) "
                      "carried invalid tokens; protocol layer never "
                      "powered up")
        else:
            outcome = "aborted"
            detail = "epoch budget exhausted under attack"
        return AttackSessionResult(
            kind=self.kind,
            session_index=self.session_index,
            seed=self.seed,
            outcome=outcome,
            detail=detail,
            epochs_used=self.epoch + 1,
            frames_sent=self.frames_sent,
            wake_attempts=self.wake_attempts,
            wake_refusals=self.wake_refusals,
            replay_rejections=self.replayed,
            stale_rejections=self.stale,
            payload_rejections=self.payload_rejected,
            responses_emitted=self.responses_emitted,
            budget_refusals=self.budget_refusals,
            tag_uj=self.tag_uj,
            adversary_uj=self.adversary_uj,
            elapsed_s=self.now - self.started_at,
            started_at=self.started_at,
            events=self.log,
        )


def run_attack_session(
    kind: str,
    defense: Optional[DefenseConfig] = None,
    profile: Optional[LossProfile] = None,
    policy: Optional[RetransmissionPolicy] = None,
    seed: int = 0,
    session_index: int = 0,
    *,
    curve: str = "TOY-B17",
    distance_m: float = 0.5,
    start_at: float = 0.0,
    budget=None,
    wake: Optional[WakeUpRadio] = None,
    registry=None,
) -> AttackSessionResult:
    """Run one adversarial (or honest) session against one tag.

    Deterministic: the result is a pure function of ``(kind, defense,
    profile, policy, seed, session_index)``.  ``budget`` and ``wake``
    let a cohort share one tag's guards across a whole flood — the
    per-window µJ bound is only meaningful across sessions.
    ``registry`` routes the session's metrics explicitly (a soak
    cohort's deterministic snapshot); otherwise they land in the live
    obs runtime's registry when one is configured.
    """
    defense = defense if defense is not None else DefenseConfig()
    profile = profile if profile is not None else LossProfile()
    policy = policy or RetransmissionPolicy()
    channel = BodyAreaChannel(profile, seed=seed, session=session_index)
    engine = _AttackSession(
        kind, defense, channel, policy, seed, session_index,
        curve=curve, distance_m=distance_m, start_at=start_at,
        budget=budget, wake=wake)
    rt = _obs_runtime.current()
    if rt is not None:
        with rt.span("adversary.session", key=session_index,
                     adversary=kind, defense=defense.name) as span:
            engine.run()
            result = engine.result()
            if span is not None:
                span.set(outcome=result.outcome,
                         epochs=result.epochs_used,
                         tag_uj=round(result.tag_uj, 3))
    else:
        engine.run()
        result = engine.result()
    if registry is None and rt is not None:
        registry = rt.registry
    if registry is not None:
        _record_attack_metrics(registry, result)
    return result


def _record_attack_metrics(registry, result: AttackSessionResult) -> None:
    """One finished attack session into the live counters."""
    registry.counter(
        "repro_adversary_sessions_total",
        "adversary-lab sessions by kind and outcome",
    ).inc(adversary=result.kind, outcome=result.outcome)
    energy = registry.counter(
        "repro_adversary_energy_uj_total",
        "microjoules drained (tag) and spent (adversary)",
    )
    energy.inc(result.tag_uj, role="tag")
    energy.inc(result.adversary_uj, role="adversary")
    refusals = registry.counter(
        "repro_adversary_refusals_total",
        "protocol work refused by a defense, by reason",
    )
    if result.wake_refusals:
        refusals.inc(result.wake_refusals, reason="wake-token")
    if result.budget_refusals:
        refusals.inc(result.budget_refusals, reason="budget")
    rejections = registry.counter(
        "repro_adversary_rejections_total",
        "tag-side frame rejections under attack, by kind",
    )
    for reason, count in (("replay", result.replay_rejections),
                          ("stale", result.stale_rejections),
                          ("payload", result.payload_rejections)):
        if count:
            rejections.inc(count, adversary=result.kind, kind=reason)
    registry.counter(
        "repro_adversary_epochs_total",
        "tag epochs burned under the adversary lab",
    ).inc(result.epochs_used, adversary=result.kind)
