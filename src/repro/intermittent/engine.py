"""The resume engine: one identification session across N power cycles.

The tag is the intermittently powered party (the reader sits on mains
behind the programming head).  It is a real
:class:`~repro.protocols.peeters_hermans.PeetersHermansTag`, built
afresh on every power-on because it lives in RAM, whose
``multiplier=`` is the suspendable Montgomery ladder checkpointing
every ``checkpoint_interval`` steps.  The engine keeps the rest: NVM,
the radio and the cycle and µJ ledger.

1. **commit phase** — the tag draws the epoch nonce ``r`` (a pure
   function of ``(seed, session, epoch)``), which is two-phase
   committed to NVM *before first use*, and computes ``R = r * P``;
   transmit ``R``, receive ``e`` and durably record the phase
   transition;
2. **respond phase** — the tag (its ``r`` re-armed from NVM after a
   cut) computes ``r * Y`` and ``s = d + x + e*r``; the consumed
   marker is committed *with the exact response scalar* before
   anything is transmitted;
3. **close phase** — transmit the committed ``s`` (re-emitting the
   byte-identical scalar after any later cut) and conclude.

A :class:`~.errors.PowerLossError` at *any* cycle — mid-ladder,
mid-commit, between nonce draw and the first frame — rolls the tag
back to its last committed checkpoint; the loop in :meth:`run` counts
the power cycle and resumes.  The final outcome (``R``, ``e``, ``s``,
the verdict) is byte-identical whatever the cut placement, because
every wire value is either re-derived from committed state or
re-emitted verbatim.

``durable=False`` models the naive tag the checkpoint layer exists to
kill: the same tag without NVM, so a cut loses its nonce with its
RAM — the adversary lab's field-cutting attacker recovers its key
(:mod:`repro.adversary.fieldcut`).
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field as dataclass_field
from typing import Dict, List, Optional, Tuple

from ..channel import (
    Frame,
    compress_point,
    derive_channel_seed,
    encode_frame,
    frame_overhead_bits,
    int_to_bytes,
    scalar_width_bytes,
)
from ..ec.curves import get_curve
from ..ec.ladder import (
    LadderState,
    MULS_PER_ITERATION,
    SQUARES_PER_ITERATION,
    ladder_suspend_advance,
    ladder_suspend_init,
    ladder_suspend_result,
)
from ..obs import runtime as _obs_runtime
from ..protocols.ops import OperationCount
from ..protocols.peeters_hermans import PeetersHermansReader, \
    PeetersHermansTag
from ..protocols.session import peeters_hermans_keys
from .checkpoint import CheckpointStore, NonceVault, NVMModel
from .errors import PowerLossError, ResumeExhaustedError
from .supply import PowerSupply

__all__ = ["IntermittentSpec", "IntermittentResult", "IntermittentSession",
           "run_intermittent_session", "CYCLES_PER_LADDER_STEP"]

#: Core cycles of one ladder iteration (six multiplications and four
#: squarings through the MALU) — a K-163 point multiplication's ~90 k
#: cycles over its 162 iterations.
CYCLES_PER_LADDER_STEP = 500


@dataclass(frozen=True)
class IntermittentSpec:
    """Everything one intermittent session depends on."""

    curve: str = "TOY-B17"
    seed: int = 2013
    checkpoint_interval: int = 8
    randomize_z: bool = True
    distance_m: float = 0.5
    cycles_per_ladder_step: int = CYCLES_PER_LADDER_STEP
    cycles_per_radio_bit: int = 16
    cycles_misc: int = 64
    max_power_cycles: int = 64
    nvm: NVMModel = NVMModel()

    def __post_init__(self):
        if self.checkpoint_interval < 1:
            raise ValueError("checkpoint interval must be at least 1 step")
        if self.max_power_cycles < 0:
            raise ValueError("power-cycle budget must be non-negative")
        for name in ("cycles_per_ladder_step", "cycles_per_radio_bit",
                     "cycles_misc"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        get_curve(self.curve)  # validate early


@dataclass
class IntermittentResult:
    """Outcome and full accounting of one intermittent session."""

    session_index: int
    seed: int
    completed: bool
    accepted: bool
    identity: Optional[int]
    abort_reason: Optional[str]
    power_cycles: int
    checkpoints_committed: int
    torn_discards: int
    steps_executed: int
    steps_wasted: int
    cycles: int
    checkpoint_uj: float
    compute_uj: float
    radio_uj: float
    outcome_digest: str
    wire: List[Tuple[str, int, str, bytes]] = dataclass_field(
        default_factory=list)
    timeline: List[Tuple[int, str]] = dataclass_field(default_factory=list)
    events: List[str] = dataclass_field(default_factory=list)

    @property
    def total_uj(self) -> float:
        return self.checkpoint_uj + self.compute_uj + self.radio_uj

    def wire_payloads(self, label: str) -> List[bytes]:
        """Every payload transmitted under one label, in wire order."""
        return [payload for _s, _e, lab, payload in self.wire
                if lab == label]

    def summary(self) -> str:
        state = ("ACCEPTED" if self.accepted else "REJECTED") \
            if self.completed else f"ABORTED ({self.abort_reason})"
        return (
            f"intermittent session {self.session_index}: {state} across "
            f"{self.power_cycles + 1} power cycle(s), "
            f"{self.checkpoints_committed} checkpoints "
            f"({self.torn_discards} torn discarded), "
            f"{self.steps_wasted}/{self.steps_executed} ladder steps "
            f"re-executed; {self.total_uj:.2f} uJ "
            f"({self.checkpoint_uj:.2f} checkpoint)"
        )


class _StableReader:
    """The mains-powered verifier, deterministic and duplicate-proof.

    The challenge of one epoch is a pure function of
    ``(seed, session, epoch)`` — a duplicate commit (the tag resumed
    and re-sent ``R``) gets the same ``e`` back, and a duplicate
    response returns the cached conclusion.  ``fresh_challenges``
    flips the reader adversarial: every challenge request gets a new
    ``e``, the field-cutting attacker's probe for nonce reuse.
    """

    def __init__(self, domain, secret_y: int, seed: int,
                 session_index: int, fresh_challenges: bool = False):
        self.domain = domain
        self.reader = PeetersHermansReader(domain, secret_y)
        self.seed = seed
        self.session_index = session_index
        self.fresh_challenges = fresh_challenges
        self.requests = 0
        #: every challenge ever issued, in order — the adversarial
        #: reader's own notebook (see :mod:`repro.adversary.fieldcut`).
        self.issued: List[Tuple[int, int]] = []
        self._challenges: Dict[int, int] = {}
        self._commitments: Dict[int, object] = {}
        self._conclusions: Dict[int, Tuple[bool, Optional[int]]] = {}

    def challenge(self, epoch: int, commitment) -> int:
        self.requests += 1
        if not self.fresh_challenges and epoch in self._challenges:
            return self._challenges[epoch]
        stream = self.requests if self.fresh_challenges else 0
        rng = random.Random(derive_channel_seed(
            self.seed, "intermittent/challenge", self.session_index,
            epoch, stream))
        e = self.domain.scalar_ring.random_scalar(rng)
        self.issued.append((epoch, e))
        self._challenges[epoch] = e
        self._commitments[epoch] = commitment
        return e

    def conclude(self, epoch: int, s: int) -> Tuple[bool, Optional[int]]:
        if epoch in self._conclusions:
            return self._conclusions[epoch]
        identity = self.reader.identify(self._commitments[epoch],
                                        self._challenges[epoch], s)
        verdict = (identity is not None, identity)
        self._conclusions[epoch] = verdict
        return verdict


class IntermittentSession:
    """One tag-side session program over one power supply."""

    _TAG, _READER = 0, 1

    def __init__(self, spec: IntermittentSpec, session_index: int = 0,
                 supply: Optional[PowerSupply] = None,
                 durable: bool = True,
                 fresh_challenges: bool = False):
        self.spec = spec
        self.session_index = session_index
        self.durable = durable
        domain = get_curve(spec.curve)
        self.domain = domain
        # The same device the fleet's sessions provision.
        secret_y, self.secret_x = peeters_hermans_keys(domain, spec.seed,
                                                       session_index)
        self.verifier = _StableReader(domain, secret_y, spec.seed,
                                      session_index,
                                      fresh_challenges=fresh_challenges)
        self.identity = session_index + 1
        self.verifier.reader.register(self.identity, PeetersHermansTag(
            domain, self.secret_x, self.verifier.reader.public
        ).identity_point)

        self.supply = supply if supply is not None else PowerSupply(())
        self.store = CheckpointStore(self.supply, spec.nvm)
        self.vault = NonceVault(self.store)
        self.session_id = derive_channel_seed(spec.seed, "session-id",
                                              session_index, 0, 0) \
            & 0xFFFFFFFF
        self._scalar_width = scalar_width_bytes(domain.order)

        self.ops = OperationCount()
        self.wire: List[Tuple[str, int, str, bytes]] = []
        self.timeline: List[Tuple[int, str]] = []
        self.events: List[str] = []
        self.steps_executed = 0
        self._productive: Dict[Tuple[int, str], int] = {}
        self._tx_attempts: Dict[Tuple[int, str], int] = {}
        self.power_cuts = 0
        # RAM-only mirror of the durable state (lost on power cuts).
        self._ram: Dict[str, dict] = {}

    # -- accounting helpers --------------------------------------------

    def _mark(self, label: str) -> None:
        self.timeline.append((self.supply.cycle, label))

    def _note(self, text: str) -> None:
        self.events.append(f"cycle {self.supply.cycle:>8d}  {text}")

    def _spend(self, cycles: int) -> None:
        self.supply.spend(cycles)

    # -- durable state (NVM when durable, RAM otherwise) ---------------

    def _restore(self, kind: str) -> Optional[dict]:
        if self.durable:
            return self.store.restore(kind)
        return self._ram.get(kind)

    def _checkpoint(self, kind: str, payload: dict) -> None:
        if self.durable:
            self.store.checkpoint(kind, payload)
        else:
            self._ram[kind] = payload

    # -- radio ---------------------------------------------------------

    def _frame_bytes(self, round_index: int, label: str,
                     payload: bytes, epoch: int) -> bytes:
        key = (epoch, label)
        attempt = self._tx_attempts.get(key, 0)
        frame = Frame(self.session_id, epoch, round_index,
                      min(attempt, 255), self._TAG, label, payload)
        return encode_frame(frame)

    def _tx(self, round_index: int, label: str, payload: bytes,
            epoch: int) -> None:
        data = self._frame_bytes(round_index, label, payload, epoch)
        # Cycles first: a brownout mid-transmission means the frame
        # never forms a valid CRC at the receiver — nothing was sent.
        self._spend(len(data) * 8 * self.spec.cycles_per_radio_bit)
        self.ops.tx_bits += len(data) * 8
        key = (epoch, label)
        self._tx_attempts[key] = self._tx_attempts.get(key, 0) + 1
        self.wire.append(("tag", epoch, label, payload))
        self._note(f"tx {label} epoch={epoch} bytes={len(data)}")

    def _rx(self, label: str, nbytes: int) -> None:
        bits = nbytes * 8 + frame_overhead_bits(label)
        self._spend(bits * self.spec.cycles_per_radio_bit)
        self.ops.rx_bits += bits

    # -- key material (pure functions of the spec) ---------------------

    def _initial_z(self, epoch: int, target: str) -> int:
        if not self.spec.randomize_z:
            return 1
        f = self.domain.field
        for attempt in range(64):
            value = derive_channel_seed(
                self.spec.seed, f"intermittent/z/{target}",
                self.session_index, epoch, attempt) % f.order
            if value:
                return value
        raise AssertionError("could not derive a non-zero Z")

    # -- the tag's multiplier: the ladder with periodic checkpoints ----

    def _ladder(self, epoch: int, target: str, k: int, point):
        record = self._restore("ladder")
        state = None
        if record is not None and record.get("epoch") == epoch \
                and record.get("target") == target:
            state = LadderState.from_dict(record["state"])
            self._note(f"ladder {target} resumed at step "
                       f"{state.steps_done}/{state.steps_total}")
        if state is None:
            state = ladder_suspend_init(self.domain.curve, k, point,
                                        self._initial_z(epoch, target))
        key = (epoch, target)
        while not state.finished:
            steps = min(self.spec.checkpoint_interval,
                        state.bit_index + 1)
            for _ in range(steps):
                self._spend(self.spec.cycles_per_ladder_step)
                state = ladder_suspend_advance(self.domain.curve, state, 1)
                self.steps_executed += 1
                self.ops.modular_multiplications += (
                    MULS_PER_ITERATION + SQUARES_PER_ITERATION)
                self._productive[key] = max(
                    self._productive.get(key, 0), state.steps_done)
            if not state.finished:
                self._checkpoint("ladder", {"epoch": epoch,
                                            "target": target,
                                            "state": state.to_dict()})
                self._mark(f"ladder-{target}-checkpoint")
        return ladder_suspend_result(self.domain.curve, state)

    def _multiply(self, epoch: int, k: int, point):
        """The tag's ``multiplier=``: the checkpointing ladder.

        The tag asks for ``R = r·P`` with its domain's generator
        object, and first use of a nonce the vault does not hold yet
        pays for its draw and commits it.  ``r·Y`` is followed by the
        cycles of the scalar arithmetic the tag does with it.
        """
        if point is not self.domain.generator:
            shared = self._ladder(epoch, "s", k, point)
            self._spend(self.spec.cycles_misc)
            return shared
        if self.vault.committed_nonce(epoch) is None:
            self._spend(self.spec.cycles_misc)
            self.ops.random_bits += self.domain.order.bit_length()
            self._mark("nonce-derived")
            if self.durable:
                self.vault.commit_nonce(epoch, k)
                self._mark("nonce-committed")
                self._note(f"nonce committed for epoch {epoch}")
        return self._ladder(epoch, "R", k, point)

    # -- the session program -------------------------------------------

    def _execute(self) -> Tuple[bool, Optional[int]]:
        session = self._restore("session") or {"phase": "commit",
                                               "epoch": 0}
        epoch = session["epoch"]
        phase = session["phase"]
        # A fresh tag every power-on: its nonce lives in RAM and dies
        # with a power cut.
        tag = PeetersHermansTag(
            self.domain, self.secret_x, self.verifier.reader.public,
            multiplier=lambda k, point, _rng: self._multiply(epoch, k,
                                                             point))

        if phase == "commit":
            commitment = tag.commit(random.Random(derive_channel_seed(
                self.spec.seed, "intermittent/nonce", self.session_index,
                epoch, 0)))
            payload = compress_point(self.domain.curve, commitment)
            self._tx(0, "R", payload, epoch)
            self._mark("R-sent")
            e = self.verifier.challenge(epoch, commitment)
            self._rx("e", self._scalar_width)
            self._mark("e-received")
            session = {"phase": "respond", "epoch": epoch,
                       "e": format(e, "x")}
            self._checkpoint("session", session)
            self._mark("phase-respond-committed")
            phase = "respond"
        elif phase == "respond" \
                and self.vault.consumed_response(epoch) is None:
            # Resumed into round 2: the vault re-arms the nonce the cut
            # wiped from the tag's RAM.
            r = self.vault.committed_nonce(epoch)
            if r is None:
                raise AssertionError(
                    "respond phase without a committed nonce — the "
                    "commit-before-use ordering is broken")
            tag.restore(r)

        if phase == "respond":
            s = self.vault.consumed_response(epoch)
            if s is not None:
                # A cut landed between the consumed-marker commit and
                # the phase record: the nonce is spent, so the only
                # legal continuation is re-emitting the committed
                # response — never a recompute.
                self._note("resume found a consumed marker; skipping "
                           "to close with the committed response")
            else:
                s = tag.respond(int(session["e"], 16), None)
                self.ops.modular_multiplications += 1  # e·r
                if self.durable:
                    self.vault.assert_unconsumed(epoch)
                    self.store.stage("consumed",
                                     {"epoch": epoch, "s": format(s, "x")})
                    self._mark("response-staged")
                    self.store.commit("consumed")
                    self._mark("response-committed")
                    self._note(f"consumed marker committed before tx "
                               f"(epoch {epoch})")
            session = {"phase": "close", "epoch": epoch,
                       "s": format(s, "x")}
            self._checkpoint("session", session)
            phase = "close"

        # close: transmit the *committed* response, never a fresh one.
        s = self.vault.consumed_response(epoch) if self.durable \
            else int(session["s"], 16)
        if s is None:
            raise AssertionError(
                "close phase without a consumed marker — the response "
                "commit ordering is broken")
        self._tx(2, "s", int_to_bytes(s, self._scalar_width), epoch)
        self._mark("s-sent")
        # The tag waits out the reader's acknowledgement before it may
        # durably retire the epoch — the cuttable window where a naive
        # tag, restarted, re-derives its nonce and answers a *fresh*
        # challenge with a second response under the same r.
        self._rx("ack", 1)
        self._mark("ack-received")
        accepted, identity = self.verifier.conclude(epoch, s)
        self._checkpoint("session", {"phase": "done", "epoch": epoch,
                                     "accepted": accepted})
        self._mark("done-committed")
        return accepted, identity

    # -- the resume loop -----------------------------------------------

    def run(self) -> IntermittentResult:
        completed = False
        accepted = False
        identity: Optional[int] = None
        abort_reason: Optional[str] = None
        while True:
            try:
                if self.durable:
                    dropped = self.store.discard_staged()
                    if dropped:
                        self._note(f"power-on: discarded {dropped} "
                                   "staged record(s)")
                accepted, identity = self._execute()
                completed = True
                break
            except PowerLossError as exc:
                self.power_cuts += 1
                self._note(f"power lost: {exc}")
                self._mark("power-cut")
                if not self.durable:
                    self._ram.clear()
                if self.power_cuts > self.spec.max_power_cycles:
                    try:
                        raise ResumeExhaustedError(
                            "session did not finish within the "
                            "power-cycle budget",
                            power_cycles=self.power_cuts) from exc
                    except ResumeExhaustedError as abort:
                        abort_reason = str(abort)
                    break
                self.supply.restart()

        productive = sum(self._productive.values())
        return IntermittentResult(
            session_index=self.session_index,
            seed=self.spec.seed,
            completed=completed,
            accepted=accepted,
            identity=identity,
            abort_reason=abort_reason,
            power_cycles=self.power_cuts,
            checkpoints_committed=self.store.commits,
            torn_discards=self.store.torn_discards,
            steps_executed=self.steps_executed,
            steps_wasted=self.steps_executed - productive,
            cycles=self.supply.cycle,
            checkpoint_uj=self.store.energy_uj,
            compute_uj=self._compute_uj(),
            radio_uj=self._radio_uj(),
            outcome_digest=self._outcome_digest(completed, accepted,
                                                identity),
            wire=list(self.wire),
            timeline=list(self.timeline),
            events=list(self.events),
        )

    def _compute_uj(self) -> float:
        from ..energy.comparison import ComputeEnergyTable

        return ComputeEnergyTable().computation_energy(self.ops) * 1e6

    def _radio_uj(self) -> float:
        from ..energy.radio import RadioModel

        radio = RadioModel()
        return (radio.transmit_energy(self.ops.tx_bits,
                                      self.spec.distance_m)
                + radio.receive_energy(self.ops.rx_bits)) * 1e6

    def _outcome_digest(self, completed: bool, accepted: bool,
                        identity: Optional[int]) -> str:
        """Digest of the *final outcome* only — stable across any cut
        placement that lets the session finish (duplicated frames and
        energy figures deliberately excluded)."""
        final: Dict[str, str] = {}
        for _sender, epoch, label, payload in self.wire:
            final[f"{epoch}/{label}"] = payload.hex()
        payload = json.dumps({
            "completed": completed,
            "accepted": accepted,
            "identity": identity,
            "final": final,
        }, sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()


def count_nonce_reuse(wire) -> int:
    """Nonce reuses visible on one session's wire transcript.

    A reuse is the same epoch nonce answering two *different*
    challenges — i.e. more than one distinct ``s`` payload under one
    epoch.  A checkpointing tag that resumes re-emits the
    byte-identical ``s`` (distinct count stays 1, whatever the cut
    schedule), so this count is placement-invariant and zero whenever
    the commit-before-use vault invariant holds; the naive RAM-only
    tag under fresh challenges counts its leak here (see
    :mod:`repro.adversary.fieldcut`).  This is the ``nonce_reuse``
    telemetry series the stock rulebook's invariant rule watches.
    """
    distinct: Dict[int, set] = {}
    for _sender, epoch, label, payload in wire:
        if label == "s":
            distinct.setdefault(epoch, set()).add(bytes(payload))
    return sum(len(values) - 1 for values in distinct.values())


def run_intermittent_session(
    spec: IntermittentSpec,
    session_index: int = 0,
    supply: Optional[PowerSupply] = None,
    durable: bool = True,
    fresh_challenges: bool = False,
) -> IntermittentResult:
    """Run one session to its verdict, with obs spans and metrics.

    The span tree carries the µJ decomposition exactly: the session
    span's ``uj`` equals the sum its three children (compute, radio,
    checkpoint) claim, so the obs energy rollup reproduces
    ``result.total_uj`` to the float digit.
    """
    engine = IntermittentSession(spec, session_index, supply=supply,
                                 durable=durable,
                                 fresh_challenges=fresh_challenges)
    rt = _obs_runtime.current()
    if rt is None:
        return engine.run()
    with rt.span("intermittent.session", key=session_index,
                 curve=spec.curve,
                 interval=spec.checkpoint_interval) as span:
        result = engine.run()
        if span is not None:
            span.set(uj=result.total_uj,
                     power_cycles=result.power_cycles,
                     completed=result.completed)
        with rt.span("intermittent.compute", key=session_index) as child:
            if child is not None:
                child.set(uj=result.compute_uj,
                          steps=result.steps_executed)
        with rt.span("intermittent.radio", key=session_index) as child:
            if child is not None:
                child.set(uj=result.radio_uj)
        with rt.span("intermittent.checkpoint", key=session_index) as child:
            if child is not None:
                child.set(uj=result.checkpoint_uj,
                          commits=result.checkpoints_committed,
                          torn=result.torn_discards)
    from ..obs.integration import record_intermittent_result

    record_intermittent_result(rt.registry, result)
    if result.abort_reason:
        # The session died for good (power-cycle budget exhausted):
        # dump the black box so the post-mortem sees the final spans.
        rt.flight_dump("power-loss",
                       tag=f"session-{session_index:05d}",
                       session=session_index,
                       abort_reason=result.abort_reason,
                       power_cycles=result.power_cycles)
    return result
