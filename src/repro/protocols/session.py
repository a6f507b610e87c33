"""Resilient protocol sessions over the lossy body-area channel.

The paper's Figure 2 flow assumes three messages that simply arrive.
Over a real around-the-body link they do not, and — because "wireless
communication is power-hungry" — every loss is ultimately an *energy*
event for the implant.  This module runs the repo's three-message
protocols (Peeters–Hermans, Schnorr, AES mutual authentication) as
explicit per-role state machines over :mod:`repro.channel`, with:

* per-round deadlines and bounded retransmission with capped,
  seeded-jitter backoff (the taxonomy style of
  :mod:`repro.campaign.errors`: every discarded frame is classified —
  corrupt, stale, replayed or semantically rejected — and counted);
* a strict nonce lifecycle: a retransmitted round never reuses the
  tag's ``r``.  Losing the challenge or the response aborts the
  *epoch* and restarts the protocol with a fresh commit; the response
  ``s`` is emitted at most once per ``r`` (a second
  :meth:`~repro.protocols.peeters_hermans.PeetersHermansTag.respond`
  raises :class:`~repro.protocols.peeters_hermans.NonceConsumedError`);
* graceful abort: when the retry budget is exhausted the session
  reports how far it got (phase, rounds completed, epochs consumed)
  instead of raising;
* full energy accounting: every transmitted bit — headers, CRCs and
  retries included — lands in the per-role
  :class:`~repro.protocols.ops.OperationCount` and is converted to
  joules through the :class:`~repro.energy.radio.RadioModel`, so
  reliability degradation shows up as µJ.

The simulation is event-driven over a virtual clock and fully
deterministic: identical ``(seed, loss profile)`` yield byte-identical
transcripts, retry counts and energy totals.  :class:`SessionEngine`
is the repo's one three-round engine: the identification server and
the adversary lab subclass it rather than keep their own copies.
"""

from __future__ import annotations

import hashlib
import heapq
import random
from dataclasses import dataclass, field as dataclass_field
from typing import List, Optional, Tuple

from ..obs import runtime as _obs_runtime

from ..channel import (
    BodyAreaChannel,
    ChannelStats,
    Frame,
    FrameError,
    FrameCorruptedError,
    LossProfile,
    compress_point,
    decode_frame,
    decompress_point,
    derive_channel_seed,
    encode_frame,
    int_from_bytes,
    int_to_bytes,
    point_width_bytes,
    scalar_width_bytes,
)
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # lazy at runtime: repro.energy.comparison imports
    # repro.protocols.ops, so a top-level import here would be a cycle
    from ..energy.comparison import ComputeEnergyTable, ProtocolEnergy
    from ..energy.radio import RadioModel
from .mutual_auth import (
    AuthenticationError,
    MAC_BYTES,
    NONCE_BYTES,
    SymmetricDevice,
    SymmetricServer,
)
from .ops import OperationCount
from .peeters_hermans import PeetersHermansReader, PeetersHermansTag
from .schnorr import SchnorrTag, SchnorrVerifier

__all__ = ["SessionError", "StaleFrameError", "ReplayedFrameError",
           "PayloadRejectedError", "PeerRejectedError", "SessionHalt",
           "RetransmissionPolicy", "SessionResult", "SessionEngine",
           "ThreeRoundAdapter", "PeetersHermansAdapter", "SchnorrAdapter",
           "MutualAuthAdapter", "run_resilient_session", "PROTOCOL_NAMES",
           "make_adapter", "peeters_hermans_keys"]

_INITIATOR, _RESPONDER = 0, 1


# ----------------------------------------------------------------------
# typed failures (counted per session, campaign.errors style)
# ----------------------------------------------------------------------

class SessionError(RuntimeError):
    """A session-layer failure with frame identity attached.

    Mirrors :class:`~repro.campaign.errors.CampaignError`: the epoch
    and round ride along so a log line is self-contained.
    """

    def __init__(self, message: str, *, epoch: Optional[int] = None,
                 round_index: Optional[int] = None):
        context = []
        if epoch is not None:
            context.append(f"epoch {epoch}")
        if round_index is not None:
            context.append(f"round {round_index}")
        if context:
            message = f"{message} [{', '.join(context)}]"
        super().__init__(message)
        self.epoch = epoch
        self.round_index = round_index


class StaleFrameError(SessionError):
    """A frame from a superseded epoch or an already-passed round."""


class ReplayedFrameError(SessionError):
    """A frame this endpoint already consumed (duplicate or replay)."""


class PayloadRejectedError(SessionError):
    """A CRC-valid frame whose payload fails protocol validation
    (off-curve point, out-of-range scalar, wrong width)."""


class PeerRejectedError(SessionError):
    """The peer failed authentication (e.g. the server MAC check);
    the session *completes* unaccepted rather than retrying."""


class SessionHalt(SessionError):
    """An endpoint stops the whole session with a final outcome.

    Raised from an adapter or accounting hook (a tag whose energy
    budget is spent, a reader that sees replayed commit material); the
    engine stops dispatching and keeps the halt as its verdict.
    """

    def __init__(self, outcome: str, detail: str):
        super().__init__(detail)
        self.outcome = outcome
        self.detail = detail


# ----------------------------------------------------------------------
# retransmission policy
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RetransmissionPolicy:
    """Deadlines, retry budgets and seeded backoff.

    Attributes
    ----------
    round_deadline_s:
        How long a role waits for the frame it expects before acting.
    max_frame_attempts:
        Emissions of the responder's challenge per epoch (the only
        frame that is ever re-sent verbatim — re-sending it is safe
        because it is bound to one commit).
    max_epochs:
        Full protocol restarts (each with fresh nonces) before the
        session aborts.
    backoff_base_s / backoff_cap_s:
        Capped exponential backoff between epochs, with jitter seeded
        per ``(seed, session, epoch)`` so concurrent sessions do not
        retry in lockstep.
    frame_backoff_base_s:
        Linear backoff between challenge retransmissions.
    """

    round_deadline_s: float = 0.08
    max_frame_attempts: int = 3
    max_epochs: int = 10
    backoff_base_s: float = 0.02
    backoff_cap_s: float = 0.5
    frame_backoff_base_s: float = 0.01

    def __post_init__(self):
        if self.round_deadline_s <= 0:
            raise ValueError("round deadline must be positive")
        if self.max_frame_attempts < 1:
            raise ValueError("need at least one frame attempt")
        if not 1 <= self.max_epochs <= 255:
            raise ValueError("max_epochs must be in [1, 255] "
                             "(the frame header epoch is one byte)")
        if self.backoff_base_s < 0 or self.backoff_cap_s < 0:
            raise ValueError("backoff must be non-negative")

    def epoch_backoff(self, seed: int, session: int, epoch: int) -> float:
        """Delay before starting ``epoch`` (capped exponential + jitter)."""
        raw = min(self.backoff_cap_s, self.backoff_base_s * (2 ** epoch))
        unit = derive_channel_seed(seed, "backoff/epoch", session,
                                   epoch, 0) / 2.0 ** 64
        return raw * (0.5 + 0.5 * unit)

    def frame_backoff(self, seed: int, session: int, epoch: int,
                      attempt: int) -> float:
        """Delay before retransmitting the challenge."""
        unit = derive_channel_seed(seed, "backoff/frame", session,
                                   epoch, attempt) / 2.0 ** 64
        return self.frame_backoff_base_s * attempt * (0.5 + 0.5 * unit)


# ----------------------------------------------------------------------
# protocol adapters: the three-message pattern
# ----------------------------------------------------------------------

class ThreeRoundAdapter:
    """Base for the initiator-m0 / responder-m1 / initiator-m2 shape.

    Subclasses provide the cryptography; the session engine provides
    loss tolerance.  ``make_m2`` is guaranteed to be called at most
    once per epoch — the engine starts a fresh epoch (fresh nonces via
    :meth:`reset_epoch`) rather than ever re-deriving a response.
    """

    name: str = "abstract"
    roles: Tuple[str, str] = ("initiator", "responder")
    labels: Tuple[str, str, str] = ("m0", "m1", "m2")

    def reset_epoch(self) -> None:
        """Discard initiator nonce state before a fresh commit."""

    def make_m0(self, rng) -> bytes:
        raise NotImplementedError

    def handle_m0(self, payload: bytes, rng) -> bytes:
        """Responder: consume the commit, return the challenge."""
        raise NotImplementedError

    def make_m2(self, payload: bytes, rng) -> bytes:
        """Initiator: consume the challenge, return the response."""
        raise NotImplementedError

    def conclude(self, payload: bytes) -> Tuple[bool, Optional[int], str]:
        """Responder: consume the response; (accepted, identity, detail)."""
        raise NotImplementedError

    def initiator_ops(self) -> OperationCount:
        raise NotImplementedError

    def responder_ops(self) -> OperationCount:
        raise NotImplementedError


class PeetersHermansAdapter(ThreeRoundAdapter):
    """Figure 2 identification between live tag and reader objects."""

    name = "peeters-hermans"
    roles = ("tag", "reader")
    labels = ("R", "e", "s")

    def __init__(self, domain, tag: PeetersHermansTag,
                 reader: PeetersHermansReader):
        self.domain = domain
        self.tag = tag
        self.reader = reader
        self._scalar_width = scalar_width_bytes(domain.order)
        self._point_width = point_width_bytes(domain.field.m)
        self._commitment = None
        self._challenge: Optional[int] = None

    def reset_epoch(self) -> None:
        self.tag.abort()

    def make_m0(self, rng) -> bytes:
        return compress_point(self.domain.curve, self.tag.commit(rng))

    def handle_m0(self, payload: bytes, rng) -> bytes:
        try:
            self._commitment = decompress_point(self.domain.curve, payload)
        except FrameError as exc:
            raise PayloadRejectedError(str(exc)) from None
        self._challenge = self.reader.challenge(rng)
        return int_to_bytes(self._challenge, self._scalar_width)

    def make_m2(self, payload: bytes, rng) -> bytes:
        if len(payload) != self._scalar_width:
            raise PayloadRejectedError("challenge has the wrong width")
        try:
            s = self.tag.respond(int_from_bytes(payload), rng)
        except ValueError as exc:  # out-of-range challenge
            raise PayloadRejectedError(str(exc)) from None
        return int_to_bytes(s, self._scalar_width)

    def conclude(self, payload: bytes) -> Tuple[bool, Optional[int], str]:
        if len(payload) != self._scalar_width:
            raise PayloadRejectedError("response has the wrong width")
        identity = self.reader.identify(self._commitment, self._challenge,
                                        int_from_bytes(payload))
        if identity is None:
            return False, None, "tag not in the database"
        return True, identity, f"identified tag {identity}"

    def initiator_ops(self) -> OperationCount:
        return self.tag.ops

    def responder_ops(self) -> OperationCount:
        return self.reader.ops


class SchnorrAdapter(ThreeRoundAdapter):
    """The traceable baseline under the same loss tolerance."""

    name = "schnorr"
    roles = ("tag", "verifier")
    labels = ("R", "e", "s")

    def __init__(self, domain, tag: SchnorrTag, verifier: SchnorrVerifier):
        self.domain = domain
        self.tag = tag
        self.verifier = verifier
        self._scalar_width = scalar_width_bytes(domain.order)
        self._commitment = None
        self._challenge: Optional[int] = None

    def reset_epoch(self) -> None:
        self.tag.abort()

    def make_m0(self, rng) -> bytes:
        return compress_point(self.domain.curve, self.tag.commit(rng))

    def handle_m0(self, payload: bytes, rng) -> bytes:
        try:
            self._commitment = decompress_point(self.domain.curve, payload)
        except FrameError as exc:
            raise PayloadRejectedError(str(exc)) from None
        self._challenge = self.verifier.challenge(rng)
        return int_to_bytes(self._challenge, self._scalar_width)

    def make_m2(self, payload: bytes, rng) -> bytes:
        if len(payload) != self._scalar_width:
            raise PayloadRejectedError("challenge has the wrong width")
        return int_to_bytes(self.tag.respond(int_from_bytes(payload)),
                            self._scalar_width)

    def conclude(self, payload: bytes) -> Tuple[bool, Optional[int], str]:
        if len(payload) != self._scalar_width:
            raise PayloadRejectedError("response has the wrong width")
        ok = self.verifier.verify(self._commitment, self._challenge,
                                  int_from_bytes(payload))
        return ok, None, "verified" if ok else "verification failed"

    def initiator_ops(self) -> OperationCount:
        return self.tag.ops

    def responder_ops(self) -> OperationCount:
        return self.verifier.ops


class MutualAuthAdapter(ThreeRoundAdapter):
    """AES mutual authentication, server-auth-first, over the channel."""

    name = "mutual-auth"
    roles = ("device", "server")
    labels = ("Nd", "Ns||MACs", "MACd")

    def __init__(self, device: SymmetricDevice, server: SymmetricServer,
                 server_is_impostor: bool = False):
        self.device = device
        self.server = server
        self.server_is_impostor = server_is_impostor

    def make_m0(self, rng) -> bytes:
        return self.device.hello(rng)

    def handle_m0(self, payload: bytes, rng) -> bytes:
        if len(payload) != NONCE_BYTES:
            raise PayloadRejectedError("device nonce has the wrong width")
        nonce, mac = self.server.respond(payload, rng,
                                         corrupt=self.server_is_impostor)
        return nonce + mac

    def make_m2(self, payload: bytes, rng) -> bytes:
        if len(payload) != NONCE_BYTES + MAC_BYTES:
            raise PayloadRejectedError("server reply has the wrong width")
        try:
            return self.device.verify_server(payload[:NONCE_BYTES],
                                             payload[NONCE_BYTES:])
        except AuthenticationError as exc:
            # Server-auth-first: a failed server costs one MAC check and
            # the session stops — this is a *conclusion*, not a retry.
            raise PeerRejectedError(str(exc)) from None

    def conclude(self, payload: bytes) -> Tuple[bool, Optional[int], str]:
        if len(payload) != MAC_BYTES:
            raise PayloadRejectedError("device MAC has the wrong width")
        ok = self.server.verify_device(payload)
        return ok, None, ("device authenticated" if ok
                          else "device MAC rejected")

    def initiator_ops(self) -> OperationCount:
        return self.device.ops

    def responder_ops(self) -> OperationCount:
        return self.server.ops


# ----------------------------------------------------------------------
# session result
# ----------------------------------------------------------------------

@dataclass
class SessionResult:
    """Outcome and full accounting of one resilient session."""

    protocol: str
    session_index: int
    seed: int
    completed: bool
    accepted: bool
    identity: Optional[int]
    detail: str
    aborted_phase: Optional[str]
    rounds_completed: int
    epochs_used: int
    frames_sent: int
    retransmissions: int
    corrupt_rejections: int
    stale_rejections: int
    replay_rejections: int
    payload_rejections: int
    elapsed_s: float
    initiator_ops: OperationCount
    responder_ops: OperationCount
    channel_stats: ChannelStats
    transcript_digest: str
    initiator_energy: ProtocolEnergy
    responder_energy: ProtocolEnergy
    events: List[str] = dataclass_field(default_factory=list)

    @property
    def eventual_success(self) -> bool:
        """The availability metric: did identification ever complete?"""
        return self.completed and self.accepted

    def summary(self) -> str:
        state = ("ACCEPTED" if self.accepted else "REJECTED") \
            if self.completed else f"ABORTED at {self.aborted_phase}"
        return (
            f"{self.protocol} session {self.session_index}: {state} "
            f"after {self.epochs_used} epoch(s), "
            f"{self.frames_sent} frames "
            f"({self.retransmissions} beyond the loss-free 3), "
            f"{self.elapsed_s * 1000:.1f} ms virtual time; "
            f"initiator {self.initiator_energy.total_j * 1e6:.2f} uJ"
        )


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------

_PHASES = {
    "await-m1": "awaiting challenge",
    "closing": "response sent, awaiting conclusion",
}

#: Seed streams of the session id and of the initiator's and the
#: responder's RNGs; every caller keys its own.
_STREAMS = ("session-id", "role/initiator", "role/responder")


class SessionEngine:
    """Event-driven simulation of two endpoints over one channel.

    The repo's one three-round engine: a private ``(time, seq)``
    agenda with per-role timers, frame accounting, the initiator and
    responder state machines and the dispatch loop.
    :func:`run_resilient_session` drives it with a
    :class:`ThreeRoundAdapter`; the identification server
    (:mod:`repro.server.reader`) and the adversary lab
    (:mod:`repro.adversary.engine`) subclass it — each its own adapter
    — and override only these hooks:

    * ``_advance(at)`` / ``_conclude(payload)``: awaitables for how the
      clock moves and for the responder's closing check;
    * ``_account_tx`` / ``_account_rx``: what a frame costs its
      endpoint, and whether a receiver hears it at all;
    * ``_start`` / ``_responder_frame`` / ``_on_event``: how the
      session opens, the responder's side, and extra agenda events.

    An endpoint that must stop the whole session raises
    :class:`SessionHalt`.  :meth:`simulate` is the loop as a
    coroutine; :meth:`run` drives it on the engine's private clock,
    where nothing ever waits.
    """

    def __init__(self, adapter: ThreeRoundAdapter, channel: BodyAreaChannel,
                 policy: RetransmissionPolicy, seed: int,
                 session_index: int, *,
                 streams: Tuple[str, str, str] = _STREAMS,
                 start_at: float = 0.0):
        self.adapter = adapter
        self.channel = channel
        self.policy = policy
        self.seed = seed
        self.session_index = session_index
        id_stream, init_stream, resp_stream = streams
        self.session_id = derive_channel_seed(seed, id_stream,
                                              session_index, 0, 0) \
            & 0xFFFFFFFF
        self.rng_init = random.Random(derive_channel_seed(
            seed, init_stream, session_index, 0, 0))
        self.rng_resp = random.Random(derive_channel_seed(
            seed, resp_stream, session_index, 0, 0))
        self.max_epochs = policy.max_epochs
        self.backoff_scale = 1.0

        self.now = self.started_at = start_at
        self._queue: list = []
        self._seq = 0
        self._timer_seq = [0, 0]

        # initiator state
        self.init_state = "await-m1"
        self.epoch = -1
        self.consumed_m1_attempt: Optional[int] = None
        # responder state
        self.resp_state = "await-m0"
        self.resp_epoch = -1
        self.m1_bytes: Optional[bytes] = None
        self.m1_attempt = 0

        # bookkeeping
        self.frames_sent = 0
        self.corrupt = 0
        self.stale = 0
        self.replayed = 0
        self.payload_rejected = 0
        self.rounds_completed = 0
        self.concluded: Optional[Tuple[bool, Optional[int], str]] = None
        self.peer_rejected: Optional[str] = None
        self.aborted_phase: Optional[str] = None
        self.halt: Optional[SessionHalt] = None
        self.log: List[str] = []

    # -- helpers -------------------------------------------------------

    def _push(self, at: float, kind: str, *args) -> None:
        self._seq += 1
        heapq.heappush(self._queue, (at, self._seq, kind, args))

    def _arm_timer(self, role: int) -> None:
        self._timer_seq[role] += 1
        self._push(self.now + self.policy.round_deadline_s, "timer", role,
                   self._timer_seq[role])

    def _note(self, text: str) -> None:
        self.log.append(
            f"{(self.now - self.started_at) * 1000:9.3f}ms {text}")

    def _ops(self, role: int) -> OperationCount:
        return self.adapter.initiator_ops() if role == _INITIATOR \
            else self.adapter.responder_ops()

    def _account_tx(self, sender: int, data: bytes) -> None:
        """Charge one transmitted frame to its sender."""
        self._ops(sender).tx_bits += len(data) * 8
        self.frames_sent += 1

    def _account_rx(self, role: int, data: bytes) -> bool:
        """Charge one arriving frame to its receiver; False drops it
        unheard."""
        self._ops(role).rx_bits += len(data) * 8
        return True

    def _send(self, sender: int, epoch: int, round_index: int,
              attempt: int, label: str, payload: bytes) -> None:
        frame = Frame(self.session_id, epoch, round_index, attempt,
                      sender, label, payload)
        data = encode_frame(frame)
        self._account_tx(sender, data)
        deliveries = self.channel.transmit(data, epoch * 3 + round_index,
                                           attempt, self.now)
        self._note(f"tx {self.adapter.roles[sender]} {label} "
                   f"epoch={epoch} attempt={attempt} "
                   f"bytes={len(data)} -> {len(deliveries)} copies")
        for delivery in deliveries:
            self._push(delivery.at, "deliver", 1 - sender, delivery.data)

    # -- initiator -----------------------------------------------------

    def _start(self) -> None:
        """Open the session: the initiator's first commit."""
        self._start_epoch()

    def _start_epoch(self) -> None:
        if self.epoch + 1 >= self.max_epochs:
            self.aborted_phase = _PHASES.get(self.init_state,
                                             self.init_state)
            self._note(f"abort: epoch budget exhausted in "
                       f"{self.init_state}")
            return
        if self.epoch >= 0:
            self.adapter.reset_epoch()
        # Commit before counting the epoch: a halt here (a spent
        # energy budget) leaves it unused.
        payload = self.adapter.make_m0(self.rng_init)
        self.epoch += 1
        self.consumed_m1_attempt = None
        self.init_state = "await-m1"
        self._send(_INITIATOR, self.epoch, 0, 0, self.adapter.labels[0],
                   payload)
        self._arm_timer(_INITIATOR)

    def _restart_epoch(self, reason: str) -> None:
        self._note(f"epoch {self.epoch} failed ({reason})")
        delay = self.policy.epoch_backoff(self.seed, self.session_index,
                                          self.epoch + 1) \
            * self.backoff_scale
        self.init_state = "backoff"
        self._push(self.now + delay, "epoch")

    def _initiator_frame(self, frame: Frame) -> None:
        if frame.round_index != 1:
            self.stale += 1
            self._note(f"rx tag: {StaleFrameError('unexpected round', epoch=frame.epoch, round_index=frame.round_index)}")
            return
        if frame.epoch != self.epoch:
            self.stale += 1
            self._note(f"rx tag: {StaleFrameError('challenge for a superseded epoch', epoch=frame.epoch, round_index=1)}")
            return
        if self.init_state == "await-m1":
            try:
                response = self.adapter.make_m2(frame.payload,
                                                self.rng_init)
            except PayloadRejectedError as exc:
                self.payload_rejected += 1
                self._note(f"rx tag: {exc}")
                return
            except PeerRejectedError as exc:
                # Conclusion by early abort (mutual auth, server first).
                self.peer_rejected = str(exc)
                self.rounds_completed = max(self.rounds_completed, 2)
                self._note(f"peer rejected: {exc}")
                return
            self.consumed_m1_attempt = frame.attempt
            self.rounds_completed = max(self.rounds_completed, 2)
            self._send(_INITIATOR, self.epoch, 2, 0, self.adapter.labels[2],
                       response)
            self.init_state = "closing"
            self._arm_timer(_INITIATOR)
        elif self.init_state == "closing":
            if frame.attempt > (self.consumed_m1_attempt or 0):
                # A *retransmitted* challenge means the responder never
                # saw our response; the nonce is spent, so the only
                # safe recovery is a fresh epoch.
                self.replayed += 1
                self._note(
                    f"rx tag: {ReplayedFrameError('retransmitted challenge after response; response frame presumed lost', epoch=frame.epoch, round_index=1)}"
                )
                self._restart_epoch("response presumed lost")
            else:
                self.replayed += 1
                self._note(f"rx tag: {ReplayedFrameError('duplicate challenge', epoch=frame.epoch, round_index=1)}")

    def _initiator_timeout(self) -> None:
        if self.init_state in ("await-m1", "closing"):
            self._restart_epoch(f"deadline expired in {self.init_state}")

    # -- responder -----------------------------------------------------

    async def _responder_frame(self, frame: Frame) -> None:
        if frame.round_index == 0:
            if frame.epoch < self.resp_epoch or (
                    frame.epoch == self.resp_epoch
                    and self.resp_state == "done"):
                self.stale += 1
                self._note(f"rx reader: {StaleFrameError('commit for a superseded epoch', epoch=frame.epoch, round_index=0)}")
                return
            if frame.epoch == self.resp_epoch:
                self.replayed += 1
                self._note(f"rx reader: {ReplayedFrameError('duplicate commit', epoch=frame.epoch, round_index=0)}")
                return
            try:
                m1 = self.adapter.handle_m0(frame.payload, self.rng_resp)
            except PayloadRejectedError as exc:
                self.payload_rejected += 1
                self._note(f"rx reader: {exc}")
                return
            self.resp_epoch = frame.epoch
            self.rounds_completed = max(self.rounds_completed, 1)
            self.m1_bytes = m1
            self.m1_attempt = 0
            self.resp_state = "await-m2"
            self._send(_RESPONDER, self.resp_epoch, 1, 0,
                       self.adapter.labels[1], m1)
            self._arm_timer(_RESPONDER)
        elif frame.round_index == 2:
            if frame.epoch != self.resp_epoch:
                self.stale += 1
                self._note(f"rx reader: {StaleFrameError('response for a superseded epoch', epoch=frame.epoch, round_index=2)}")
                return
            if self.resp_state == "done":
                self.replayed += 1
                self._note(f"rx reader: {ReplayedFrameError('duplicate response', epoch=frame.epoch, round_index=2)}")
                return
            try:
                self.concluded = await self._conclude(frame.payload)
            except PayloadRejectedError as exc:
                self.payload_rejected += 1
                self._note(f"rx reader: {exc}")
                return
            self.resp_state = "done"
            self.rounds_completed = 3
            self._note(f"concluded: {self.concluded[2]}")
        else:
            self.stale += 1
            self._note(f"rx reader: {StaleFrameError('unexpected round', epoch=frame.epoch, round_index=frame.round_index)}")

    def _responder_timeout(self) -> None:
        if self.resp_state != "await-m2":
            return
        if self.m1_attempt + 1 < self.policy.max_frame_attempts:
            self.m1_attempt += 1
            delay = self.policy.frame_backoff(self.seed, self.session_index,
                                              self.resp_epoch,
                                              self.m1_attempt)
            self._push(self.now + delay, "m1-retransmit",
                       self.resp_epoch, self.m1_attempt)
        else:
            self._note(f"reader gives up on epoch {self.resp_epoch} "
                       "(challenge retries exhausted)")
            self.resp_state = "await-m0"

    async def _conclude(self, payload: bytes
                        ) -> Tuple[bool, Optional[int], str]:
        """Responder: the closing check; (accepted, identity, detail)."""
        return self.adapter.conclude(payload)

    # -- main loop -----------------------------------------------------

    async def _advance(self, at: float) -> None:
        """Move the clock to the agenda head's time."""
        self.now = max(self.now, at)

    def _on_event(self, kind: str, args: tuple) -> None:
        """An agenda event a subclass scheduled."""
        raise ValueError(f"unknown agenda event {kind!r}")

    def _finished(self) -> bool:
        return self.concluded is not None \
            or self.peer_rejected is not None \
            or self.aborted_phase is not None or self.halt is not None

    async def _deliver(self, role: int, data: bytes) -> None:
        if not self._account_rx(role, data):
            return
        try:
            frame = decode_frame(data)
        except FrameCorruptedError:
            self.corrupt += 1
            self._note(f"rx {self.adapter.roles[role]}: "
                       "frame CRC mismatch, discarded")
            return
        except FrameError as exc:
            self.corrupt += 1
            self._note(f"rx {self.adapter.roles[role]}: {exc}")
            return
        if frame.session != self.session_id or frame.sender == role:
            self.stale += 1
            return
        if role == _INITIATOR:
            self._initiator_frame(frame)
        else:
            await self._responder_frame(frame)

    async def simulate(self) -> None:
        """Dispatch the agenda until a verdict, an abort or a halt."""
        try:
            self._start()
            while self._queue and not self._finished():
                at, _seq, kind, args = heapq.heappop(self._queue)
                await self._advance(at)
                if kind == "deliver":
                    await self._deliver(*args)
                elif kind == "timer":
                    role, seq = args
                    if seq != self._timer_seq[role]:
                        continue  # superseded timer
                    if role == _INITIATOR:
                        self._initiator_timeout()
                    else:
                        self._responder_timeout()
                elif kind == "epoch":
                    self._start_epoch()
                elif kind == "m1-retransmit":
                    epoch, attempt = args
                    if self.resp_state == "await-m2" \
                            and self.resp_epoch == epoch \
                            and self.m1_attempt == attempt:
                        self._send(_RESPONDER, epoch, 1, attempt,
                                   self.adapter.labels[1], self.m1_bytes)
                        self._arm_timer(_RESPONDER)
                else:
                    self._on_event(kind, args)
        except SessionHalt as halt:
            self.halt = halt
            self._note(f"halt ({halt.outcome}): {halt.detail}")
        if not self._finished():
            # Queue drained without a verdict (should not happen: the
            # initiator timer chain is the liveness driver).
            self.aborted_phase = "event queue drained"

    def run(self) -> None:
        """Simulate on the private clock, where nothing ever waits."""
        steps = self.simulate()
        try:
            steps.send(None)
        except StopIteration:
            return
        steps.close()
        raise RuntimeError("a private-clock session awaited a shared loop")


def run_resilient_session(
    adapter: ThreeRoundAdapter,
    profile: Optional[LossProfile] = None,
    policy: Optional[RetransmissionPolicy] = None,
    seed: int = 0,
    session_index: int = 0,
    radio: "Optional[RadioModel]" = None,
    distance_m: float = 0.5,
    table: "Optional[ComputeEnergyTable]" = None,
) -> SessionResult:
    """Run one protocol session over the lossy channel, with accounting.

    Deterministic: the result (transcript digest, retry counts, energy
    totals) is a pure function of ``(adapter state, seed,
    session_index, profile, policy)``.
    """
    from ..energy.comparison import ComputeEnergyTable, protocol_energy
    from ..energy.radio import RadioModel

    profile = profile if profile is not None else LossProfile()
    policy = policy or RetransmissionPolicy()
    radio = radio or RadioModel()
    table = table or ComputeEnergyTable()
    channel = BodyAreaChannel(profile, seed=seed, session=session_index)
    engine = SessionEngine(adapter, channel, policy, seed, session_index)
    rt = _obs_runtime.current()
    if rt is not None:
        with rt.span("protocol.session", key=session_index,
                     protocol=adapter.name,
                     loss=f"{profile.frame_loss:g}") as span:
            engine.run()
            if span is not None:
                span.set(epochs=engine.epoch + 1,
                         frames=engine.frames_sent,
                         concluded=engine.concluded is not None)
    else:
        engine.run()

    if engine.concluded is not None:
        accepted, identity, detail = engine.concluded
        completed = True
    elif engine.peer_rejected is not None:
        accepted, identity, detail = False, None, engine.peer_rejected
        completed = True
    else:
        accepted, identity, detail = False, None, "session aborted"
        completed = False

    digest = hashlib.sha256("\n".join(engine.log).encode()).hexdigest()
    initiator_ops = adapter.initiator_ops()
    responder_ops = adapter.responder_ops()
    result = SessionResult(
        protocol=adapter.name,
        session_index=session_index,
        seed=seed,
        completed=completed,
        accepted=accepted,
        identity=identity,
        detail=detail,
        aborted_phase=engine.aborted_phase,
        rounds_completed=engine.rounds_completed,
        epochs_used=engine.epoch + 1,
        frames_sent=engine.frames_sent,
        retransmissions=max(0, engine.frames_sent - 3),
        corrupt_rejections=engine.corrupt,
        stale_rejections=engine.stale,
        replay_rejections=engine.replayed,
        payload_rejections=engine.payload_rejected,
        elapsed_s=engine.now,
        initiator_ops=initiator_ops,
        responder_ops=responder_ops,
        channel_stats=channel.stats,
        transcript_digest=digest,
        initiator_energy=protocol_energy(
            f"{adapter.name}/{adapter.roles[0]}", initiator_ops,
            distance_m, radio, table),
        responder_energy=protocol_energy(
            f"{adapter.name}/{adapter.roles[1]}", responder_ops,
            distance_m, radio, table),
        events=engine.log,
    )
    if rt is not None:
        _record_session_metrics(rt.registry, result)
    return result


def _record_session_metrics(registry, result: SessionResult) -> None:
    """One finished session into the live protocol counters."""
    protocol = result.protocol
    outcome = ("accepted" if result.accepted
               else "rejected" if result.completed else "aborted")
    registry.counter(
        "repro_protocol_sessions_total", "sessions by outcome",
    ).inc(protocol=protocol, outcome=outcome)
    registry.counter(
        "repro_protocol_epochs_total", "protocol epochs consumed",
    ).inc(result.epochs_used, protocol=protocol)
    registry.counter(
        "repro_protocol_frames_total", "frames sent by all endpoints",
    ).inc(result.frames_sent, protocol=protocol)
    registry.counter(
        "repro_protocol_retransmissions_total",
        "frames beyond the lossless three",
    ).inc(result.retransmissions, protocol=protocol)
    rejections = registry.counter(
        "repro_protocol_rejections_total",
        "receiver-side frame rejections by kind",
    )
    for kind, count in (("corrupt", result.corrupt_rejections),
                        ("stale", result.stale_rejections),
                        ("replay", result.replay_rejections),
                        ("payload", result.payload_rejections)):
        if count:
            rejections.inc(count, protocol=protocol, kind=kind)
    energy = registry.counter(
        "repro_protocol_energy_uj_total", "microjoules spent, by role",
    )
    energy.inc(result.initiator_energy.total_j * 1e6,
               protocol=protocol, role="initiator")
    energy.inc(result.responder_energy.total_j * 1e6,
               protocol=protocol, role="responder")


# ----------------------------------------------------------------------
# adapter factory (CLI / fleet entry point)
# ----------------------------------------------------------------------

PROTOCOL_NAMES = ("peeters-hermans", "schnorr", "mutual-auth")


def peeters_hermans_keys(domain, seed: int,
                         session_index: int) -> Tuple[int, int]:
    """The reader's ``y`` and the tag's ``x`` for one session.

    Drawn in that order from the ``"keys"`` stream of
    ``(seed, session_index)``, so the fleet's sessions and the
    intermittent engine provision the same device.
    """
    rng = random.Random(derive_channel_seed(seed, "keys", session_index,
                                            0, 0))
    ring = domain.scalar_ring
    y = ring.random_scalar(rng)
    return y, ring.random_scalar(rng)


def make_adapter(protocol: str, domain=None, seed: int = 0,
                 session_index: int = 0,
                 database=None) -> ThreeRoundAdapter:
    """Fresh protocol endpoints with secrets derived from ``seed``.

    Key material is derived per ``(seed, session_index)`` so a fleet
    of sessions is reproducible and embarrassingly parallel.

    ``database`` (Peeters–Hermans only) swaps the reader's tag store:
    any :class:`~repro.protocols.database.TagDatabase` — e.g. the
    sharded fleet-scale store of :mod:`repro.server.enrollment` — is
    used as-is and assumed pre-enrolled; the default ``None`` keeps
    the historical per-session toy database holding exactly this
    session's tag.  Either way the reader's "tag not in the database"
    conclusion is whatever ``database.lookup`` says.
    """
    rng = random.Random(derive_channel_seed(seed, "keys", session_index,
                                            0, 0))
    if protocol == "mutual-auth":
        key = bytes(rng.getrandbits(8) for _ in range(16))
        return MutualAuthAdapter(SymmetricDevice(key), SymmetricServer(key))
    if domain is None:
        raise ValueError(f"protocol {protocol!r} needs a curve domain")
    if protocol == "peeters-hermans":
        y, x = peeters_hermans_keys(domain, seed, session_index)
        reader = PeetersHermansReader(domain, y, database=database)
        tag = PeetersHermansTag(domain, x, reader.public)
        if database is None:
            reader.register(session_index + 1, tag.identity_point)
        return PeetersHermansAdapter(domain, tag, reader)
    if protocol == "schnorr":
        tag = SchnorrTag(domain, domain.scalar_ring.random_scalar(rng))
        return SchnorrAdapter(domain, tag, SchnorrVerifier(domain,
                                                           tag.public))
    raise ValueError(f"unknown protocol {protocol!r} "
                     f"(know {', '.join(PROTOCOL_NAMES)})")
