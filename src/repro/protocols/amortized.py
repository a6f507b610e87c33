"""Epoch-bounded session amortization over the lossy channel.

The paper prices one Schnorr/Peeters-Hermans identification per
interaction — "wireless communication is power-hungry" and so is the
point multiplication behind every handshake.  This module runs the
*amortized* design instead: pay the asymmetric handshake once per
**epoch**, derive a session key from its transcript, then protect the
epoch's messages with a symmetric AEAD backend
(:mod:`repro.backends`) whose per-message bill is two to three orders
of magnitude smaller.  The epoch length is the forward-secrecy
window: a captured session key exposes at most ``epoch_messages``
messages, and :func:`repro.security.score_design` prices exactly that
trade-off through a :func:`~repro.security.session_posture`.

Mechanics, all deterministic in ``(spec, frame_loss,
session_index)``:

* every epoch reruns the full resilient three-round handshake of
  :func:`~repro.protocols.session.run_resilient_session` (same
  identity, fresh nonces) over its own seeded channel stream;
* the session key is a SHA-1 KDF over the epoch's transcript digest —
  both ends saw the same frames, so both derive the same key, and a
  fresh transcript means a fresh key;
* each message is sealed once (nonce = epoch || counter, so a
  retransmitted frame never reuses a nonce with different plaintext)
  and retransmitted verbatim until one copy arrives uncorrupted or
  the attempt budget runs out; link-layer acknowledgements are
  modelled as free, the standard idealization — the *data* frames pay
  full radio and engine energy, retries included;
* a corrupted copy still costs the receiver a full AEAD open (the
  tag check fails after the work is done), the same energy asymmetry
  the battery-depletion adversary exploits;
* every microjoule lands in exactly one of three components —
  ``handshake``, ``message_compute``, ``message_radio`` — and the obs
  spans (``session.epoch`` > ``handshake`` | ``message``) carry the
  same decomposition, so the span tree's µJ sum *equals* the record's
  total by construction.

Fan-out (:func:`run_amortized_soak`) is the fleet's, through the soak
kernel's :func:`repro.soak.sweep_records`: embarrassingly parallel
sessions, records in session order, a
:meth:`~AmortizedReport.summary_payload` of worker-invariant facts
only, and a summary table rendered from the report's own figures.
"""

from __future__ import annotations

import contextlib
import hashlib
from dataclasses import dataclass, field as dataclass_field
from typing import List, Optional, Sequence, Tuple

from ..backends import AeadTagError, EngineTrace, get_backend
from ..backends.base import SYMMETRIC_BACKEND_NAMES
from ..channel import BodyAreaChannel, derive_channel_seed, loss_percent
from ..jsonspec import JsonSpec
from ..obs import runtime as _obs_runtime
from ..soak import sweep_records
from .fleet import DEFAULT_SWEEP, _loss_salt, validate_sweep
from .session import RetransmissionPolicy, make_adapter, \
    run_resilient_session

__all__ = ["AmortizedSpec", "AmortizedRecord", "AmortizedPoint",
           "AmortizedReport", "run_amortized_session",
           "run_amortized_soak", "derive_session_key"]

#: Frame header + CRC modelled around a data frame's nonce||ct||tag.
FRAME_OVERHEAD_BYTES = 8

#: Handshake protocols that produce a shared transcript to key from.
_HANDSHAKE_PROTOCOLS = ("peeters-hermans", "schnorr")


@dataclass(frozen=True)
class AmortizedSpec(JsonSpec):
    """Everything an amortized run depends on (and nothing else).

    ``epoch_messages`` is the forward-secrecy window — ``rekey_epoch``,
    ``private_identification`` and ``erase_keys`` are the knobs of
    :func:`repro.security.session_posture`, so the same object that
    drives the simulation also prices the key-compromise threat.
    """

    protocol: str = "peeters-hermans"
    backend: str = "simon-aead"
    curve: str = "TOY-B17"
    epoch_messages: int = 16
    messages: int = 64
    message_bytes: int = 32
    sessions: int = 8
    seed: int = 2013
    sweep: Tuple[float, ...] = DEFAULT_SWEEP
    duplicate_rate: float = 0.02
    reorder_rate: float = 0.02
    distance_m: float = 0.5
    max_epochs: int = 12
    round_deadline_s: float = 0.08
    max_attempts_per_message: int = 4
    retry_spacing_s: float = 0.02
    vdd: float = 1.0
    frequency_hz: float = 847.5e3
    messages_per_day: float = 24.0
    erase_keys: bool = True

    _digest_chars = 16

    def __post_init__(self):
        if self.protocol not in _HANDSHAKE_PROTOCOLS:
            raise ValueError(
                f"amortization needs a transcript-keyed handshake "
                f"protocol, not {self.protocol!r} "
                f"(know {', '.join(_HANDSHAKE_PROTOCOLS)})")
        if self.backend not in SYMMETRIC_BACKEND_NAMES:
            raise ValueError(
                f"unknown backend {self.backend!r} "
                f"(know {', '.join(SYMMETRIC_BACKEND_NAMES)})")
        if self.epoch_messages < 1:
            raise ValueError("epoch_messages must be at least 1")
        if self.epoch_messages > 0xFFFF:
            raise ValueError("epoch_messages must fit the 16-bit "
                             "nonce counter")
        if self.messages < 1:
            raise ValueError("need at least one message")
        if self.sessions < 1:
            raise ValueError("need at least one session")
        if self.max_attempts_per_message < 1:
            raise ValueError("need at least one attempt per message")
        validate_sweep(self.sweep)

    # -- session-posture knobs -----------------------------------------

    @property
    def rekey_epoch(self) -> int:
        return self.epoch_messages

    @property
    def private_identification(self) -> bool:
        return self.protocol == "peeters-hermans"

    # -- derived pieces ------------------------------------------------

    @property
    def handshakes(self) -> int:
        """Epochs (= handshakes = session keys) one session needs."""
        return -(-self.messages // self.epoch_messages)

    def profile(self, frame_loss: float):
        from ..channel import LossProfile
        from ..energy.radio import RadioModel

        return LossProfile.from_radio(
            RadioModel(), self.distance_m, frame_loss=frame_loss,
            duplicate_rate=self.duplicate_rate,
            reorder_rate=self.reorder_rate,
        )

    def policy(self) -> RetransmissionPolicy:
        return RetransmissionPolicy(
            max_epochs=self.max_epochs,
            round_deadline_s=self.round_deadline_s)


def derive_session_key(seed: int, session_index: int, epoch: int,
                       transcript_digest: str, key_bytes: int) -> bytes:
    """The epoch key: a SHA-1 KDF over the handshake transcript.

    Both endpoints observed the same accepted transcript, so both
    derive the same key without another frame on the air; a fresh
    epoch has a fresh transcript and therefore a fresh key.
    """
    from ..primitives.sha1 import sha1

    out = b""
    counter = 0
    while len(out) < key_bytes:
        out += sha1(f"repro.amortized/key/{seed}/{session_index}/"
                    f"{epoch}/{transcript_digest}/{counter}".encode())
        counter += 1
    return out[:key_bytes]


@dataclass(frozen=True)
class AmortizedRecord:
    """One session's outcome: message tallies and the µJ split."""

    session_index: int
    delivered: int
    failed: int
    attempts: int
    keys_used: int
    handshakes_failed: int
    worst_key_window: int
    handshake_uj: float
    message_compute_uj: float
    message_radio_uj: float
    elapsed_s: float
    transcript_digest: str

    @property
    def total_uj(self) -> float:
        return (self.handshake_uj + self.message_compute_uj
                + self.message_radio_uj)


def _trace_uj(trace: EngineTrace, model, point) -> float:
    return model.report_activity(trace.consumed, trace.cycles,
                                 point).energy_joules * 1e6


def run_amortized_session(spec: AmortizedSpec, frame_loss: float,
                          session_index: int) -> AmortizedRecord:
    """Run one amortized session: epochs of handshake + sealed data.

    Pure function of ``(spec, frame_loss, session_index)`` — channel
    streams, nonces and keys are all derived, never drawn from global
    state.
    """
    from ..ec.curves import get_curve
    from ..energy.comparison import ComputeEnergyTable
    from ..energy.radio import RadioModel
    from ..power.evaluation import reference_model
    from ..power.technology import OperatingPoint

    domain = get_curve(spec.curve)
    backend = get_backend(spec.backend)
    profile = spec.profile(frame_loss)
    policy = spec.policy()
    radio = RadioModel()
    model = reference_model(spec.curve)
    point = OperatingPoint(frequency_hz=spec.frequency_hz, vdd=spec.vdd)
    base_seed = spec.seed ^ _loss_salt(frame_loss)
    rt = _obs_runtime.current()

    delivered = failed = attempts_total = 0
    keys_used = handshakes_failed = 0
    worst_key_window = 0
    handshake_uj = message_compute_uj = message_radio_uj = 0.0
    elapsed_s = 0.0
    transcript = hashlib.sha256()

    for epoch in range(spec.handshakes):
        first = epoch * spec.epoch_messages
        window = min(spec.epoch_messages, spec.messages - first)
        epoch_span = rt.span("session.epoch", key=epoch,
                             session=session_index, epoch=epoch,
                             window=window) \
            if rt is not None else contextlib.nullcontext()
        with epoch_span as esp:
            epoch_handshake_uj, epoch_message_uj = 0.0, 0.0
            hs_span = rt.span("handshake", key=epoch,
                              protocol=spec.protocol) \
                if rt is not None else contextlib.nullcontext()
            with hs_span as hsp:
                # Same identity every epoch (keys derive from
                # (seed, session_index)); a fresh adapter means fresh
                # nonces.  The handshake seed is salted per epoch so
                # each rekey sees an independent channel stream.
                adapter = make_adapter(
                    spec.protocol, domain, seed=spec.seed,
                    session_index=session_index)
                hs_seed = derive_channel_seed(
                    base_seed, "amortized/handshake",
                    session_index, epoch, 0)
                result = run_resilient_session(
                    adapter, profile, policy, seed=hs_seed,
                    session_index=session_index,
                    distance_m=spec.distance_m,
                    table=ComputeEnergyTable(),
                )
                hs_uj = result.initiator_energy.total_j * 1e6
                handshake_uj += hs_uj
                epoch_handshake_uj = hs_uj
                elapsed_s += result.elapsed_s
                transcript.update(
                    f"handshake/{epoch}/{result.eventual_success}/"
                    f"{result.transcript_digest}\n".encode())
                if hsp is not None:
                    hsp.set(uj=hs_uj,
                            accepted=result.eventual_success,
                            epochs=result.epochs_used)
            if not result.eventual_success:
                # No shared transcript, no session key: this window's
                # messages are lost; the next epoch retries with a
                # fresh handshake.
                handshakes_failed += 1
                failed += window
                transcript.update(
                    f"window/{epoch}/unkeyed/{window}\n".encode())
                if esp is not None:
                    esp.set(uj=epoch_handshake_uj, delivered=0,
                            failed=window)
                continue
            keys_used += 1
            worst_key_window = max(worst_key_window, window)
            epoch_delivered = epoch_failed = 0
            key = derive_session_key(spec.seed, session_index, epoch,
                                     result.transcript_digest,
                                     backend.key_bytes)
            channel = BodyAreaChannel(
                profile,
                seed=derive_channel_seed(base_seed, "amortized/data",
                                         session_index, epoch, 0),
                session=session_index)
            now = 0.0
            for m in range(window):
                index = first + m
                nonce = ((epoch << 16) | m).to_bytes(
                    backend.nonce_bytes, "big")
                plaintext = _message_payload(spec, session_index, index)
                msg_span = rt.span("message", key=index, epoch=epoch) \
                    if rt is not None else contextlib.nullcontext()
                with msg_span as msp:
                    sealed = backend.seal(key, nonce, plaintext)
                    compute_uj = _trace_uj(sealed.trace, model, point)
                    wire_bytes = (FRAME_OVERHEAD_BYTES + len(nonce)
                                  + len(sealed.ciphertext)
                                  + len(sealed.tag))
                    wire = nonce + sealed.ciphertext + sealed.tag
                    radio_uj = 0.0
                    got = False
                    msg_attempts = 0
                    for attempt in range(spec.max_attempts_per_message):
                        msg_attempts += 1
                        radio_uj += radio.transmit_energy(
                            wire_bytes * 8, spec.distance_m) * 1e6
                        deliveries = channel.transmit(
                            wire, frame=index, attempt=attempt,
                            now=now)
                        now += spec.retry_spacing_s
                        for delivery in deliveries:
                            # Every arriving copy costs the receiver
                            # radio and a full AEAD open — a corrupted
                            # copy fails the tag *after* the work.
                            radio_uj += radio.receive_energy(
                                wire_bytes * 8) * 1e6
                            data = delivery.data
                            d_nonce = data[:backend.nonce_bytes]
                            d_ct = data[backend.nonce_bytes:
                                        -backend.tag_bytes]
                            d_tag = data[-backend.tag_bytes:]
                            try:
                                opened = backend.open(key, d_nonce,
                                                      d_ct, d_tag)
                            except AeadTagError as exc:
                                compute_uj += _trace_uj(
                                    exc.trace, model, point)
                                continue
                            compute_uj += _trace_uj(
                                opened.trace, model, point)
                            if opened.plaintext == plaintext:
                                got = True
                        if got:
                            break
                    attempts_total += msg_attempts
                    message_compute_uj += compute_uj
                    message_radio_uj += radio_uj
                    epoch_message_uj += compute_uj + radio_uj
                    if got:
                        delivered += 1
                        epoch_delivered += 1
                    else:
                        failed += 1
                        epoch_failed += 1
                    transcript.update(
                        f"message/{index}/{got}/{msg_attempts}/"
                        f"{nonce.hex()}\n".encode())
                    if msp is not None:
                        msp.set(uj=compute_uj + radio_uj,
                                delivered=got, attempts=msg_attempts)
            elapsed_s += now
            if esp is not None:
                esp.set(uj=epoch_handshake_uj + epoch_message_uj,
                        delivered=epoch_delivered,
                        failed=epoch_failed)

    return AmortizedRecord(
        session_index=session_index,
        delivered=delivered,
        failed=failed,
        attempts=attempts_total,
        keys_used=keys_used,
        handshakes_failed=handshakes_failed,
        worst_key_window=worst_key_window,
        handshake_uj=handshake_uj,
        message_compute_uj=message_compute_uj,
        message_radio_uj=message_radio_uj,
        elapsed_s=elapsed_s,
        transcript_digest=transcript.hexdigest(),
    )


def _message_payload(spec: AmortizedSpec, session_index: int,
                     index: int) -> bytes:
    """The deterministic telemetry payload of one message."""
    from ..primitives.sha1 import sha1

    out = b""
    counter = 0
    while len(out) < spec.message_bytes:
        out += sha1(f"repro.amortized/payload/{spec.seed}/"
                    f"{session_index}/{index}/{counter}".encode())
        counter += 1
    return out[:spec.message_bytes]


# ----------------------------------------------------------------------
# the sweep: sessions x loss rates, fleet-style fan-out
# ----------------------------------------------------------------------

@dataclass
class AmortizedPoint:
    """Every session's record at one loss rate."""

    frame_loss: float
    records: List[AmortizedRecord] = dataclass_field(
        default_factory=list)

    @property
    def sessions(self) -> int:
        return len(self.records)

    @property
    def messages(self) -> int:
        return sum(r.delivered + r.failed for r in self.records)

    @property
    def delivered(self) -> int:
        return sum(r.delivered for r in self.records)

    @property
    def delivery_rate(self) -> float:
        return self.delivered / self.messages if self.messages else 0.0

    @property
    def keys_used(self) -> int:
        """Successful handshakes, one session key each."""
        return sum(r.keys_used for r in self.records)

    @property
    def total_uj(self) -> float:
        return sum(r.total_uj for r in self.records)

    @property
    def mean_uj_per_message(self) -> float:
        """All energy (handshakes included) over delivered messages."""
        if not self.delivered:
            return float("inf")
        return self.total_uj / self.delivered

    @property
    def mean_handshake_uj(self) -> float:
        """Mean cost of one successful handshake (= one session key)."""
        keys = self.keys_used
        if not keys:
            return float("inf")
        return sum(r.handshake_uj for r in self.records) / keys

    @property
    def mean_message_only_uj(self) -> float:
        """Per-delivered-message engine + radio bill, handshakes
        excluded — the part both designs pay identically."""
        if not self.delivered:
            return float("inf")
        return sum(r.message_compute_uj + r.message_radio_uj
                   for r in self.records) / self.delivered

    @property
    def extension_factor(self) -> float:
        """Battery-life extension vs the handshake-per-message design.

        The pure-ECC baseline pays one full handshake *plus* the data
        frame for every message; the amortized design pays the same
        data frame but only ``1/epoch`` of the handshake.  >1 means
        the epoch paid off.
        """
        amortized = self.mean_uj_per_message
        baseline = self.mean_handshake_uj + self.mean_message_only_uj
        if amortized in (0.0, float("inf")) \
                or baseline == float("inf"):
            return 0.0
        return baseline / amortized

    def lifetime_years(self, spec: AmortizedSpec,
                       budget=None) -> float:
        from ..energy.budget import PACEMAKER_BUDGET

        budget = budget or PACEMAKER_BUDGET
        mean_j = self.mean_uj_per_message * 1e-6
        if not mean_j > 0 or mean_j == float("inf"):
            return 0.0
        return budget.lifetime_years_at(spec.messages_per_day, mean_j)

    def digest(self) -> str:
        """Order-independent digest over every session transcript."""
        h = hashlib.sha256()
        for record in sorted(self.records,
                             key=lambda r: r.session_index):
            h.update(f"{record.session_index}:".encode())
            h.update(record.transcript_digest.encode())
        return h.hexdigest()


@dataclass
class AmortizedReport:
    """The full sweep, plus the derived verdicts."""

    spec: AmortizedSpec
    points: List[AmortizedPoint]

    @property
    def fully_delivered(self) -> bool:
        return all(p.delivery_rate == 1.0 for p in self.points)

    @property
    def min_delivery_rate(self) -> float:
        return min(p.delivery_rate for p in self.points)

    @property
    def amortization_pays(self) -> bool:
        """Does every sweep point beat the per-message handshake?"""
        return all(p.extension_factor > 1.0 for p in self.points)

    def summary_payload(self) -> dict:
        """Worker-invariant facts only (the CI ``cmp`` contract)."""
        return {
            "protocol": self.spec.protocol,
            "backend": self.spec.backend,
            "curve": self.spec.curve,
            "epoch_messages": self.spec.epoch_messages,
            "messages": self.spec.messages,
            "sessions": self.spec.sessions,
            "seed": self.spec.seed,
            "points": [
                {
                    "frame_loss": p.frame_loss,
                    "delivered": p.delivered,
                    "messages": p.messages,
                    "keys_used": p.keys_used,
                    "transcripts": {
                        str(r.session_index): r.transcript_digest
                        for r in sorted(p.records,
                                        key=lambda r: r.session_index)
                    },
                    "digest": p.digest(),
                }
                for p in sorted(self.points,
                                key=lambda p: p.frame_loss)
            ],
        }

    def summary(self) -> str:
        """Render the sweep table from this report's own figures.

        The ``ext`` column and the amortization verdict both read
        :attr:`AmortizedPoint.extension_factor` (the one-computation
        rule of :meth:`FleetReport.summary`);
        :func:`repro.obs.integration.record_amortized_report` exports
        the same records as the ``repro_backends_*`` families.
        """
        spec = self.spec
        lines = [
            f"{spec.protocol} + {spec.backend} on {spec.curve}: "
            f"{spec.sessions} sessions x {spec.messages} messages, "
            f"epoch {spec.epoch_messages}, seed {spec.seed}",
            f"{'loss':>6} {'deliv':>8} {'keys':>5} {'hs uJ':>9} "
            f"{'msg uJ':>9} {'uJ/msg':>9} {'ext':>6} {'life(y)':>8}",
        ]
        degraded = []
        for p in sorted(self.points, key=lambda p: p.frame_loss):
            handshake_uj = sum(r.handshake_uj for r in p.records)
            message_uj = (sum(r.message_compute_uj for r in p.records)
                          + sum(r.message_radio_uj for r in p.records))
            lines.append(
                f"{loss_percent(p.frame_loss):>6} "
                f"{p.delivery_rate:>8.2%} "
                f"{p.keys_used:>5d} "
                f"{handshake_uj:>9.2f} "
                f"{message_uj:>9.2f} "
                f"{p.mean_uj_per_message:>9.4f} "
                f"{p.extension_factor:>6.1f} "
                f"{p.lifetime_years(spec):>8.1f}"
            )
            if p.delivery_rate < 1.0:
                degraded.append(
                    f"{p.delivered}/{p.messages} "
                    f"at {loss_percent(p.frame_loss)}")
        verdict = ["delivery: " + (
            "100% at every loss rate" if not degraded else
            "DEGRADED — " + ", ".join(degraded))]
        verdict.append("amortization: " + (
            "pays at every loss rate (extension > 1)"
            if self.amortization_pays else
            "DOES NOT PAY at some loss rate"))
        verdict.append(
            f"forward-secrecy window: at most {spec.epoch_messages} "
            f"messages per captured key")
        return "\n".join(lines + verdict)


def _run_amortized_slice(spec: AmortizedSpec, frame_loss: float,
                         indices: Sequence[int]
                         ) -> List[AmortizedRecord]:
    """Worker entry: a slice of sessions at one sweep point
    (top-level so it pickles; workers share no state)."""
    return [run_amortized_session(spec, frame_loss, index)
            for index in indices]


def run_amortized_soak(spec: AmortizedSpec,
                       workers: Optional[int] = None,
                       progress=None) -> AmortizedReport:
    """Run the whole sweep, optionally across worker processes.

    Fleet discipline: ``workers=0`` forces in-process execution,
    records come back in session order, and the report cannot depend
    on worker count or scheduling.
    """
    from ..obs.integration import record_amortized_report

    rt = _obs_runtime.current()
    soak_span = rt.span(
        "backends.soak", key=0,
        protocol=spec.protocol, backend=spec.backend,
        epoch=spec.epoch_messages, sessions=spec.sessions,
        points=len(spec.sweep),
    ) if rt is not None else contextlib.nullcontext()
    with soak_span as span:
        by_loss = sweep_records(_run_amortized_slice, spec, workers,
                                progress)
        points = []
        for key, loss in enumerate(sorted(spec.sweep)):
            point = AmortizedPoint(frame_loss=loss, records=by_loss[loss])
            points.append(point)
            if rt is not None:
                rt.tracer.event(
                    "backends.point", key=key, loss=f"{loss:g}",
                    sessions=point.sessions,
                    delivered=point.delivered,
                    digest=point.digest(),
                )
        report = AmortizedReport(spec=spec, points=points)
        if rt is not None:
            record_amortized_report(rt.registry, report)
            span.set(delivered=report.fully_delivered,
                     pays=report.amortization_pays)
    return report
