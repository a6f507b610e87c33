"""Deterministic body-area-network channel simulator.

The paper's protocol level assumes messages arrive; a body-worn link
does not cooperate.  This module models the around-the-body channel
the implant actually talks over: frames are dropped (deep fades),
corrupted (bit errors at a rate derived from the
:class:`~repro.energy.radio.RadioModel` distance/path-loss), duplicated,
delayed and reordered.

Every decision is a pure function of ``(seed, session, frame, attempt)``
— the same construction :mod:`repro.campaign.chaos` uses for the
acquisition pipeline — so two runs of the same session over the same
loss profile produce byte-identical delivery schedules, which is what
lets the session layer's retry counts and energy totals be pinned in
tests rather than eyeballed.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, List, Optional

from ..obs import runtime as _obs_runtime

if TYPE_CHECKING:  # imported lazily at runtime (channel -> energy ->
    # protocols -> channel would otherwise be a cycle)
    from ..energy.radio import RadioModel

__all__ = ["LossProfile", "Delivery", "ChannelStats", "BodyAreaChannel",
           "ber_from_radio", "derive_channel_seed", "loss_percent"]


def derive_channel_seed(seed: int, stream: str, session: int,
                        frame: int, attempt: int) -> int:
    """A 64-bit child seed for one channel decision stream.

    SHA-256 over the labelled tuple, mirroring
    :func:`repro.campaign.spec.derive_seed` (stdlib-only, process- and
    platform-stable).
    """
    message = (f"repro.channel/{seed}/{stream}/{session}/"
               f"{frame}/{attempt}").encode()
    return int.from_bytes(hashlib.sha256(message).digest()[:8], "big")


def loss_percent(loss: float) -> str:
    """A loss rate's label ``f"{loss:g}"`` as a percent, the decimal
    point shifted exactly: 0.1 -> ``10%``, 0.104 -> ``10.4%``.  Sweep
    tables print their rows this way, and
    :func:`repro.protocols.fleet.validate_sweep` keeps the labels of
    one sweep unique, so the rows are too."""
    from decimal import Decimal  # only summaries print; keep soaks lean

    return f"{Decimal(f'{loss:g}').scaleb(2).normalize():f}%"


def ber_from_radio(radio: "RadioModel", distance_m: float,
                   reference_distance_m: float = 0.25,
                   reference_snr: float = 60.0) -> float:
    """Bit-error rate implied by the radio's path-loss law.

    A first-order non-coherent FSK link: SNR falls with
    ``distance^-gamma`` (the same gamma the
    :class:`~repro.energy.radio.RadioModel` charges the amplifier for)
    and ``BER = 0.5 * exp(-SNR / 2)``.  ``reference_snr`` is the
    linear SNR at ``reference_distance_m``; the defaults put the knee
    where a body-worn link has it — effectively error-free at contact
    range, a few corrupted frames per hundred at half a meter
    (BER ~3e-4), unusable beyond a meter.
    """
    if distance_m < 0:
        raise ValueError("distance must be non-negative")
    if distance_m <= reference_distance_m:
        snr = reference_snr
    else:
        snr = reference_snr * (reference_distance_m / distance_m) \
            ** radio.path_loss_exponent
    return min(0.5, 0.5 * math.exp(-snr / 2.0))


@dataclass(frozen=True)
class LossProfile:
    """What the around-the-body channel does to frames.

    Attributes
    ----------
    frame_loss:
        Probability a frame vanishes entirely (deep fade / collision).
    bit_error_rate:
        Per-bit flip probability for frames that do arrive; the CRC in
        :mod:`repro.channel.frame` turns these into detected drops.
    duplicate_rate:
        Probability the receiver sees a frame twice (retransmit echo /
        multipath); duplicates are what the session layer's replay
        rejection exists for.
    reorder_rate:
        Probability a frame takes the slow path and lands
        ``reorder_delay_s`` later, possibly behind a successor.
    base_delay_s / jitter_s:
        Propagation plus processing latency and its seeded jitter.
    """

    frame_loss: float = 0.0
    bit_error_rate: float = 0.0
    duplicate_rate: float = 0.0
    reorder_rate: float = 0.0
    base_delay_s: float = 0.005
    jitter_s: float = 0.002
    reorder_delay_s: float = 0.05

    def __post_init__(self):
        for name in ("frame_loss", "bit_error_rate", "duplicate_rate",
                     "reorder_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.frame_loss >= 1.0:
            raise ValueError("frame_loss of 1.0 can never deliver")
        for name in ("base_delay_s", "jitter_s", "reorder_delay_s"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    @classmethod
    def from_radio(cls, radio: "RadioModel", distance_m: float,
                   frame_loss: float = 0.0, **kwargs) -> "LossProfile":
        """A profile whose bit-error rate follows the radio's path loss."""
        return cls(frame_loss=frame_loss,
                   bit_error_rate=ber_from_radio(radio, distance_m),
                   **kwargs)

    @property
    def lossless(self) -> bool:
        return (self.frame_loss == 0.0 and self.bit_error_rate == 0.0
                and self.duplicate_rate == 0.0 and self.reorder_rate == 0.0)

    def scaled(self, frame_loss: float) -> "LossProfile":
        """The same profile at a different frame-loss point (sweeps)."""
        return replace(self, frame_loss=frame_loss)

    def describe(self) -> str:
        return (f"loss={loss_percent(self.frame_loss)} "
                f"ber={self.bit_error_rate:.2e} "
                f"dup={self.duplicate_rate:.0%} "
                f"reorder={self.reorder_rate:.0%}")


@dataclass(frozen=True)
class Delivery:
    """One copy of a frame arriving at the receiver."""

    data: bytes
    at: float
    corrupted: bool = False
    duplicate: bool = False


@dataclass
class ChannelStats:
    """What the channel did across one session (per direction too,
    if the caller keeps one channel per direction)."""

    frames_sent: int = 0
    frames_dropped: int = 0
    frames_corrupted: int = 0
    frames_duplicated: int = 0
    frames_reordered: int = 0
    bits_sent: int = 0
    bits_delivered: int = 0

    def summary(self) -> str:
        return (f"{self.frames_sent} frames sent, "
                f"{self.frames_dropped} dropped, "
                f"{self.frames_corrupted} corrupted, "
                f"{self.frames_duplicated} duplicated, "
                f"{self.frames_reordered} reordered")


class BodyAreaChannel:
    """A seeded lossy channel between two protocol endpoints.

    ``transmit`` never mutates global RNG state: every effect draws
    from :func:`derive_channel_seed` keyed by the frame identity the
    caller supplies, so delivery schedules are reproducible regardless
    of call order or thread interleaving.
    """

    def __init__(self, profile: LossProfile, seed: int = 0,
                 session: int = 0):
        self.profile = profile
        self.seed = seed
        self.session = session
        self.stats = ChannelStats()

    def _roll(self, stream: str, frame: int, attempt: int) -> float:
        draw = derive_channel_seed(self.seed, stream, self.session,
                                   frame, attempt)
        return draw / 2.0 ** 64

    def transmit(self, data: bytes, frame: int, attempt: int,
                 now: float = 0.0) -> List[Delivery]:
        """Send one frame; returns the (possibly empty) deliveries.

        ``frame`` identifies the logical frame (epoch and round);
        ``attempt`` its retransmission number.  The sender always pays
        for the transmission — the stats record bits sent whether or
        not anything arrives, which is exactly the energy asymmetry a
        lossy link inflicts on the implant.
        """
        profile = self.profile
        self.stats.frames_sent += 1
        self.stats.bits_sent += len(data) * 8
        self._obs_count("sent")

        if self._roll("drop", frame, attempt) < profile.frame_loss:
            self.stats.frames_dropped += 1
            self._obs_count("dropped")
            return []

        delay = profile.base_delay_s + profile.jitter_s * \
            self._roll("jitter", frame, attempt)
        if (profile.reorder_rate > 0.0
                and self._roll("reorder", frame, attempt)
                < profile.reorder_rate):
            delay += profile.reorder_delay_s
            self.stats.frames_reordered += 1
            self._obs_count("reordered")

        payload, corrupted = self._corrupt(data, frame, attempt)
        if corrupted:
            self.stats.frames_corrupted += 1
            self._obs_count("corrupted")

        deliveries = [Delivery(payload, now + delay, corrupted)]
        if (profile.duplicate_rate > 0.0
                and self._roll("dup", frame, attempt)
                < profile.duplicate_rate):
            echo_delay = delay + profile.base_delay_s + profile.jitter_s * \
                self._roll("dup-jitter", frame, attempt)
            deliveries.append(Delivery(payload, now + echo_delay,
                                       corrupted, duplicate=True))
            self.stats.frames_duplicated += 1
            self._obs_count("duplicated")
        for delivery in deliveries:
            self.stats.bits_delivered += len(delivery.data) * 8
        self._obs_count("delivered", len(deliveries))
        return deliveries

    def _obs_count(self, event: str, amount: int = 1) -> None:
        rt = _obs_runtime.current()
        if rt is not None:
            rt.registry.counter(
                "repro_channel_frames_total",
                "channel-level frame events (sender side)",
            ).inc(amount, event=event)

    def _corrupt(self, data: bytes, frame: int,
                 attempt: int) -> "tuple[bytes, bool]":
        ber = self.profile.bit_error_rate
        if ber <= 0.0:
            return data, False
        rng = random.Random(derive_channel_seed(self.seed, "bits",
                                                self.session, frame,
                                                attempt))
        flipped: Optional[bytearray] = None
        for bit in range(len(data) * 8):
            if rng.random() < ber:
                if flipped is None:
                    flipped = bytearray(data)
                flipped[bit // 8] ^= 1 << (bit % 8)
        if flipped is None:
            return data, False
        return bytes(flipped), True
