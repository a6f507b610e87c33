"""CRC-protected frame encoding for the body-area wireless link.

The protocol level (Section 4, Figure 2) speaks in abstract messages
(``R``, ``e``, ``s``); the channel level speaks in *frames*: a typed
header that lets a receiver bind a payload to one session, one
protocol round and one retransmission attempt, plus a CRC-16 so that
bit errors on the lossy around-the-body link are detected rather than
silently consumed.  The header is deliberately small — "wireless
communication is power-hungry", so every overhead byte is energy the
implant pays on every (re)transmission — and the energy accounting in
:mod:`repro.protocols.session` charges for it explicitly.

Wire layout (big-endian)::

    version:1 | session:4 | epoch:1 | round:1 | attempt:1 | sender:1
    | label_len:1 | label | payload_len:2 | payload | crc16:2

``epoch`` numbers the protocol restarts inside one logical session
(each epoch of an identification uses fresh nonces — see the nonce
lifecycle in :mod:`repro.protocols.session`); ``attempt`` numbers the
retransmissions of one frame within an epoch.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..obs import profile as _obs_profile

__all__ = ["Frame", "FrameError", "FrameCorruptedError", "FrameFormatError",
           "crc16", "encode_frame", "decode_frame", "frame_overhead_bits",
           "int_to_bytes", "int_from_bytes", "compress_point",
           "decompress_point", "scalar_width_bytes", "point_width_bytes"]

FRAME_VERSION = 1

#: Fixed header + trailer bytes around the label and payload.
_FIXED_OVERHEAD_BYTES = 1 + 4 + 1 + 1 + 1 + 1 + 1 + 2 + 2

_MAX_PAYLOAD = 0xFFFF


class FrameError(ValueError):
    """Base class for frame codec failures."""


class FrameCorruptedError(FrameError):
    """The CRC did not match: bit errors on the channel."""


class FrameFormatError(FrameError):
    """The frame is structurally malformed (truncated, bad version)."""


def crc16(data: bytes) -> int:
    """CRC-16/CCITT-FALSE (poly 0x1021, init 0xFFFF)."""
    crc = 0xFFFF
    for byte in data:
        crc ^= byte << 8
        for _ in range(8):
            if crc & 0x8000:
                crc = ((crc << 1) ^ 0x1021) & 0xFFFF
            else:
                crc = (crc << 1) & 0xFFFF
    return crc


@dataclass(frozen=True)
class Frame:
    """One protocol message as it crosses the air."""

    session: int
    epoch: int
    round_index: int
    attempt: int
    sender: int
    label: str
    payload: bytes

    def __post_init__(self):
        if not 0 <= self.session < 2 ** 32:
            raise FrameFormatError("session id out of range")
        for name in ("epoch", "round_index", "attempt", "sender"):
            value = getattr(self, name)
            if not 0 <= value < 256:
                raise FrameFormatError(f"{name} out of range")
        if len(self.label.encode()) > 255:
            raise FrameFormatError("label too long")
        if len(self.payload) > _MAX_PAYLOAD:
            raise FrameFormatError("payload too long")


def frame_overhead_bits(label: str) -> int:
    """Header + CRC bits a frame adds on top of its payload."""
    return (_FIXED_OVERHEAD_BYTES + len(label.encode())) * 8


def encode_frame(frame: Frame) -> bytes:
    """Serialize a frame; the CRC covers everything before it."""
    with _obs_profile.timed("frame_encode"):
        label = frame.label.encode()
        body = bytes([FRAME_VERSION])
        body += frame.session.to_bytes(4, "big")
        body += bytes([frame.epoch, frame.round_index, frame.attempt,
                       frame.sender, len(label)])
        body += label
        body += len(frame.payload).to_bytes(2, "big")
        body += frame.payload
        return body + crc16(body).to_bytes(2, "big")


def decode_frame(data: bytes) -> Frame:
    """Parse and CRC-check one frame.

    Raises :class:`FrameCorruptedError` when the CRC disagrees (the
    normal fate of a frame that took bit errors) and
    :class:`FrameFormatError` for truncation or unknown versions.
    """
    with _obs_profile.timed("frame_decode"):
        if len(data) < _FIXED_OVERHEAD_BYTES:
            raise FrameFormatError("frame shorter than the fixed header")
        if crc16(data[:-2]) != int.from_bytes(data[-2:], "big"):
            raise FrameCorruptedError("frame CRC mismatch")
        if data[0] != FRAME_VERSION:
            raise FrameFormatError(f"unknown frame version {data[0]}")
        session = int.from_bytes(data[1:5], "big")
        epoch, round_index, attempt, sender, label_len = data[5:10]
        offset = 10
        if len(data) < offset + label_len + 2 + 2:
            raise FrameFormatError("frame truncated inside the label")
        try:
            label = data[offset:offset + label_len].decode()
        except UnicodeDecodeError:
            raise FrameFormatError("frame label is not UTF-8") from None
        offset += label_len
        payload_len = int.from_bytes(data[offset:offset + 2], "big")
        offset += 2
        if len(data) != offset + payload_len + 2:
            raise FrameFormatError(
                "payload length disagrees with frame size")
        payload = data[offset:offset + payload_len]
        return Frame(session, epoch, round_index, attempt, sender, label,
                     payload)


# ----------------------------------------------------------------------
# payload helpers: scalars and compressed points as fixed-width bytes
# ----------------------------------------------------------------------

def scalar_width_bytes(order: int) -> int:
    """Wire width of a scalar modulo ``order``."""
    return (order.bit_length() + 7) // 8


def point_width_bytes(m: int) -> int:
    """Wire width of a compressed point over GF(2^m): x plus one
    y-select byte."""
    return (m + 7) // 8 + 1


def int_to_bytes(value: int, width: int) -> bytes:
    """Fixed-width big-endian encoding."""
    if value < 0:
        raise FrameFormatError("cannot encode a negative integer")
    try:
        return value.to_bytes(width, "big")
    except OverflowError as exc:
        raise FrameFormatError(str(exc)) from None


def int_from_bytes(data: bytes) -> int:
    return int.from_bytes(data, "big")


def compress_point(curve, point) -> bytes:
    """Compressed encoding: x plus the curve's y-bit (the
    least-significant bit of ``y / x``, see
    :meth:`~repro.ec.curve.BinaryEllipticCurve.compress`)."""
    if point.is_infinity or point.x == 0:
        raise FrameFormatError("cannot compress the identity or 2-torsion")
    x, y_bit = curve.compress(point)
    return int_to_bytes(x, (curve.field.m + 7) // 8) + bytes([y_bit])


def decompress_point(curve, data: bytes):
    """Inverse of :func:`compress_point`; raises on off-curve x."""
    f = curve.field
    width = (f.m + 7) // 8
    if len(data) != width + 1 or data[-1] not in (0, 1):
        raise FrameFormatError("bad compressed-point encoding")
    x = int_from_bytes(data[:-1])
    if x == 0 or x >> f.m:
        raise FrameFormatError("compressed x out of field range")
    point = curve.lift_x(x, data[-1])
    if point is None:
        raise FrameFormatError("compressed x has no point on the curve")
    return point
