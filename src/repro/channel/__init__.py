"""The lossy body-area channel under the protocol level.

Frame codec with CRC protection (:mod:`repro.channel.frame`) and a
deterministic drop/corrupt/duplicate/delay/reorder channel simulator
(:mod:`repro.channel.model`) whose bit-error rate follows the
:class:`~repro.energy.radio.RadioModel` path-loss law.  The resilient
session layer (:mod:`repro.protocols.session`) runs every protocol
frame — including retransmissions — through this package so that link
reliability shows up where the paper says it must: in joules.
"""

from .frame import (
    Frame,
    FrameCorruptedError,
    FrameError,
    FrameFormatError,
    compress_point,
    crc16,
    decode_frame,
    decompress_point,
    encode_frame,
    frame_overhead_bits,
    int_from_bytes,
    int_to_bytes,
    point_width_bytes,
    scalar_width_bytes,
)
from .model import (
    BodyAreaChannel,
    ChannelStats,
    Delivery,
    LossProfile,
    ber_from_radio,
    derive_channel_seed,
    loss_percent,
)

__all__ = [
    "Frame",
    "FrameError",
    "FrameCorruptedError",
    "FrameFormatError",
    "crc16",
    "encode_frame",
    "decode_frame",
    "frame_overhead_bits",
    "int_to_bytes",
    "int_from_bytes",
    "compress_point",
    "decompress_point",
    "point_width_bytes",
    "scalar_width_bytes",
    "LossProfile",
    "Delivery",
    "ChannelStats",
    "BodyAreaChannel",
    "ber_from_radio",
    "derive_channel_seed",
    "loss_percent",
]
