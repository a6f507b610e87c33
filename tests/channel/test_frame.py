"""Tests for the CRC-protected frame codec and wire encodings."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel import (
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
from repro.ec import NIST_K163
from repro.ec.curves import TOY_B17
from repro.fault import quadratic_twist

K163 = NIST_K163.curve


def _k163_point(x, selector=0):
    """A K-163 compressed-point encoding with arbitrary fields."""
    return int_to_bytes(x, point_width_bytes(163) - 1) + bytes([selector])


def _k163_twist_x():
    """An x of a point on K-163's quadratic twist and not on K-163."""
    twist, rng = quadratic_twist(K163), random.Random(5)
    while True:
        x = rng.getrandbits(163)
        if x and K163.lift_x(x) is None and twist.lift_x(x) is not None:
            return x


#: Encodings the point decoder must refuse, and the check that does.
BAD_POINTS = {
    "short": (_k163_point(NIST_K163.generator.x)[1:], "encoding"),
    "long": (b"\x00" + _k163_point(NIST_K163.generator.x), "encoding"),
    "y-selector-2": (_k163_point(NIST_K163.generator.x, selector=2),
                     "encoding"),
    "x-not-below-2^m": (_k163_point(1 << 163), "field range"),
    "x-zero": (_k163_point(0), "field range"),
    # The invalid-point defence's first line: a twist x never reaches
    # the scalar multiplier.
    "twist-x": (_k163_point(_k163_twist_x()), "no point on the curve"),
}


def make_frame(**overrides):
    fields = dict(session=0xDEADBEEF, epoch=2, round_index=1, attempt=0,
                  sender=1, label="e", payload=b"\x01\x02\x03")
    fields.update(overrides)
    return Frame(**fields)


class TestCodec:
    def test_round_trip(self):
        frame = make_frame()
        assert decode_frame(encode_frame(frame)) == frame

    def test_round_trip_empty_payload(self):
        frame = make_frame(payload=b"", label="ack")
        assert decode_frame(encode_frame(frame)) == frame

    def test_crc16_known_vector(self):
        """CRC-16/CCITT-FALSE check value for '123456789'."""
        assert crc16(b"123456789") == 0x29B1

    def test_every_single_bit_flip_is_detected(self):
        """The CRC catches any single-bit corruption of the frame."""
        data = encode_frame(make_frame())
        for bit in range(len(data) * 8):
            mutated = bytearray(data)
            mutated[bit // 8] ^= 1 << (bit % 8)
            with pytest.raises((FrameCorruptedError, FrameFormatError)):
                decode_frame(bytes(mutated))

    def test_truncation_rejected(self):
        data = encode_frame(make_frame())
        with pytest.raises((FrameFormatError, FrameCorruptedError)):
            decode_frame(data[:-3])  # CRC no longer lines up
        with pytest.raises(FrameFormatError):
            decode_frame(data[:4])  # below the fixed header

    def test_bad_version_rejected(self):
        data = bytearray(encode_frame(make_frame()))
        data[0] ^= 0x55
        with pytest.raises((FrameFormatError, FrameCorruptedError)):
            decode_frame(bytes(data))

    def test_overhead_accounts_for_label(self):
        assert frame_overhead_bits("ss") == frame_overhead_bits("s") + 8

    def test_non_utf8_label_is_a_format_error(self):
        """A CRC-valid frame whose label is not UTF-8 (a corruption
        that slipped past the CRC, or a crafted frame) is a typed
        reject, never a ``UnicodeDecodeError``."""
        body = bytes([1]) + (7).to_bytes(4, "big") + bytes([0, 1, 0, 1])
        body += bytes([1, 0x80]) + (0).to_bytes(2, "big")
        with pytest.raises(FrameFormatError, match="UTF-8"):
            decode_frame(body + crc16(body).to_bytes(2, "big"))


@st.composite
def crc_valid_bodies(draw):
    """Structured frame bodies with a correct CRC: arbitrary header
    bytes, label and payload, with length fields that usually (but not
    always) agree with what follows them."""
    version = draw(st.one_of(st.just(1), st.integers(0, 255)))
    header = draw(st.binary(min_size=8, max_size=8))
    label = draw(st.binary(max_size=6))
    label_len = draw(st.one_of(st.just(len(label)), st.integers(0, 255)))
    payload = draw(st.binary(max_size=24))
    payload_len = draw(st.one_of(st.just(len(payload)),
                                 st.integers(0, 0xFFFF)))
    body = bytes([version]) + header + bytes([label_len]) + label \
        + payload_len.to_bytes(2, "big") + payload
    return body + crc16(body).to_bytes(2, "big")


class TestDecoderFuzz:
    @settings(max_examples=300, deadline=None)
    @given(crc_valid_bodies())
    def test_decodes_and_round_trips_or_raises_frame_error(self, data):
        try:
            frame = decode_frame(data)
        except FrameError:
            return
        assert encode_frame(frame) == data


class TestFieldEncodings:
    def test_int_round_trip(self):
        width = scalar_width_bytes(NIST_K163.order)
        for value in (1, 0xABCDEF, NIST_K163.order - 1):
            assert int_from_bytes(int_to_bytes(value, width)) == value

    def test_int_too_wide_rejected(self):
        with pytest.raises(ValueError):
            int_to_bytes(1 << 16, 2)

    @pytest.mark.parametrize("domain", [TOY_B17, NIST_K163],
                            ids=lambda d: d.name)
    def test_point_compression_round_trip(self, domain):
        rng = random.Random(5)
        for _ in range(3):
            k = domain.scalar_ring.random_scalar(rng)
            point = domain.curve.multiply_naive(k, domain.generator)
            data = compress_point(domain.curve, point)
            assert len(data) == point_width_bytes(domain.field.m)
            assert decompress_point(domain.curve, data) == point

    def test_off_curve_x_rejected(self):
        width = point_width_bytes(TOY_B17.field.m)
        for x in range(2, 40):
            data = int_to_bytes(x, width - 1) + bytes([0])
            if TOY_B17.curve.lift_x(x) is None:
                with pytest.raises(FrameFormatError):
                    decompress_point(TOY_B17.curve, data)
                return
        pytest.skip("no off-curve x found in probe range")

    @pytest.mark.parametrize("data,reason", BAD_POINTS.values(),
                             ids=BAD_POINTS)
    def test_decoder_rejects(self, data, reason):
        with pytest.raises(FrameFormatError, match=reason):
            decompress_point(K163, data)


class TestCrcExhaustive:
    """CRC-16/CCITT-FALSE has Hamming distance 4 at these block
    lengths, so *every* 1- and 2-bit corruption of a small frame must
    be detected — not probabilistically, exhaustively."""

    @staticmethod
    def _frames(payload_sizes):
        for size in payload_sizes:
            payload = bytes(range(size))
            yield encode_frame(make_frame(label="s", payload=payload))

    def test_all_single_bit_corruptions_detected(self):
        for data in self._frames(range(9)):  # payloads 0..8 bytes
            for bit in range(len(data) * 8):
                mutated = bytearray(data)
                mutated[bit // 8] ^= 1 << (bit % 8)
                with pytest.raises((FrameCorruptedError, FrameFormatError)):
                    decode_frame(bytes(mutated))

    def test_all_double_bit_corruptions_detected(self):
        # Every unordered pair of bit positions, at the smallest and
        # largest small-frame sizes (~24k decodes; the sizes between
        # add nothing the distance-4 argument doesn't already cover).
        for data in self._frames((0, 8)):
            n_bits = len(data) * 8
            for first in range(n_bits):
                base = bytearray(data)
                base[first // 8] ^= 1 << (first % 8)
                for second in range(first + 1, n_bits):
                    mutated = bytearray(base)
                    mutated[second // 8] ^= 1 << (second % 8)
                    with pytest.raises(
                            (FrameCorruptedError, FrameFormatError)):
                        decode_frame(bytes(mutated))
