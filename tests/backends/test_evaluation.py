"""Calibrate-then-measure pricing of the symmetric engines.

The engines hand back ``(consumed, cycles)``; these tests pin that
one calibrated per-toggle constant prices both ECC and symmetric
workloads, and that the measurement is a pure function (so the DSE
cache can key it by digest).
"""

import pytest

from repro.backends.evaluation import (
    HANDSHAKE_POINT_MULTIPLICATIONS,
    MESSAGE_BYTES,
    MeasuredPrimitive,
    measure_backend,
)
from repro.backends import get_backend
from repro.power.energy import EnergyModel, OperatingPoint

#: Any positive constant works — pricing is linear in it.
MODEL = EnergyModel(energy_per_toggle=1e-12)


class TestMeasuredPrimitive:
    def test_measurement_is_pure(self):
        a = MeasuredPrimitive.measure("simon-aead")
        b = measure_backend("simon-aead")
        assert a == b
        assert a.message_bytes == MESSAGE_BYTES
        assert a.cycles > 0 and a.consumed > 0
        assert a.area_ge == get_backend("simon-aead").area_ge()

    def test_engines_differ(self):
        simon = measure_backend("simon-aead")
        sha1 = measure_backend("sha1-aead")
        assert simon.consumed != sha1.consumed
        assert simon.area_ge < sha1.area_ge

    def test_operating_point_is_arithmetic(self):
        measured = measure_backend("simon-aead")
        slow = measured.at(MODEL, OperatingPoint(
            frequency_hz=500e3, vdd=1.0))
        fast = measured.at(MODEL, OperatingPoint(
            frequency_hz=1e6, vdd=1.0))
        # Same charge in half the time: duration halves.
        assert fast.duration_seconds == pytest.approx(
            slow.duration_seconds / 2)


class TestMessageEnergy:

    def test_handshake_is_two_point_multiplications(self):
        # Peeters-Hermans commit + response: the per-message ECC bill
        # the amortized hybrid divides by its epoch.
        assert HANDSHAKE_POINT_MULTIPLICATIONS == 2
