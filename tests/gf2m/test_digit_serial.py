"""Tests for the digit-serial multiplier functional/cycle model."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gf2m import BinaryField, DigitSerialMultiplier, reduction_polynomial

K163 = BinaryField(163, reduction_polynomial(163))
big_values = st.integers(min_value=0, max_value=(1 << 163) - 1)


class TestConstruction:
    def test_rejects_zero_digit(self):
        with pytest.raises(ValueError):
            DigitSerialMultiplier(K163, 0)

    def test_rejects_oversized_digit(self):
        with pytest.raises(ValueError):
            DigitSerialMultiplier(K163, 164)

    @pytest.mark.parametrize(
        "d,cycles", [(1, 163), (2, 82), (4, 41), (8, 21), (16, 11), (163, 1)]
    )
    def test_cycle_count_is_ceil_m_over_d(self, d, cycles):
        assert DigitSerialMultiplier(K163, d).cycles_per_multiplication == cycles

    def test_repr(self):
        assert "d=4" in repr(DigitSerialMultiplier(K163, 4))


class TestFunctionalCorrectness:
    @given(big_values, big_values)
    @settings(max_examples=20)
    def test_paper_design_point_d4_matches_reference(self, a, b):
        mult = DigitSerialMultiplier(K163, 4)
        product, _ = mult.multiply(a, b)
        assert product == K163.mul_raw(a, b)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 8, 16, 32, 163])
    def test_all_digit_sizes_agree(self, d):
        rng = random.Random(d)
        mult = DigitSerialMultiplier(K163, d)
        for _ in range(5):
            a = rng.getrandbits(163)
            b = rng.getrandbits(163)
            product, trace = mult.multiply(a, b)
            assert product == K163.mul_raw(a, b)
            assert trace.cycles == mult.cycles_per_multiplication

    def test_small_field(self):
        f8 = BinaryField(3, 0b1011)
        mult = DigitSerialMultiplier(f8, 2)
        for a in range(8):
            for b in range(8):
                product, _ = mult.multiply(a, b)
                assert product == f8.mul_raw(a, b)


class TestActivityTrace:
    def test_trace_lengths_match_cycles(self):
        mult = DigitSerialMultiplier(K163, 4)
        _, trace = mult.multiply(123456789, 987654321)
        assert len(trace.accumulator_states) == 41
        assert len(trace.hamming_distances) == 41
        assert trace.digit_size == 4

    def test_zero_times_anything_has_no_switching(self):
        mult = DigitSerialMultiplier(K163, 4)
        _, trace = mult.multiply(0, (1 << 163) - 1)
        assert sum(trace.hamming_distances) == 0

    def test_final_accumulator_is_the_product(self):
        mult = DigitSerialMultiplier(K163, 4)
        product, trace = mult.multiply(0xDEADBEEF, 0xCAFEBABE)
        assert trace.accumulator_states[-1] == product

    def test_hamming_distances_are_update_toggles(self):
        mult = DigitSerialMultiplier(K163, 8)
        _, trace = mult.multiply(0x123456789ABCDEF, 0xFEDCBA987654321)
        prev = 0
        for state, hd in zip(trace.accumulator_states, trace.hamming_distances):
            assert hd == bin(prev ^ state).count("1")
            prev = state

    def test_switching_depends_on_data(self):
        # Different operands produce different total switching -- this
        # data dependence is exactly what the power model exploits.
        mult = DigitSerialMultiplier(K163, 4)
        rng = random.Random(42)
        totals = set()
        for _ in range(10):
            _, trace = mult.multiply(rng.getrandbits(163), rng.getrandbits(163))
            totals.add(sum(trace.hamming_distances))
        assert len(totals) > 1
