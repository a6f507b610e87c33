"""Tests for the Montgomery powering ladder (Algorithm 1)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ec import (
    AffinePoint,
    NIST_B163,
    NIST_K163,
    montgomery_ladder,
    montgomery_ladder_full,
)
from repro.ec.ladder import choose_z

scalars = st.integers(min_value=1, max_value=(1 << 170) - 1)


class TestCorrectness:
    @given(st.integers(min_value=1, max_value=5000))
    @settings(max_examples=15, deadline=None)
    def test_matches_naive_small_scalars(self, k):
        curve, g = NIST_K163.curve, NIST_K163.generator
        expected = curve.multiply_naive(k, g)
        rng = random.Random(k)
        assert montgomery_ladder(curve, k, g, rng=rng) == expected

    @given(scalars)
    @settings(max_examples=10, deadline=None)
    def test_matches_naive_large_scalars(self, k):
        curve, g = NIST_K163.curve, NIST_K163.generator
        expected = curve.multiply_naive(k, g)
        assert montgomery_ladder(curve, k, g, randomize_z=False) == expected

    def test_works_on_random_curve_b163(self):
        curve, g = NIST_B163.curve, NIST_B163.generator
        rng = random.Random(7)
        for _ in range(3):
            k = rng.getrandbits(163)
            assert montgomery_ladder(curve, k, g, rng=rng) == curve.multiply_naive(
                k, g
            )

    def test_arbitrary_base_points(self):
        curve = NIST_K163.curve
        rng = random.Random(21)
        for _ in range(3):
            p = curve.random_point(rng)
            k = rng.getrandbits(160)
            assert montgomery_ladder(curve, k, p, rng=rng) == curve.multiply_naive(
                k, p
            )


class TestEdgeCases:
    def test_k_zero(self):
        curve, g = NIST_K163.curve, NIST_K163.generator
        assert montgomery_ladder(curve, 0, g, randomize_z=False).is_infinity

    def test_k_one(self):
        curve, g = NIST_K163.curve, NIST_K163.generator
        assert montgomery_ladder(curve, 1, g, randomize_z=False) == g

    def test_k_two(self):
        curve, g = NIST_K163.curve, NIST_K163.generator
        assert montgomery_ladder(curve, 2, g, randomize_z=False) == curve.double(g)

    def test_k_equal_order_gives_infinity(self):
        curve, g, n = NIST_K163.curve, NIST_K163.generator, NIST_K163.order
        assert montgomery_ladder(curve, n, g, randomize_z=False).is_infinity

    def test_k_order_minus_one_gives_negation(self):
        curve, g, n = NIST_K163.curve, NIST_K163.generator, NIST_K163.order
        assert montgomery_ladder(curve, n - 1, g, randomize_z=False) == curve.negate(g)

    def test_infinity_base(self):
        curve = NIST_K163.curve
        result = montgomery_ladder(curve, 5, AffinePoint.infinity(), randomize_z=False)
        assert result.is_infinity

    def test_two_torsion_base_falls_back(self):
        curve = NIST_K163.curve
        p = curve.lift_x(0)
        assert montgomery_ladder(curve, 2, p, randomize_z=False).is_infinity
        assert montgomery_ladder(curve, 3, p, randomize_z=False) == p

    def test_negative_scalar_rejected(self):
        curve, g = NIST_K163.curve, NIST_K163.generator
        with pytest.raises(ValueError):
            montgomery_ladder(curve, -1, g, randomize_z=False)

    def test_randomize_without_rng_rejected(self):
        curve, g = NIST_K163.curve, NIST_K163.generator
        with pytest.raises(ValueError):
            montgomery_ladder(curve, 5, g, randomize_z=True)

    def test_bad_initial_z_rejected(self):
        curve, g = NIST_K163.curve, NIST_K163.generator
        with pytest.raises(ValueError):
            montgomery_ladder(curve, 5, g, initial_z=0)
        with pytest.raises(ValueError):
            montgomery_ladder(curve, 5, g, initial_z=1 << 163)


class TestRandomizationCountermeasure:
    def test_result_invariant_under_randomization(self):
        """Randomized projective coordinates must not change the result."""
        curve, g = NIST_K163.curve, NIST_K163.generator
        k = 0x1234567890ABCDEF
        reference = montgomery_ladder(curve, k, g, randomize_z=False)
        rng = random.Random(99)
        for _ in range(5):
            assert montgomery_ladder(curve, k, g, rng=rng) == reference

    def test_intermediates_differ_across_runs(self):
        """With randomization on, intermediate registers are unpredictable."""
        curve, g = NIST_K163.curve, NIST_K163.generator
        k = 0xDEADBEEFCAFE
        rng = random.Random(5)
        run1 = montgomery_ladder_full(curve, k, g, rng=rng)
        run2 = montgomery_ladder_full(curve, k, g, rng=rng)
        assert run1.result == run2.result
        differing = sum(
            1
            for a, b in zip(run1.iterations, run2.iterations)
            if (a.X1, a.Z1) != (b.X1, b.Z1)
        )
        assert differing == len(run1.iterations)

    def test_intermediates_deterministic_without_randomization(self):
        """With randomization off, every run exposes the same intermediates.

        This determinism is exactly what the Section 7 DPA exploits.
        """
        curve, g = NIST_K163.curve, NIST_K163.generator
        k = 0xDEADBEEFCAFE
        run1 = montgomery_ladder_full(curve, k, g, randomize_z=False)
        run2 = montgomery_ladder_full(curve, k, g, randomize_z=False)
        assert [
            (it.X1, it.Z1, it.X2, it.Z2) for it in run1.iterations
        ] == [(it.X1, it.Z1, it.X2, it.Z2) for it in run2.iterations]

    def test_explicit_initial_z_reproducible(self):
        """White-box scenario: known randomness -> predictable intermediates."""
        curve, g = NIST_K163.curve, NIST_K163.generator
        k = 0xABCDEF
        z = 0x1337
        run1 = montgomery_ladder_full(curve, k, g, initial_z=z)
        run2 = montgomery_ladder_full(curve, k, g, initial_z=z)
        assert run1.initial_z == z
        assert [(it.X1, it.Z1) for it in run1.iterations] == [
            (it.X1, it.Z1) for it in run2.iterations
        ]


class TestExecutionRecord:
    def test_iteration_count_is_bitlength_minus_one(self):
        curve, g = NIST_K163.curve, NIST_K163.generator
        k = 0b101101
        run = montgomery_ladder_full(curve, k, g, randomize_z=False)
        assert run.num_iterations == k.bit_length() - 1

    def test_key_bits_recorded_in_order(self):
        curve, g = NIST_K163.curve, NIST_K163.generator
        k = 0b1011001
        run = montgomery_ladder_full(curve, k, g, randomize_z=False)
        bits = [it.key_bit for it in run.iterations]
        assert bits == [int(c) for c in bin(k)[3:]]

    def test_ladder_invariant_holds_every_iteration(self):
        """(X1:Z1) = prefix*P and (X2:Z2) = (prefix+1)*P throughout."""
        curve, g = NIST_K163.curve, NIST_K163.generator
        f = curve.field
        k = 0b110101101
        run = montgomery_ladder_full(curve, k, g, randomize_z=False)
        prefix = 1
        for it in run.iterations:
            prefix = 2 * prefix + it.key_bit
            r1 = curve.multiply_naive(prefix, g)
            r2 = curve.multiply_naive(prefix + 1, g)
            if it.Z1:
                assert f.mul_raw(it.X1, f.inverse_raw(it.Z1)) == r1.x
            else:
                assert r1.is_infinity
            if it.Z2:
                assert f.mul_raw(it.X2, f.inverse_raw(it.Z2)) == r2.x
            else:
                assert r2.is_infinity

    def test_operation_counts(self):
        curve, g = NIST_K163.curve, NIST_K163.generator
        run = montgomery_ladder_full(curve, 0b1111, g, randomize_z=False)
        assert run.field_multiplications == 6 * 3

    def test_memory_footprint_is_six_registers(self):
        """The ladder state is (X1, Z1, X2, Z2) + base x + one temp:
        six m-bit registers, matching the paper's claim (Section 4)."""
        # Structural check: each iteration record carries exactly the
        # four live ladder coordinates.
        curve, g = NIST_K163.curve, NIST_K163.generator
        run = montgomery_ladder_full(curve, 0b101, g, randomize_z=False)
        fields = set(vars(run.iterations[0]).keys()) if hasattr(
            run.iterations[0], "__dict__"
        ) else {f.name for f in run.iterations[0].__dataclass_fields__.values()}
        assert {"X1", "Z1", "X2", "Z2"} <= fields


class QueuedDraws:
    """An rng whose ``getrandbits`` returns queued values, counting calls."""

    def __init__(self, *values):
        self.values = list(values)
        self.calls = 0

    def getrandbits(self, bits):
        self.calls += 1
        return self.values.pop(0)


class TestChooseZ:
    """The one Z policy the ladder, the coprocessor and the campaigns share."""

    FIELD = NIST_K163.field

    def test_explicit_z_wins_without_drawing(self):
        rng = QueuedDraws()
        assert choose_z(self.FIELD, rng, True, 0x1337) == 0x1337
        assert choose_z(self.FIELD, rng, False, 0x1337) == 0x1337
        assert rng.calls == 0

    def test_one_without_randomization(self):
        assert choose_z(self.FIELD, None, False, None) == 1

    def test_zero_draws_are_rejected(self):
        rng = QueuedDraws(0, 1 << 163, 5)  # 1 << 163 masks to zero
        assert choose_z(self.FIELD, rng, True, None) == 5
        assert rng.calls == 3

    def test_randomizing_needs_an_rng(self):
        with pytest.raises(ValueError):
            choose_z(self.FIELD, None, True, None)

    def test_one_draw_per_z_from_a_seeded_rng(self):
        drawn, reference = random.Random(3), random.Random(3)
        assert [choose_z(self.FIELD, drawn, True, None) for _ in range(4)] \
            == [reference.getrandbits(163) for _ in range(4)]
