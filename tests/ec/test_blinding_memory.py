"""Tests for scalar and point blinding."""

import random

import pytest

from repro.ec import (
    NIST_K163,
    blind_scalar,
    montgomery_ladder,
    montgomery_ladder_full,
    point_blinded_multiply,
)

CURVE, G, ORDER = NIST_K163.curve, NIST_K163.generator, NIST_K163.order


class TestScalarBlinding:
    def test_blinded_scalar_is_congruent(self):
        rng = random.Random(1)
        k = NIST_K163.scalar_ring.random_scalar(rng)
        blinded = blind_scalar(k, ORDER, rng)
        assert blinded % ORDER == k
        assert blinded > ORDER  # actually blinded

    def test_blinding_varies_per_call(self):
        rng = random.Random(2)
        k = 12345
        assert blind_scalar(k, ORDER, rng) != blind_scalar(k, ORDER, rng)

    def test_result_unchanged(self):
        rng = random.Random(3)
        k = NIST_K163.scalar_ring.random_scalar(rng)
        expected = CURVE.multiply_naive(k, G)
        for __ in range(3):
            blinded = blind_scalar(k, ORDER, rng)
            assert montgomery_ladder(CURVE, blinded, G, rng=rng) == expected

    def test_ladder_bit_pattern_changes(self):
        """The countermeasure's point: the bits the ladder consumes
        differ run to run."""
        rng = random.Random(4)
        k = 0xABCDE
        b1 = blind_scalar(k, ORDER, rng)
        b2 = blind_scalar(k, ORDER, rng)
        run1 = montgomery_ladder_full(CURVE, b1, G, randomize_z=False)
        run2 = montgomery_ladder_full(CURVE, b2, G, randomize_z=False)
        bits1 = [it.key_bit for it in run1.iterations]
        bits2 = [it.key_bit for it in run2.iterations]
        assert bits1 != bits2
        assert run1.result == run2.result

    def test_validation(self):
        rng = random.Random(5)
        with pytest.raises(ValueError):
            blind_scalar(0, ORDER, rng)
        with pytest.raises(ValueError):
            blind_scalar(ORDER, ORDER, rng)
        with pytest.raises(ValueError):
            blind_scalar(5, ORDER, rng, blinding_bits=0)


class TestPointBlinding:
    def test_result_unchanged(self):
        rng = random.Random(6)
        k = NIST_K163.scalar_ring.random_scalar(rng)
        expected = CURVE.multiply_naive(k, G)
        for __ in range(2):
            assert point_blinded_multiply(CURVE, k, G, rng) == expected

    def test_small_scalars(self):
        rng = random.Random(7)
        for k in (1, 2, 3, 17):
            assert point_blinded_multiply(CURVE, k, G, rng) == \
                CURVE.multiply_naive(k, G)

    def test_zero_scalar(self):
        rng = random.Random(8)
        assert point_blinded_multiply(CURVE, 0, G, rng).is_infinity

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            point_blinded_multiply(CURVE, -1, G, random.Random(9))
