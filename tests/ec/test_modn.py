"""Tests for scalar-ring arithmetic and primality testing."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ec import NIST_K163, ScalarRing, is_probable_prime

RING = ScalarRing(NIST_K163.order)
values = st.integers(min_value=-(1 << 170), max_value=(1 << 170))


class TestPrimality:
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 97, 2**13 - 1, NIST_K163.order])
    def test_primes(self, p):
        assert is_probable_prime(p)

    @pytest.mark.parametrize("c", [0, 1, 4, 9, 561, 1105, 2**16, 2**13 - 3])
    def test_composites_and_trivia(self, c):
        assert not is_probable_prime(c)

    def test_large_composite(self):
        assert not is_probable_prime(NIST_K163.order * 3)


class TestRingOps:
    def test_bad_modulus(self):
        with pytest.raises(ValueError):
            ScalarRing(1)

    def test_require_prime(self):
        with pytest.raises(ValueError):
            ScalarRing(15, require_prime=True)
        assert ScalarRing(13, require_prime=True).n == 13

    @given(values, values)
    @settings(max_examples=30)
    def test_add_sub_inverse(self, a, b):
        assert RING.sub(RING.add(a, b), b) == RING.reduce(a)

    @given(st.integers(min_value=1, max_value=(1 << 163) - 1))
    @settings(max_examples=20)
    def test_inverse(self, a):
        if RING.reduce(a) == 0:
            return
        assert RING.mul(a, RING.inverse(a)) == 1

    def test_inverse_of_zero(self):
        with pytest.raises(ZeroDivisionError):
            RING.inverse(0)

    def test_non_invertible(self):
        ring = ScalarRing(12)
        with pytest.raises(ArithmeticError):
            ring.inverse(4)

    @given(st.integers(min_value=1, max_value=1000), st.integers(min_value=-5, max_value=20))
    @settings(max_examples=30)
    def test_pow(self, a, e):
        if e < 0 and RING.reduce(a) == 0:
            return
        expected = RING.pow(RING.pow(a, abs(e)), -1 if e < 0 else 1)
        assert RING.pow(a, e) == expected

    def test_pow_matches_builtin(self):
        assert RING.pow(7, 100) == pow(7, 100, RING.n)

    def test_random_scalar_in_range(self):
        rng = random.Random(2)
        for _ in range(50):
            k = RING.random_scalar(rng)
            assert 1 <= k < RING.n

    def test_equality_and_repr(self):
        assert RING == ScalarRing(NIST_K163.order)
        assert RING != ScalarRing(13)
        assert hex(NIST_K163.order) in repr(RING)
