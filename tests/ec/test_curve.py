"""Tests for the affine group law on binary curves."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ec import AffinePoint, BinaryEllipticCurve, NIST_B163, NIST_K163
from repro.gf2m import BinaryField

RNG = random.Random(0xC0FFEE)


def random_points(domain, count, seed=1):
    rng = random.Random(seed)
    return [domain.curve.random_point(rng) for _ in range(count)]


class TestConstruction:
    def test_singular_curve_rejected(self):
        field = BinaryField(3, 0b1011)
        with pytest.raises(ValueError):
            BinaryEllipticCurve(field, 1, 0)

    def test_unreduced_coefficients_rejected(self):
        field = BinaryField(3, 0b1011)
        with pytest.raises(ValueError):
            BinaryEllipticCurve(field, 8, 1)

    def test_equality(self):
        field = BinaryField(3, 0b1011)
        assert BinaryEllipticCurve(field, 1, 1) == BinaryEllipticCurve(field, 1, 1)
        assert BinaryEllipticCurve(field, 1, 1) != BinaryEllipticCurve(field, 0, 1)


class TestPointValidation:
    def test_generators_on_curve(self):
        assert NIST_K163.curve.is_on_curve(NIST_K163.generator)
        assert NIST_B163.curve.is_on_curve(NIST_B163.generator)

    def test_infinity_on_curve(self):
        assert NIST_K163.curve.is_on_curve(AffinePoint.infinity())

    def test_random_junk_rejected(self):
        assert not NIST_K163.curve.is_on_curve(AffinePoint(12345, 67890))

    def test_oversized_coordinates_rejected(self):
        big = 1 << 200
        assert not NIST_K163.curve.is_on_curve(AffinePoint(big, 0))

    def test_infinity_invariants(self):
        inf = AffinePoint.infinity()
        assert inf.is_infinity
        with pytest.raises(ValueError):
            AffinePoint(1, 0, True)

    def test_negative_coordinates_rejected(self):
        with pytest.raises(ValueError):
            AffinePoint(-1, 0)


class TestGroupLaw:
    def test_identity(self):
        curve, g = NIST_K163.curve, NIST_K163.generator
        inf = AffinePoint.infinity()
        assert curve.add(g, inf) == g
        assert curve.add(inf, g) == g
        assert curve.add(inf, inf) == inf

    def test_inverse(self):
        curve, g = NIST_K163.curve, NIST_K163.generator
        assert curve.add(g, curve.negate(g)).is_infinity
        assert curve.negate(curve.negate(g)) == g
        assert curve.negate(AffinePoint.infinity()).is_infinity

    def test_closure_and_on_curve(self):
        curve = NIST_K163.curve
        for p in random_points(NIST_K163, 5):
            for q in random_points(NIST_K163, 3, seed=9):
                assert curve.is_on_curve(curve.add(p, q))
            assert curve.is_on_curve(curve.double(p))

    def test_commutativity(self):
        curve = NIST_K163.curve
        pts = random_points(NIST_K163, 6)
        for p in pts[:3]:
            for q in pts[3:]:
                assert curve.add(p, q) == curve.add(q, p)

    def test_associativity(self):
        curve = NIST_K163.curve
        p, q, r = random_points(NIST_K163, 3)
        assert curve.add(curve.add(p, q), r) == curve.add(p, curve.add(q, r))

    def test_double_equals_add_self(self):
        curve = NIST_K163.curve
        for p in random_points(NIST_K163, 4):
            assert curve.double(p) == curve.add(p, p)

    def test_two_torsion_point(self):
        # The point with x = 0 is its own negative: doubling gives infinity.
        curve = NIST_K163.curve
        p = curve.lift_x(0)
        assert p is not None and curve.is_on_curve(p)
        assert curve.double(p).is_infinity
        assert curve.add(p, p).is_infinity
        assert curve.negate(p) == p

    def test_subtract(self):
        curve = NIST_K163.curve
        p, q = random_points(NIST_K163, 2)
        assert curve.add(curve.subtract(p, q), q) == p

    def test_small_multiples_consistent(self):
        curve, g = NIST_K163.curve, NIST_K163.generator
        acc = AffinePoint.infinity()
        for k in range(1, 12):
            acc = curve.add(acc, g)
            assert acc == curve.multiply_naive(k, g)

    def test_multiply_negative(self):
        curve, g = NIST_K163.curve, NIST_K163.generator
        assert curve.multiply_naive(-3, g) == curve.negate(
            curve.multiply_naive(3, g)
        )

    def test_multiply_zero(self):
        curve, g = NIST_K163.curve, NIST_K163.generator
        assert curve.multiply_naive(0, g).is_infinity

    @given(st.integers(min_value=0, max_value=300), st.integers(min_value=0, max_value=300))
    @settings(max_examples=15, deadline=None)
    def test_multiplication_is_homomorphic(self, j, k):
        curve, g = NIST_K163.curve, NIST_K163.generator
        lhs = curve.multiply_naive(j + k, g)
        rhs = curve.add(curve.multiply_naive(j, g), curve.multiply_naive(k, g))
        assert lhs == rhs


class TestCompression:
    def test_lift_x_roundtrip(self):
        curve = NIST_K163.curve
        for p in random_points(NIST_K163, 8):
            x, bit = curve.compress(p)
            assert curve.lift_x(x, bit) == p

    def test_lift_x_two_solutions(self):
        curve = NIST_K163.curve
        p = random_points(NIST_K163, 1)[0]
        p0 = curve.lift_x(p.x, 0)
        p1 = curve.lift_x(p.x, 1)
        assert p0 is not None and p1 is not None
        assert p0 != p1
        assert curve.negate(p0) == p1

    def test_lift_x_no_solution(self):
        curve = NIST_K163.curve
        rng = random.Random(55)
        misses = 0
        for _ in range(40):
            x = rng.getrandbits(163)
            if curve.lift_x(x) is None:
                misses += 1
        # About half of all x values have no point; require at least some.
        assert misses > 5

    def test_compress_infinity_rejected(self):
        with pytest.raises(ValueError):
            NIST_K163.curve.compress(AffinePoint.infinity())

    def test_x_zero_special_case(self):
        curve = NIST_K163.curve
        p = curve.lift_x(0)
        assert p.x == 0
        assert curve.compress(p) == (0, 0)


class TestRandomPoint:
    def test_random_points_are_on_curve_and_distinct(self):
        curve = NIST_K163.curve
        rng = random.Random(11)
        points = [curve.random_point(rng) for _ in range(10)]
        assert all(curve.is_on_curve(p) for p in points)
        assert len({(p.x, p.y) for p in points}) == 10
