"""Unit and property tests for GF(2) polynomial arithmetic."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gf2m.polynomial import (
    clmul,
    is_irreducible,
    poly_coefficients,
    poly_degree,
    poly_divmod,
    poly_egcd,
    poly_from_coefficients,
    poly_gcd,
    poly_mod,
    poly_to_string,
)

polys = st.integers(min_value=0, max_value=(1 << 200) - 1)
nonzero_polys = st.integers(min_value=1, max_value=(1 << 200) - 1)


def naive_clmul(a: int, b: int) -> int:
    result = 0
    i = 0
    while b >> i:
        if (b >> i) & 1:
            result ^= a << i
        i += 1
    return result


class TestDegree:
    def test_zero_polynomial_has_degree_minus_one(self):
        assert poly_degree(0) == -1

    def test_constant_one(self):
        assert poly_degree(1) == 0

    def test_x_cubed(self):
        assert poly_degree(0b1000) == 3

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            poly_degree(-1)


class TestClmul:
    def test_zero_annihilates(self):
        assert clmul(0, 0b1011) == 0
        assert clmul(0b1011, 0) == 0

    def test_one_is_identity(self):
        assert clmul(1, 0b11010) == 0b11010

    def test_known_product(self):
        # (x+1)(x+1) = x^2 + 1 over GF(2)
        assert clmul(0b11, 0b11) == 0b101

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            clmul(-1, 2)

    @given(polys, polys)
    @settings(max_examples=60)
    def test_matches_naive(self, a, b):
        assert clmul(a, b) == naive_clmul(a, b)

    @given(polys, polys)
    @settings(max_examples=40)
    def test_commutative(self, a, b):
        assert clmul(a, b) == clmul(b, a)

    @given(polys, polys, polys)
    @settings(max_examples=40)
    def test_distributive_over_xor(self, a, b, c):
        assert clmul(a, b ^ c) == clmul(a, b) ^ clmul(a, c)

    @given(nonzero_polys, nonzero_polys)
    @settings(max_examples=40)
    def test_degree_adds(self, a, b):
        assert poly_degree(clmul(a, b)) == poly_degree(a) + poly_degree(b)


class TestDivmod:
    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            poly_divmod(5, 0)

    def test_exact_division(self):
        a, b = 0b1101, 0b111
        product = clmul(a, b)
        q, r = poly_divmod(product, b)
        assert (q, r) == (a, 0)

    @given(polys, nonzero_polys)
    @settings(max_examples=60)
    def test_reconstruction(self, a, b):
        q, r = poly_divmod(a, b)
        assert clmul(q, b) ^ r == a
        assert poly_degree(r) < poly_degree(b)

    @given(polys, nonzero_polys)
    @settings(max_examples=40)
    def test_mod_consistency(self, a, b):
        assert poly_mod(a, b) == poly_divmod(a, b)[1]


class TestGcd:
    def test_gcd_with_zero(self):
        assert poly_gcd(0b1101, 0) == 0b1101

    def test_common_factor_found(self):
        f = 0b111  # x^2+x+1, irreducible
        a = clmul(f, 0b1011)
        b = clmul(f, 0b1101)
        g = poly_gcd(a, b)
        assert poly_mod(g, f) == 0  # f divides the gcd

    @given(polys, polys)
    @settings(max_examples=40)
    def test_gcd_divides_both(self, a, b):
        g = poly_gcd(a, b)
        if g:
            assert poly_mod(a, g) == 0
            assert poly_mod(b, g) == 0

    @given(nonzero_polys, nonzero_polys)
    @settings(max_examples=40)
    def test_bezout_identity(self, a, b):
        g, s, t = poly_egcd(a, b)
        assert clmul(s, a) ^ clmul(t, b) == g
        assert g == poly_gcd(a, b)


class TestIrreducibility:
    @pytest.mark.parametrize(
        "exps",
        [
            [1, 0],          # x + 1
            [2, 1, 0],       # x^2+x+1
            [3, 1, 0],       # x^3+x+1
            [163, 7, 6, 3, 0],
            [233, 74, 0],
            [283, 12, 7, 5, 0],
        ],
    )
    def test_known_irreducible(self, exps):
        assert is_irreducible(poly_from_coefficients(exps))

    @pytest.mark.parametrize(
        "value",
        [
            0b101,       # x^2+1 = (x+1)^2
            0b110,       # x^2+x = x(x+1)
            0b1111,      # x^3+x^2+x+1 = (x+1)^3
            0b10,        # plain x: irreducible actually -- excluded below
        ][:3],
    )
    def test_known_reducible(self, value):
        assert not is_irreducible(value)

    def test_constants_not_irreducible(self):
        assert not is_irreducible(0)
        assert not is_irreducible(1)

    def test_x_is_irreducible(self):
        assert is_irreducible(0b10)

    def test_degree_2_exhaustive(self):
        # Only x^2+x+1 is irreducible among degree-2 polynomials.
        irreducible = [p for p in range(4, 8) if is_irreducible(p)]
        assert irreducible == [0b111]


class TestStringsAndCoefficients:
    def test_round_trip(self):
        exps = [163, 7, 6, 3, 0]
        p = poly_from_coefficients(exps)
        assert poly_coefficients(p) == exps

    def test_to_string(self):
        assert poly_to_string(0) == "0"
        assert poly_to_string(1) == "1"
        assert poly_to_string(0b110) == "x^2 + x"
        assert poly_to_string(0b1011) == "x^3 + x + 1"

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            poly_from_coefficients([-1])
