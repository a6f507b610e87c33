"""Unit and property tests for BinaryField / FieldElement."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gf2m import BinaryField, reduction_polynomial

F8 = BinaryField(3, 0b1011)  # GF(8), small enough to exhaust
K163 = BinaryField(163, reduction_polynomial(163))

small_values = st.integers(min_value=0, max_value=7)
big_values = st.integers(min_value=0, max_value=(1 << 163) - 1)
nonzero_big = st.integers(min_value=1, max_value=(1 << 163) - 1)


class TestConstruction:
    def test_rejects_wrong_degree_modulus(self):
        with pytest.raises(ValueError):
            BinaryField(4, 0b1011)

    def test_rejects_reducible_modulus(self):
        with pytest.raises(ValueError):
            BinaryField(2, 0b101)  # x^2+1 = (x+1)^2

    def test_rejects_bad_degree(self):
        with pytest.raises(ValueError):
            BinaryField(0, 1)

    def test_check_can_be_skipped(self):
        f = BinaryField(2, 0b101, check_irreducible=False)
        assert f.m == 2

    def test_order(self):
        assert F8.order == 8
        assert K163.order == 1 << 163

    def test_equality_and_hash(self):
        other = BinaryField(3, 0b1011)
        assert F8 == other
        assert hash(F8) == hash(other)
        assert F8 != BinaryField(3, 0b1101)

    def test_repr_mentions_modulus(self):
        assert "x^3" in repr(F8)


class TestReduction:
    def test_reduce_below_m_is_identity(self):
        for v in range(8):
            assert F8.reduce(v) == v

    def test_reduce_x_cubed(self):
        # x^3 = x + 1 mod (x^3 + x + 1)
        assert F8.reduce(0b1000) == 0b011

    @given(st.integers(min_value=0, max_value=(1 << 400) - 1))
    @settings(max_examples=50)
    def test_reduce_matches_poly_mod_k163(self, v):
        from repro.gf2m.polynomial import poly_mod

        assert K163.reduce(v) == poly_mod(v, K163.modulus)


class TestFieldAxiomsExhaustiveGF8:
    """GF(8) is small enough to verify the axioms exhaustively."""

    def test_additive_group(self):
        for a in range(8):
            assert F8.add_raw(a, 0) == a
            assert F8.add_raw(a, a) == 0  # self-inverse in char 2

    def test_multiplicative_group(self):
        for a in range(1, 8):
            inv = F8.inverse_raw(a)
            assert F8.mul_raw(a, inv) == 1

    def test_associativity_and_distributivity(self):
        for a in range(8):
            for b in range(8):
                for c in range(8):
                    assert F8.mul_raw(F8.mul_raw(a, b), c) == F8.mul_raw(
                        a, F8.mul_raw(b, c)
                    )
                    assert F8.mul_raw(a, b ^ c) == F8.mul_raw(a, b) ^ F8.mul_raw(a, c)

    def test_square_matches_self_multiplication(self):
        for a in range(8):
            assert F8.square_raw(a) == F8.mul_raw(a, a)

    def test_sqrt_inverts_square(self):
        for a in range(8):
            assert F8.sqrt_raw(F8.square_raw(a)) == a

    def test_frobenius_order(self):
        # Squaring three times is the identity on GF(8).
        for a in range(8):
            assert F8.square_raw(F8.square_raw(F8.square_raw(a))) == a


class TestK163Arithmetic:
    @given(big_values, big_values)
    @settings(max_examples=30)
    def test_mul_commutes(self, a, b):
        assert K163.mul_raw(a, b) == K163.mul_raw(b, a)

    @given(big_values)
    @settings(max_examples=30)
    def test_square_matches_mul(self, a):
        assert K163.square_raw(a) == K163.mul_raw(a, a)

    @given(big_values)
    @settings(max_examples=20)
    def test_sqrt_inverts_square(self, a):
        assert K163.sqrt_raw(K163.square_raw(a)) == a
        assert K163.square_raw(K163.sqrt_raw(a)) == a

    @given(nonzero_big)
    @settings(max_examples=20)
    def test_euclidean_inverse(self, a):
        assert K163.mul_raw(a, K163.inverse_raw(a)) == 1

    @given(nonzero_big)
    @settings(max_examples=10)
    def test_itoh_tsujii_matches_euclid(self, a):
        assert K163.inverse_itoh_tsujii_raw(a) == K163.inverse_raw(a)

    def test_inverse_of_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            K163.inverse_raw(0)
        with pytest.raises(ZeroDivisionError):
            K163.inverse_itoh_tsujii_raw(0)

    @given(nonzero_big)
    @settings(max_examples=10)
    def test_fermat(self, a):
        # a^(2^m - 1) == 1
        assert K163.pow_raw(a, (1 << 163) - 1) == 1

    @given(nonzero_big, st.integers(min_value=-20, max_value=20))
    @settings(max_examples=20)
    def test_pow_negative_exponent(self, a, e):
        lhs = K163.pow_raw(a, e)
        rhs = K163.pow_raw(K163.inverse_raw(a), -e) if e < 0 else K163.pow_raw(a, e)
        assert lhs == rhs


class TestTraceAndQuadratics:
    def test_trace_values_gf8(self):
        # Trace is GF(2)-linear and maps onto {0,1}; half the elements
        # of GF(8) have trace 0.
        traces = [F8.trace_raw(a) for a in range(8)]
        assert set(traces) <= {0, 1}
        assert traces.count(0) == 4

    @given(big_values, big_values)
    @settings(max_examples=20)
    def test_trace_linear(self, a, b):
        assert K163.trace_raw(a ^ b) == K163.trace_raw(a) ^ K163.trace_raw(b)

    @given(big_values)
    @settings(max_examples=15)
    def test_trace_invariant_under_frobenius(self, a):
        assert K163.trace_raw(a) == K163.trace_raw(K163.square_raw(a))

    @given(big_values)
    @settings(max_examples=15)
    def test_half_trace_solves_quadratic(self, a):
        # z^2 + z = a + Tr(a): always solvable, and half-trace solves it
        # when Tr of the rhs is 0.
        c = a if K163.trace_raw(a) == 0 else a ^ 1 if K163.trace_raw(a ^ 1) == 0 else None
        if c is None:
            return
        z = K163.solve_quadratic_raw(c)
        assert z is not None
        assert K163.square_raw(z) ^ z == c

    def test_unsolvable_quadratic_returns_none(self):
        # Find some c with Tr(c)=1; z^2+z=c then has no solution.
        c = next(v for v in range(1, 100) if K163.trace_raw(v) == 1)
        assert K163.solve_quadratic_raw(c) is None

    def test_solve_zero(self):
        assert K163.solve_quadratic_raw(0) == 0

    def test_half_trace_even_degree_rejected(self):
        f4 = BinaryField(2, 0b111)
        with pytest.raises(ValueError):
            f4.half_trace_raw(1)

    def test_solve_quadratic_even_degree_field(self):
        f4 = BinaryField(2, 0b111)
        for c in range(4):
            z = f4.solve_quadratic_raw(c)
            if f4.trace_raw(c) == 0:
                assert z is not None and f4.square_raw(z) ^ z == c
            else:
                assert z is None


class TestFieldElementWrapper:
    def test_operators(self):
        a = F8(3)
        b = F8(5)
        assert (a + b).value == 6
        assert (a - b).value == 6
        assert (a * b).value == F8.mul_raw(3, 5)
        assert (a / a).value == 1
        assert (a ** 2) == a.square()
        assert (-a) == a

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            F8(3) / F8(0)

    def test_mixed_field_rejected(self):
        other = BinaryField(3, 0b1101)
        with pytest.raises(ValueError):
            F8(1) + other(1)

    def test_immutability(self):
        a = F8(3)
        with pytest.raises(AttributeError):
            a.value = 4

    def test_out_of_range_rejected(self):
        from repro.gf2m.field import FieldElement

        with pytest.raises(ValueError):
            FieldElement(F8, 8)

    def test_constructor_reduces(self):
        assert F8(0b1000).value == 0b011

    def test_bool_and_is_zero(self):
        assert not F8(0)
        assert F8(1)

    def test_hash_consistent_with_eq(self):
        assert hash(F8(5)) == hash(F8(5))
        assert F8(5) in {F8(5)}

    def test_random_element_in_range(self):
        rng = random.Random(7)
        for _ in range(20):
            e = K163.random_element(rng)
            assert 0 <= e.value < 1 << 163

    def test_elements_enumeration(self):
        values = sorted(e.value for e in F8.elements())
        assert values == list(range(8))

    def test_elements_enumeration_refuses_large_field(self):
        with pytest.raises(ValueError):
            list(K163.elements())

    def test_zero_one(self):
        assert F8.zero().value == 0
        assert F8.one().value == 1
