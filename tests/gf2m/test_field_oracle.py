"""Differential oracle for the GF(2^m) kernel's fast paths.

``BinaryField.reduce`` folds on the modulus's tail terms, ``poly_egcd``
folds its division into the cofactor update, and the digit-serial
multiplier reduces once per cycle through a table.  Each is checked
here against a slow reference that shares none of that code:

* ``poly_mod`` (bit-serial long division) for reduction, products and
  squares;
* the quotient-based extended Euclid loop, kept below as it stood
  before the fused one;
* the Itoh–Tsujii chain for inversion;
* the multiplier loop that reduced the shifted accumulator and the
  partial-product sum separately, kept below with ``poly_mod`` as its
  reduction;
* the squaring chains for the absolute trace and the half-trace, kept
  below as they stood before both became linear maps (a mask and a
  parity; byte tables of the basis images).

Fields: the five NIST binary fields, TOY-B17's trinomial, the
GF(2^13) pentanomial of the fault tests, the reciprocals of those two,
GF(2^8) with the AES modulus (trace only: the half-trace needs odd m)
and, for reduction only, two reducible moduli.
"""

import hashlib
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ec.curves import get_curve
from repro.gf2m import (BinaryField, DigitSerialMultiplier,
                        NIST_REDUCTION_POLYNOMIALS, clmul, poly_divmod,
                        poly_egcd, poly_mod)

FIELDS = {f"GF(2^{m})": BinaryField(m, f)
          for m, f in NIST_REDUCTION_POLYNOMIALS.items()}
FIELDS["TOY-B17"] = BinaryField(17, (1 << 17) | (1 << 3) | 1)
FIELDS["GF(2^13)"] = BinaryField(13, (1 << 13) | 0b11011)
FIELDS["GF(2^8)"] = BinaryField(8, 0b1_0001_1011)
# Reciprocals of the two above: tail terms above m/2, so Tr(x^i) = 1 for
# some 0 < i < m/2 and the half-trace's even images need their Tr term.
FIELDS["GF(2^17) x^14"] = BinaryField(17, (1 << 17) | (1 << 14) | 1)
FIELDS["GF(2^13) x^12"] = BinaryField(13, 0b11_0110_0000_0001)
ODD_FIELDS = sorted(name for name, field in FIELDS.items() if field.m % 2)
#: Fields small enough to run a squaring chain from every monomial; the
#: random-element checks cover GF(2^409) and GF(2^571).
CHAIN_PER_MONOMIAL = sorted(name for name, field in FIELDS.items()
                            if field.m <= 283)
#: Reduction must end, and agree with long division, for any modulus.
REDUCIBLE = {
    "x^8+1": BinaryField(8, (1 << 8) | 1, check_irreducible=False),
    "x^9+...+1": BinaryField(9, (1 << 10) - 1, check_irreducible=False),
}
K163 = FIELDS["GF(2^163)"]
TOY = FIELDS["TOY-B17"]
K163_DIGITS = (1, 2, 3, 4, 5, 8, 9, 16, 163)
MULTIPLIERS = ([("TOY-B17", TOY, d) for d in range(1, TOY.m + 1)]
               + [("K-163", K163, d) for d in K163_DIGITS])


def elements(field):
    """Field values with zero and the all-ones value well represented."""
    top = field.order - 1
    return st.one_of(st.just(0), st.just(top), st.integers(0, top))


def trace_chain(field, a):
    """Tr(a) = a + a^2 + ... + a^(2^(m-1)) by m - 1 squarings."""
    t = acc = a
    for _ in range(field.m - 1):
        t = field.square_raw(t)
        acc ^= t
    assert acc in (0, 1), "trace did not land in the prime subfield"
    return acc


def half_trace_chain(field, a):
    """H(a) = sum a^(4^i), i <= (m-1)/2, by m - 1 squarings."""
    t = acc = a
    for _ in range((field.m - 1) // 2):
        t = field.square_raw(field.square_raw(t))
        acc ^= t
    return acc


def egcd_reference(a, b):
    """Extended Euclid with an explicit quotient per step."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q, rem = poly_divmod(old_r, r)
        old_r, r = r, rem
        old_s, s = s, old_s ^ clmul(q, s)
        old_t, t = t, old_t ^ clmul(q, t)
    return old_r, old_s, old_t


def multiply_reference(field, d, a, b):
    """The digit-serial loop with two reductions per cycle, by long
    division: (product, states, distances, array activity)."""
    def reduce(value):
        return poly_mod(value, field.modulus)

    num_digits = math.ceil(field.m / d)
    glitch_factor = 1.0 + 0.3 * math.log2(d) if d > 1 else 1.0
    per_cycle_array = bin(a).count("1") * d / 2.0 * glitch_factor
    states, distances, activity = [], [], []
    acc = 0
    for digit_index in range(num_digits - 1, -1, -1):
        digit = (b >> (digit_index * d)) & ((1 << d) - 1)
        shifted = reduce(acc << d)
        new_acc = reduce(shifted ^ clmul(a, digit))
        distances.append(bin(acc ^ new_acc).count("1"))
        acc = new_acc
        states.append(acc)
        activity.append(per_cycle_array)
    return acc, states, distances, activity


@pytest.mark.parametrize("name", sorted(FIELDS) + sorted(REDUCIBLE))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_reduce_matches_long_division(name, data):
    field = FIELDS.get(name) or REDUCIBLE[name]
    value = data.draw(st.integers(0, (1 << (2 * field.m + 8)) - 1))
    assert field.reduce(value) == poly_mod(value, field.modulus)


@pytest.mark.parametrize("name", sorted(FIELDS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_mul_and_square_match_long_division(name, data):
    field = FIELDS[name]
    a = data.draw(elements(field))
    b = data.draw(elements(field))
    assert field.mul_raw(a, b) == poly_mod(clmul(a, b), field.modulus)
    assert field.square_raw(a) == poly_mod(clmul(a, a), field.modulus)


@pytest.mark.parametrize("name", sorted(FIELDS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_egcd_matches_quotient_loop(name, data):
    field = FIELDS[name]
    a = data.draw(st.one_of(st.just(0), elements(field),
                            st.integers(0, (1 << (2 * field.m)) - 1)))
    b = data.draw(st.one_of(st.just(0), st.just(field.modulus),
                            elements(field)))
    assert poly_egcd(a, b) == egcd_reference(a, b)
    assert poly_egcd(b, a) == egcd_reference(b, a)


@pytest.mark.parametrize("name", sorted(FIELDS))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_inverse_matches_itoh_tsujii(name, data):
    field = FIELDS[name]
    a = data.draw(st.integers(1, field.order - 1))
    assert field.inverse_raw(a) == field.inverse_itoh_tsujii_raw(a)


@pytest.mark.parametrize("name, field, d", MULTIPLIERS,
                         ids=[f"{name}-d{d}" for name, _f, d in MULTIPLIERS])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_digit_serial_matches_two_reduction_loop(name, field, d, data):
    a = data.draw(elements(field))
    b = data.draw(elements(field))
    product, trace = DigitSerialMultiplier(field, d).multiply(a, b)
    assert (product, trace.accumulator_states, trace.hamming_distances,
            trace.array_activity) == multiply_reference(field, d, a, b)


def test_zero_operands():
    assert poly_egcd(0, 0) == egcd_reference(0, 0) == (0, 1, 0)
    assert poly_egcd(0, K163.modulus) == egcd_reference(0, K163.modulus)
    assert K163.reduce(0) == 0


@pytest.mark.parametrize("d", (1, 4, 8, 9, 163))
@pytest.mark.parametrize("a, b", [(1 << 163, 1), (1, 1 << 163), (-1, 1),
                                  (1, -1)])
def test_multiplier_rejects_operands_outside_the_field(d, a, b):
    with pytest.raises(ValueError):
        DigitSerialMultiplier(K163, d).multiply(a, b)


@pytest.mark.parametrize("a, b", [(-1, 0), (0, -1), (-5, 3), (3, -5)])
def test_egcd_rejects_negative_input(a, b):
    with pytest.raises(ValueError):
        poly_egcd(a, b)


def test_reduce_rejects_negative_input():
    with pytest.raises(ValueError):
        TOY.reduce(-1)


@pytest.mark.parametrize("name", CHAIN_PER_MONOMIAL)
def test_trace_mask_is_the_trace_of_each_monomial(name):
    field = FIELDS[name]
    mask = sum(trace_chain(field, 1 << i) << i for i in range(field.m))
    assert field._trace_mask == mask
    assert [field.trace_raw(1 << i) for i in range(field.m)] == \
        [mask >> i & 1 for i in range(field.m)]


@pytest.mark.parametrize("name", sorted(FIELDS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_trace_matches_squaring_chain(name, data):
    field = FIELDS[name]
    a = data.draw(elements(field))
    assert field.trace_raw(a) == trace_chain(field, a)


@pytest.mark.parametrize("name", ODD_FIELDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_half_trace_matches_squaring_chain(name, data):
    field = FIELDS[name]
    a = data.draw(elements(field))
    assert field.half_trace_raw(a) == half_trace_chain(field, a)


@pytest.mark.parametrize("name", sorted(set(ODD_FIELDS)
                                        & set(CHAIN_PER_MONOMIAL)))
def test_half_trace_of_each_monomial(name):
    field = FIELDS[name]
    for i in range(field.m):
        assert field.half_trace_raw(1 << i) == half_trace_chain(field, 1 << i)


@pytest.mark.parametrize("name", ODD_FIELDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_solve_quadratic_matches_half_trace_chain(name, data):
    field = FIELDS[name]
    c = data.draw(elements(field))
    if c == 0:
        expected = 0
    elif trace_chain(field, c):
        expected = None
    else:
        expected = half_trace_chain(field, c)
    assert field.solve_quadratic_raw(c) == expected


def test_even_degree_half_trace_is_refused():
    with pytest.raises(ValueError):
        FIELDS["GF(2^8)"].half_trace_raw(3)


#: sha256 over 40 seeded ``lift_x(x, y_bit)`` results per curve (None
#: for an x with no point), recorded with the squaring-chain trace and
#: half-trace.
LIFT_X_DIGESTS = {
    "K-163": "09532a2e3993a0e1f52f142f00c87b56"
             "0febfdd7eabc2bfcfec2db82588854be",
    "TOY-B17": "f812fb7c915f1c420f1a2c06aa383b23"
               "b8cad862cd7f8047b1acd156873c87c1",
    "B-163": "ae160735e7d75c4d9640c55d6ffb27f4"
             "14d64e49da5c791681831bfb4298870d",
    "K-233": "a5ea4553daf83d793b7ca825224532bf"
             "434990aaafdece5a0343466d159cf394",
}


@pytest.mark.parametrize("curve_name", sorted(LIFT_X_DIGESTS))
def test_lift_x_returns_the_recorded_points(curve_name):
    curve = get_curve(curve_name).curve
    rng = random.Random(99)
    digest = hashlib.sha256()
    for _ in range(40):
        x = rng.getrandbits(curve.field.m)
        point = curve.lift_x(x, rng.getrandbits(1))
        digest.update(repr(None if point is None
                           else (point.x, point.y)).encode())
    assert digest.hexdigest() == LIFT_X_DIGESTS[curve_name]
