"""Binary extension field GF(2^m) arithmetic.

The arithmetic substrate of the reproduction: polynomial-basis fields,
carry-less polynomial helpers, NIST reduction polynomials and the
digit-serial multiplier model the coprocessor datapath is built from.
"""

from .digit_serial import DigitSerialMultiplier, MultiplicationTrace
from .field import BinaryField, FieldElement
from .params import NIST_REDUCTION_POLYNOMIALS, reduction_polynomial
from .polynomial import (
    clmul,
    is_irreducible,
    poly_degree,
    poly_divmod,
    poly_egcd,
    poly_from_coefficients,
    poly_gcd,
    poly_mod,
    poly_mulmod,
    poly_to_string,
)

__all__ = [
    "BinaryField",
    "FieldElement",
    "DigitSerialMultiplier",
    "MultiplicationTrace",
    "NIST_REDUCTION_POLYNOMIALS",
    "reduction_polynomial",
    "clmul",
    "is_irreducible",
    "poly_degree",
    "poly_divmod",
    "poly_egcd",
    "poly_from_coefficients",
    "poly_gcd",
    "poly_mod",
    "poly_mulmod",
    "poly_to_string",
]
