"""Elliptic curves over binary fields.

The algorithm level of the paper's security pyramid: curve arithmetic,
the Montgomery powering ladder with randomized projective coordinates,
scalar and point blinding, the double-and-add baseline it is compared
against, and the NIST named curves (K-163 is the paper's design
point).
"""

from .blinding import (
    blind_scalar,
    point_blinded_multiply,
)
from .curve import BinaryEllipticCurve
from .curves import (
    CURVE_REGISTRY,
    NIST_B163,
    NIST_B233,
    NIST_K163,
    NIST_K233,
    NamedCurve,
    get_curve,
)
from .keys import (
    KeyPair,
    generate_keypair,
)
from .ladder import (
    LadderExecution,
    LadderIteration,
    montgomery_ladder,
    montgomery_ladder_full,
)
from .modn import ScalarRing, is_probable_prime
from .point import AffinePoint
from .scalar_mult import double_and_add

__all__ = [
    "AffinePoint",
    "BinaryEllipticCurve",
    "blind_scalar",
    "point_blinded_multiply",
    "NamedCurve",
    "NIST_K163",
    "NIST_B163",
    "NIST_K233",
    "NIST_B233",
    "CURVE_REGISTRY",
    "get_curve",
    "KeyPair",
    "generate_keypair",
    "LadderExecution",
    "LadderIteration",
    "montgomery_ladder",
    "montgomery_ladder_full",
    "ScalarRing",
    "is_probable_prime",
    "double_and_add",
]
