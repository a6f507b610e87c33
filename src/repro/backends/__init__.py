"""Pluggable symmetric crypto backends (Section 4's other column).

The paper's gate-count argument — a SHA-1 unit at 5 527 GE against
~12 k GE for the ECC core — makes secret-key vs. public-key a design
*dimension*, not a foregone conclusion.  This package gives that
dimension functional artifacts: cycle-accurate, energy-accounted
models of lightweight symmetric primitives behind one
:class:`~repro.backends.base.CryptoBackend` protocol —

* :mod:`repro.backends.simon` — the Simon 32/64 round-function engine
  (32-bit block, 64-bit key, 32 rounds; the smallest published block
  cipher in hardware),
* :mod:`repro.backends.sha1_unit` — a cycle-tracked SHA-1 compression
  unit (the paper's own 5 527-GE hash) with HMAC on top,
* :mod:`repro.backends.aead` — seal/open AEAD constructions over both
  engines, every block operation metered,
* :mod:`repro.backends.evaluation` — the calibrate-then-measure
  bridge: backend switching activity priced through the same
  per-toggle energy constant the ECC reference design calibrates.

Every engine reports an :class:`~repro.backends.base.EngineTrace`
(cycles + Hamming-distance switching activity), so a symmetric message
and an ECC point multiplication are priced by one
:class:`~repro.power.energy.EnergyModel` in the same units.
"""

from .base import (
    AeadTagError,
    BackendPoint,
    CryptoBackend,
    EngineTrace,
    OpenResult,
    SealResult,
    SYMMETRIC_BACKEND_NAMES,
    get_backend,
    parse_backend_point,
)
from .aead import Sha1AeadBackend, SimonAeadBackend
from .evaluation import (
    HANDSHAKE_POINT_MULTIPLICATIONS,
    MESSAGE_BYTES,
    MeasuredPrimitive,
)
from .sha1_unit import Sha1Engine
from .simon import SIMON32_64_GATES, Simon32Engine, simon32_decrypt, \
    simon32_encrypt

__all__ = [
    "AeadTagError",
    "BackendPoint",
    "CryptoBackend",
    "EngineTrace",
    "HANDSHAKE_POINT_MULTIPLICATIONS",
    "MESSAGE_BYTES",
    "MeasuredPrimitive",
    "OpenResult",
    "SealResult",
    "Sha1AeadBackend",
    "Sha1Engine",
    "SimonAeadBackend",
    "Simon32Engine",
    "SIMON32_64_GATES",
    "SYMMETRIC_BACKEND_NAMES",
    "get_backend",
    "parse_backend_point",
    "simon32_decrypt",
    "simon32_encrypt",
]
