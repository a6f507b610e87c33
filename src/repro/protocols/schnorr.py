"""Schnorr identification [17] — the traceable baseline.

Section 4: "not all PKC-based protocols achieve strong privacy.  For
example, tags using the Schnorr identification protocol can be easily
traced."  The flaw is structural: from a passive transcript
``(R, e, s)`` anyone can compute the prover's public key as

    X = e^{-1} * (s*P - R),

because verification is the public equation ``s*P = R + e*X``.  The
public key is a unique, permanent identifier — so every session of the
same tag is linkable by an eavesdropper.  The privacy game in
:mod:`repro.protocols.privacy` runs exactly this distinguisher.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..ec.curves import NamedCurve
from ..ec.ladder import montgomery_ladder
from ..ec.point import AffinePoint
from .ops import OperationCount, Transcript
from .peeters_hermans import NonceConsumedError, NoncePendingError

__all__ = ["SchnorrTag", "SchnorrVerifier", "SchnorrSession",
           "run_schnorr_identification", "extract_public_key"]


@dataclass
class SchnorrSession:
    """One complete Schnorr run: the eavesdropper's view plus accounting."""

    commitment: AffinePoint
    challenge: int
    response: int
    accepted: bool
    transcript: Transcript
    tag_ops: OperationCount


class SchnorrTag:
    """Prover holding the secret x with public key X = x * P."""

    def __init__(self, domain: NamedCurve, secret_x: int,
                 multiplier: Optional[Callable] = None):
        if not 1 <= secret_x < domain.order:
            raise ValueError("secret out of range")
        self.domain = domain
        self._x = secret_x
        self.public = domain.curve.multiply(secret_x, domain.generator)
        self._multiplier = multiplier or (
            lambda k, point, rng: montgomery_ladder(domain.curve, k, point,
                                                    rng=rng)
        )
        self._r: Optional[int] = None
        self._responded = False
        self.ops = OperationCount()

    def commit(self, rng) -> AffinePoint:
        """Round 1: R = r * P."""
        if self._r is not None:
            raise NoncePendingError(
                "commit() with a pending nonce; abort() the old epoch first"
            )
        ring = self.domain.scalar_ring
        self._r = ring.random_scalar(rng)
        self._responded = False
        self.ops.random_bits += ring.n.bit_length()
        self.ops.point_multiplications += 1
        return self._multiplier(self._r, self.domain.generator, rng)

    def abort(self) -> None:
        """Discard a pending nonce (epoch restart / session teardown)."""
        self._r = None

    def respond(self, challenge: int) -> int:
        """Round 2: s = r + e * x.  The nonce is strictly single-use
        (two responses under one r solve for the key)."""
        if self._r is None:
            if self._responded:
                raise NonceConsumedError(
                    "nonce already consumed: a retransmitted round must "
                    "use a fresh commit, never reuse r"
                )
            raise RuntimeError("respond() called before commit()")
        ring = self.domain.scalar_ring
        s = ring.add(self._r, ring.mul(challenge, self._x))
        self.ops.modular_multiplications += 1
        self._r = None
        self._responded = True
        return s


class SchnorrVerifier:
    """Verifier that knows the tag's public key (that's the problem)."""

    def __init__(self, domain: NamedCurve, tag_public: AffinePoint):
        if not domain.curve.is_on_curve(tag_public):
            raise ValueError("public key not on the curve")
        self.domain = domain
        self.tag_public = tag_public
        self.ops = OperationCount()

    def challenge(self, rng) -> int:
        """A fresh scalar challenge."""
        return self.domain.scalar_ring.random_scalar(rng)

    def verify(self, commitment: AffinePoint, e: int, s: int) -> bool:
        """Check s*P == R + e*X."""
        curve = self.domain.curve
        lhs = curve.multiply(s, self.domain.generator)
        rhs = curve.add(commitment, curve.multiply(e, self.tag_public))
        self.ops.point_multiplications += 2
        self.ops.point_additions += 1
        return lhs == rhs


def run_schnorr_identification(tag: SchnorrTag, verifier: SchnorrVerifier,
                               rng) -> SchnorrSession:
    """One full session with wire accounting."""
    domain = tag.domain
    transcript = Transcript()
    commitment = tag.commit(rng)
    transcript.record("tag", "R", domain.field.m + 1)
    e = verifier.challenge(rng)
    transcript.record("reader", "e", domain.order.bit_length())
    s = tag.respond(e)
    transcript.record("tag", "s", domain.order.bit_length())
    accepted = verifier.verify(commitment, e, s)
    tag.ops.tx_bits += transcript.bits_from("tag")
    tag.ops.rx_bits += transcript.bits_from("reader")
    return SchnorrSession(commitment, e, s, accepted, transcript, tag.ops)


def extract_public_key(domain: NamedCurve,
                       session: SchnorrSession) -> AffinePoint:
    """The tracking attack: X = e^{-1} * (s*P - R) from a transcript.

    Needs nothing but the public values an eavesdropper sees — the
    reason Schnorr identification offers no location privacy.
    """
    curve = domain.curve
    ring = domain.scalar_ring
    s_p = curve.multiply(session.response, domain.generator)
    numerator = curve.subtract(s_p, session.commitment)
    e_inv = ring.inverse(session.challenge)
    return curve.multiply(e_inv, numerator)
