"""The Peeters–Hermans private RFID identification protocol (Figure 2).

The paper's protocol-level exemplar [14]: an ECC-based identification
scheme achieving wide-forward-insider privacy.  Roles and flow, exactly
as in Figure 2:

* Tag state: secret ``x`` (its identity scalar) and the reader's
  public key ``Y = y * P``.
* Reader state: secret ``y`` and a database ``{X_i = x_i * P}``.

::

    Tag                              Reader
    r <-R Z*_l,  R = r*P   --R-->
                           <--e--   e <-R Z*_l
    d = xcoord(r*Y)
    s = d + x + e*r        --s-->   d' = xcoord(y*R)
                                    X' = s*P - d'*P - e*R  in DB?

The tag computes **two point multiplications and one modular
multiplication** (Section 4) — the workload the coprocessor exists to
run within the power budget.  The reader carries the heavy
verification, honouring the asymmetry rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..ec.curves import NamedCurve
from ..ec.ladder import montgomery_ladder
from ..ec.point import AffinePoint
from .database import InMemoryTagDatabase, TagDatabase
from .ops import OperationCount, Transcript

__all__ = ["PeetersHermansTag", "PeetersHermansReader", "IdentificationResult",
           "run_identification", "NonceConsumedError", "NoncePendingError"]


class NonceConsumedError(RuntimeError):
    """A second ``respond()`` under one commit.

    A naive retransmission layer that replays the challenge into the
    tag would make it emit a second ``s`` under the same ``r`` —
    two equations in the two unknowns ``(x, r)``, i.e. full key
    recovery.  The nonce is therefore hard single-use: retransmission
    recovery must start a fresh commit instead (see
    :mod:`repro.protocols.session`).
    """


class NoncePendingError(RuntimeError):
    """``commit()`` while an unconsumed nonce is live.

    Silently overwriting a pending ``r`` hides protocol-state bugs in
    retransmission layers; an epoch restart must discard the old nonce
    explicitly via :meth:`PeetersHermansTag.abort`.
    """


def _point_bits(domain: NamedCurve) -> int:
    """Wire size of a compressed point: x plus the y-select bit."""
    return domain.field.m + 1


def _scalar_bits(domain: NamedCurve) -> int:
    return domain.order.bit_length()


@dataclass
class IdentificationResult:
    """Outcome of one identification session."""

    accepted: bool
    identity: Optional[int]
    transcript: Transcript
    tag_ops: OperationCount
    reader_ops: OperationCount


class PeetersHermansTag:
    """The resource-constrained prover.

    ``multiplier(k, point, rng)`` performs the tag's point
    multiplications; it defaults to the randomized Montgomery ladder,
    and the examples swap in the coprocessor model to attach cycle and
    energy figures to each protocol run.
    """

    def __init__(self, domain: NamedCurve, secret_x: int,
                 reader_public: AffinePoint,
                 multiplier: Optional[Callable] = None):
        ring = domain.scalar_ring
        if not 1 <= secret_x < ring.n:
            raise ValueError("tag secret out of range")
        if not domain.curve.is_on_curve(reader_public):
            raise ValueError("reader public key not on the curve")
        self.domain = domain
        self._x = secret_x
        self.reader_public = reader_public
        self._multiplier = multiplier or (
            lambda k, point, rng: montgomery_ladder(domain.curve, k, point,
                                                    rng=rng)
        )
        self._r: Optional[int] = None
        self._responded = False
        self.ops = OperationCount()

    @property
    def identity_point(self) -> AffinePoint:
        """X = x * P, the entry the reader's database stores."""
        return self.domain.curve.multiply(self._x, self.domain.generator)

    def commit(self, rng) -> AffinePoint:
        """Round 1: draw r and send R = r * P.

        Raises :class:`NoncePendingError` if a previous commit has not
        been consumed (``respond()``) or discarded (``abort()``).
        """
        if self._r is not None:
            raise NoncePendingError(
                "commit() with a pending nonce; abort() the old epoch first"
            )
        ring = self.domain.scalar_ring
        self._r = ring.random_scalar(rng)
        self._responded = False
        self.ops.random_bits += ring.n.bit_length()
        commitment = self._multiplier(self._r, self.domain.generator, rng)
        self.ops.point_multiplications += 1
        return commitment

    def restore(self, r: int) -> None:
        """Re-arm a nonce committed to NVM before a power cut.

        A tag resuming into round 2 lost ``r`` with its RAM; ``r`` is
        as single-use as one :meth:`commit` drew: a pending nonce
        raises :class:`NoncePendingError`, and a second ``respond()``
        raises :class:`NonceConsumedError`.
        """
        if self._r is not None:
            raise NoncePendingError(
                "restore() with a pending nonce; abort() the old epoch first"
            )
        if not 1 <= r < self.domain.scalar_ring.n:
            raise ValueError("nonce out of range")
        self._r = r
        self._responded = False

    def abort(self) -> None:
        """Discard a pending nonce (epoch restart / session teardown)."""
        self._r = None

    def respond(self, challenge: int, rng) -> int:
        """Round 2: receive e, send s = d + x + e*r with d = xcoord(r*Y).

        The nonce is strictly single-use: a second ``respond()`` under
        the same commit raises :class:`NonceConsumedError` — ``s`` is
        never computed twice under one ``r``.
        """
        if self._r is None:
            if self._responded:
                raise NonceConsumedError(
                    "nonce already consumed: a retransmitted round must "
                    "use a fresh commit, never reuse r"
                )
            raise RuntimeError("respond() called before commit()")
        ring = self.domain.scalar_ring
        if not 1 <= challenge < ring.n:
            raise ValueError("challenge out of range")
        shared = self._multiplier(self._r, self.reader_public, rng)
        self.ops.point_multiplications += 1
        d = ring.reduce(shared.x)
        er = ring.mul(challenge, self._r)
        self.ops.modular_multiplications += 1
        s = ring.add(ring.add(d, self._x), er)
        self._r = None  # single-use nonce
        self._responded = True
        return s


class PeetersHermansReader:
    """The energy-rich verifier with the tag database.

    ``database`` is any :class:`~repro.protocols.database.TagDatabase`
    — the in-memory toy by default, or a fleet-scale backend such as
    the sharded enrollment store of :mod:`repro.server.enrollment`.
    The reader's verification arithmetic is identical either way; only
    the final ``X'`` lookup goes through the seam.
    """

    def __init__(self, domain: NamedCurve, secret_y: int,
                 database: Optional[TagDatabase] = None):
        ring = domain.scalar_ring
        if not 1 <= secret_y < ring.n:
            raise ValueError("reader secret out of range")
        self.domain = domain
        self._y = secret_y
        self.public = domain.curve.multiply(secret_y, domain.generator)
        self.database: TagDatabase = (
            database if database is not None
            else InMemoryTagDatabase(domain.curve)
        )
        self.ops = OperationCount()

    def register(self, identity: int, tag_public: AffinePoint) -> None:
        """Enroll a tag's X = x * P."""
        if not self.domain.curve.is_on_curve(tag_public):
            raise ValueError("tag public key not on the curve")
        self.database.enroll(identity, tag_public)

    def challenge(self, rng) -> int:
        """Round 1 response: a fresh scalar challenge e."""
        ring = self.domain.scalar_ring
        e = ring.random_scalar(rng)
        self.ops.random_bits += ring.n.bit_length()
        return e

    def identify(self, commitment: AffinePoint, e: int, s: int) -> Optional[int]:
        """Round 2 verification: X' = s*P - d'*P - e*R, looked up in DB.

        Out-of-range scalars (``s`` or ``e`` outside ``[1, n)``) are
        rejected *before* any point arithmetic: silently reducing a
        wire value mod n would both waste three point multiplications
        on garbage and accept non-canonical encodings of a valid
        transcript (a replay-detection bypass).
        """
        curve = self.domain.curve
        ring = self.domain.scalar_ring
        if not 1 <= e < ring.n or not 1 <= s < ring.n:
            return None
        if not curve.is_on_curve(commitment) or commitment.is_infinity:
            return None
        shared = curve.multiply(self._y, commitment)
        self.ops.point_multiplications += 1
        d = ring.reduce(shared.x)
        s_minus_d = ring.sub(s, d)
        term1 = curve.multiply(s_minus_d, self.domain.generator)
        term2 = curve.multiply(e, commitment)
        self.ops.point_multiplications += 2
        candidate = curve.subtract(term1, term2)
        self.ops.point_additions += 1
        if candidate.is_infinity:
            return None
        return self.database.lookup(candidate)


def run_identification(
    tag: PeetersHermansTag,
    reader: PeetersHermansReader,
    rng,
) -> IdentificationResult:
    """Execute one full identification session, with accounting."""
    domain = tag.domain
    transcript = Transcript()
    tag_tx_before = tag.ops.tx_bits

    commitment = tag.commit(rng)
    transcript.record("tag", "R", _point_bits(domain))
    e = reader.challenge(rng)
    transcript.record("reader", "e", _scalar_bits(domain))
    s = tag.respond(e, rng)
    transcript.record("tag", "s", _scalar_bits(domain))
    identity = reader.identify(commitment, e, s)

    tag.ops.tx_bits = tag_tx_before + transcript.bits_from("tag")
    tag.ops.rx_bits += transcript.bits_from("reader")
    reader.ops.tx_bits += transcript.bits_from("reader")
    reader.ops.rx_bits += transcript.bits_from("tag")
    return IdentificationResult(
        accepted=identity is not None,
        identity=identity,
        transcript=transcript,
        tag_ops=tag.ops,
        reader_ops=reader.ops,
    )
