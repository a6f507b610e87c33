"""Montgomery powering ladder for binary curves (Algorithm 1 of the paper).

The paper's coprocessor computes every point multiplication with the
Montgomery powering ladder (MPL) in x-only López–Dahab coordinates:

* the same two operations (one differential addition, one doubling)
  run in every iteration regardless of the key bit — the algorithm-level
  timing/SPA countermeasure;
* only x-coordinates are carried (one coordinate = 163 bits of
  storage), so the whole multiplication fits in six 163-bit registers;
* the initial projective representation is randomized with a fresh
  ``Z = r`` (``R <- (x*r : r)`` in Algorithm 1) — the DPA
  countermeasure evaluated in Section 7, drawn by :func:`choose_z`.

The loop is written once, in :func:`ladder_suspend_advance`, over the
frozen :class:`LadderState`.  :func:`montgomery_ladder` runs it in one
advance; :func:`montgomery_ladder_full` runs it step by step and
returns a :class:`LadderExecution` with the per-iteration register
values, which the side-channel layer uses both to *generate* leakage
and to *predict* intermediates during DPA.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field as dataclass_field, replace
from typing import Optional

from .curve import BinaryEllipticCurve
from .point import AffinePoint

__all__ = [
    "LadderIteration",
    "LadderExecution",
    "LadderState",
    "LadderStateError",
    "choose_z",
    "montgomery_ladder",
    "montgomery_ladder_full",
    "ladder_suspend_init",
    "ladder_suspend_advance",
    "ladder_suspend_result",
]

#: Field-operation cost of one ladder iteration (Madd + Mdouble):
#: 6 multiplications and 4 squarings.
MULS_PER_ITERATION = 6
SQUARES_PER_ITERATION = 4


@dataclass(frozen=True)
class LadderIteration:
    """Register state after one ladder iteration.

    ``(X1, Z1)`` tracks ``prefix * P`` and ``(X2, Z2)`` tracks
    ``(prefix + 1) * P`` where ``prefix`` is the key prefix consumed so
    far — the Montgomery ladder invariant.
    """

    key_bit: int
    X1: int
    Z1: int
    X2: int
    Z2: int


@dataclass
class LadderExecution:
    """Complete record of one Montgomery-ladder point multiplication."""

    scalar: int
    base: AffinePoint
    initial_z: int
    iterations: list = dataclass_field(default_factory=list)
    result: Optional[AffinePoint] = None

    @property
    def num_iterations(self) -> int:
        """Ladder iterations executed (bit length of the scalar minus 1)."""
        return len(self.iterations)

    @property
    def field_multiplications(self) -> int:
        """Total field multiplications in the ladder loop."""
        return MULS_PER_ITERATION * self.num_iterations


def _madd(f, x_base: int, x1: int, z1: int, x2: int, z2: int) -> tuple[int, int]:
    """Differential addition: x(P1 + P2) from x(P1), x(P2), x(P1 - P2).

    López–Dahab formulas, 4 multiplications + 1 squaring.
    """
    t1 = f.mul_raw(x1, z2)
    t2 = f.mul_raw(x2, z1)
    z3 = f.square_raw(t1 ^ t2)
    x3 = f.mul_raw(x_base, z3) ^ f.mul_raw(t1, t2)
    return x3, z3


def _mdouble(f, sqrt_b: int, x: int, z: int) -> tuple[int, int]:
    """Doubling: x(2P) from x(P).  2 multiplications + 3 squarings;
    sqrt(b) = 1 (K-163, K-233, TOY-B17) skips the first multiplication,
    as the coprocessor microcode does, and the result is the same."""
    x_sq = f.square_raw(x)
    z_sq = f.square_raw(z)
    root_b_z_sq = z_sq if sqrt_b == 1 else f.mul_raw(sqrt_b, z_sq)
    x3 = f.square_raw(x_sq ^ root_b_z_sq)
    z3 = f.mul_raw(x_sq, z_sq)
    return x3, z3


def _recover_y(
    curve: BinaryEllipticCurve,
    base: AffinePoint,
    x1: int,
    z1: int,
    x2: int,
    z2: int,
) -> AffinePoint:
    """López–Dahab y-recovery from the two final ladder x-coordinates."""
    f = curve.field
    if z1 == 0:
        return AffinePoint.infinity()
    if z2 == 0:
        # (k+1)P = infinity, so kP = -P.
        return curve.negate(base)
    x, y = base.x, base.y
    xa = f.mul_raw(x1, f.inverse_raw(z1))  # affine x of kP
    xb = f.mul_raw(x2, f.inverse_raw(z2))  # affine x of (k+1)P
    # y_k = (x_k + x) * [ (x_k + x)(x_{k+1} + x) + x^2 + y ] / x + y
    t = f.mul_raw(xa ^ x, xb ^ x) ^ f.square_raw(x) ^ y
    y_k = f.mul_raw(f.mul_raw(xa ^ x, t), f.inverse_raw(x)) ^ y
    return AffinePoint(xa, y_k)


def choose_z(field, rng, randomize_z: bool, initial_z: Optional[int]) -> int:
    """The ladder's starting ``Z`` (Algorithm 1's ``r``).

    ``initial_z`` when given (the white-box "randomness known to the
    adversary" scenario); otherwise, when ``randomize_z``, a non-zero
    ``m``-bit value drawn from ``rng`` by rejection; otherwise 1.  The
    ladder, the coprocessor and the trace campaigns all draw through
    here, so a seeded ``rng`` yields the same ``Z`` sequence in each.
    """
    if initial_z is not None:
        return initial_z
    if not randomize_z:
        return 1
    if rng is None:
        raise ValueError("randomize_z requires an rng (or initial_z)")
    z0 = 0
    while z0 == 0:
        z0 = rng.getrandbits(field.m) & (field.order - 1)
    return z0


def _degenerate_result(curve: BinaryEllipticCurve, k: int,
                       point: AffinePoint) -> Optional[AffinePoint]:
    """``k * point`` for inputs the ladder loop cannot run on, else None."""
    if k < 0:
        raise ValueError("the ladder expects a non-negative scalar")
    if point.is_infinity or k == 0:
        return AffinePoint.infinity()
    if point.x == 0:
        # The 2-torsion point; the x-only formulas degenerate (x_base
        # appears as a multiplicand).  Fall back to the affine law.
        return curve.multiply(k, point)
    return None


def montgomery_ladder_full(
    curve: BinaryEllipticCurve,
    k: int,
    point: AffinePoint,
    rng=None,
    randomize_z: bool = True,
    initial_z: Optional[int] = None,
) -> LadderExecution:
    """Run the Montgomery powering ladder and record every iteration.

    Parameters
    ----------
    curve, k, point:
        The scalar multiplication ``k * point`` to compute (``k >= 0``).
    rng:
        Randomness source for the projective-coordinate randomization
        (``random.Random``-compatible).  Required when ``randomize_z``
        is True and ``initial_z`` is not given.
    randomize_z:
        The paper's DPA countermeasure.  When False, ``Z`` starts at 1
        and every intermediate is a deterministic function of the key
        and base point — the configuration in which Section 7's DPA
        succeeds with ~200 traces.
    initial_z:
        Explicit randomization value; used by the white-box
        "randomness known to the adversary" evaluation scenario.

    Returns
    -------
    LadderExecution
        With per-iteration ``(X1, Z1, X2, Z2)`` states and the affine
        result (y recovered).
    """
    result = _degenerate_result(curve, k, point)
    if result is not None:
        return LadderExecution(scalar=k, base=point, initial_z=1,
                               result=result)
    z0 = choose_z(curve.field, rng, randomize_z, initial_z)
    execution = LadderExecution(scalar=k, base=point, initial_z=z0)
    state = ladder_suspend_init(curve, k, point, z0)
    while not state.finished:
        bit = (k >> state.bit_index) & 1
        state = ladder_suspend_advance(curve, state, 1)
        execution.iterations.append(LadderIteration(
            key_bit=bit, X1=state.x1, Z1=state.z1, X2=state.x2, Z2=state.z2))
    execution.result = ladder_suspend_result(curve, state)
    return execution


# ----------------------------------------------------------------------
# the suspendable ladder: Algorithm 1, one step at a time
# ----------------------------------------------------------------------

class LadderStateError(ValueError):
    """A checkpoint payload :meth:`LadderState.from_dict` refuses: not
    what :meth:`LadderState.to_dict` writes, or no state a ladder run
    can be in."""


#: ``format(value, "x")``: lowercase hex, no prefix, no leading zeros.
_HEX = re.compile(r"0|[1-9a-f][0-9a-f]*")
_REGISTER_KEYS = ("k", "bx", "by", "z0", "x1", "z1", "x2", "z2")
_CHECKPOINT_KEYS = {*_REGISTER_KEYS, "bit"}


@dataclass(frozen=True)
class LadderState:
    """A Montgomery-ladder execution frozen between two iterations.

    The intermittent-power layer checkpoints this to modeled NVM: the
    four projective registers plus the index of the *next* key bit are
    the complete machine state — resuming from a ``LadderState`` and
    running to the end produces bit-identical registers to an
    uninterrupted :func:`montgomery_ladder_full` with the same
    ``initial_z``.  Frozen so a checkpointed state can never be
    mutated behind the store's back; :func:`ladder_suspend_advance`
    returns a fresh state instead.

    ``bit_index`` counts down from ``k.bit_length() - 2``; ``-1``
    means every iteration has run and only y-recovery remains.
    """

    scalar: int
    base_x: int
    base_y: int
    initial_z: int
    bit_index: int
    x1: int
    z1: int
    x2: int
    z2: int

    @property
    def finished(self) -> bool:
        return self.bit_index < 0

    @property
    def steps_total(self) -> int:
        return max(0, self.scalar.bit_length() - 1)

    @property
    def steps_done(self) -> int:
        return self.steps_total - (self.bit_index + 1)

    def to_dict(self) -> dict:
        """Checkpoint payload: every register as lowercase hex."""
        return {
            "k": format(self.scalar, "x"),
            "bx": format(self.base_x, "x"),
            "by": format(self.base_y, "x"),
            "z0": format(self.initial_z, "x"),
            "bit": self.bit_index,
            "x1": format(self.x1, "x"),
            "z1": format(self.z1, "x"),
            "x2": format(self.x2, "x"),
            "z2": format(self.z2, "x"),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LadderState":
        """Decode a :meth:`to_dict` payload, or raise
        :class:`LadderStateError` if ``to_dict`` could not have written
        it or no ladder run can resume from it.  Whether the registers
        are reduced field values needs the curve; that is not checked.
        """
        if not isinstance(data, dict) or data.keys() != _CHECKPOINT_KEYS:
            raise LadderStateError("a ladder checkpoint is a dict with keys "
                                   f"{sorted(_CHECKPOINT_KEYS)}")
        for key in _REGISTER_KEYS:
            value = data[key]
            if not isinstance(value, str) or not _HEX.fullmatch(value):
                raise LadderStateError(
                    f"ladder checkpoint {key}={value!r} is not lowercase hex")
        k, bit = int(data["k"], 16), data["bit"]
        if k < 1 or int(data["z0"], 16) < 1:
            raise LadderStateError("ladder checkpoint needs k, z0 >= 1")
        if type(bit) is not int or not -1 <= bit <= k.bit_length() - 2:
            raise LadderStateError(
                f"ladder checkpoint bit={bit!r} is not a bit index of k")
        return cls(
            scalar=k,
            base_x=int(data["bx"], 16),
            base_y=int(data["by"], 16),
            initial_z=int(data["z0"], 16),
            bit_index=bit,
            x1=int(data["x1"], 16),
            z1=int(data["z1"], 16),
            x2=int(data["x2"], 16),
            z2=int(data["z2"], 16),
        )


def ladder_suspend_init(
    curve: BinaryEllipticCurve,
    k: int,
    point: AffinePoint,
    initial_z: int,
) -> LadderState:
    """Set up a suspendable ladder run (Algorithm 1's preamble).

    The degenerate inputs the full ladder special-cases (``k == 0``,
    the identity, the 2-torsion point) have no iteration loop to
    suspend, so they are rejected here — protocol scalars are drawn
    from ``[1, n)`` and bases are valid curve points, which is the
    suspendable path's contract.
    """
    if k < 1:
        raise ValueError("the suspendable ladder needs a positive scalar")
    if point.is_infinity or point.x == 0:
        raise ValueError("the suspendable ladder needs an ordinary "
                         "base point (not the identity or 2-torsion)")
    f = curve.field
    if initial_z == 0 or initial_z >= f.order:
        raise ValueError("initial Z must be a non-zero reduced field value")
    # R <- (x*r : r), Q <- 2P (Algorithm 1, projective randomization).
    x1, z1 = f.mul_raw(point.x, initial_z), initial_z
    x2, z2 = _mdouble(f, curve._sqrt_b, x1, z1)
    return LadderState(
        scalar=k, base_x=point.x, base_y=point.y, initial_z=initial_z,
        bit_index=k.bit_length() - 2, x1=x1, z1=z1, x2=x2, z2=z2,
    )


def ladder_suspend_advance(
    curve: BinaryEllipticCurve,
    state: LadderState,
    steps: int,
) -> LadderState:
    """Run up to ``steps`` ladder iterations; return the new state.

    Each iteration is a swap by the key bit, then Madd + Mdouble: the
    *same* two operations execute for either key bit; only the operand
    routing (the multiplexer control of Figure 3) differs.

    Pure: the input state is untouched, so a caller that checkpoints
    ``state`` and crashes mid-advance resumes from exactly the bits
    the checkpoint had consumed.
    """
    if steps < 0:
        raise ValueError("cannot advance a negative number of steps")
    f, sqrt_b, x = curve.field, curve._sqrt_b, state.base_x
    x1, z1, x2, z2 = state.x1, state.z1, state.x2, state.z2
    bit_index = state.bit_index
    for _ in range(min(steps, bit_index + 1)):
        if (state.scalar >> bit_index) & 1:
            x1, z1 = _madd(f, x, x1, z1, x2, z2)
            x2, z2 = _mdouble(f, sqrt_b, x2, z2)
        else:
            x2, z2 = _madd(f, x, x2, z2, x1, z1)
            x1, z1 = _mdouble(f, sqrt_b, x1, z1)
        bit_index -= 1
    return replace(state, bit_index=bit_index, x1=x1, z1=z1, x2=x2, z2=z2)


def ladder_suspend_result(
    curve: BinaryEllipticCurve,
    state: LadderState,
) -> AffinePoint:
    """y-recovery of a finished suspendable run."""
    if not state.finished:
        raise ValueError(
            f"ladder still has {state.bit_index + 1} iterations to run")
    base = AffinePoint(state.base_x, state.base_y)
    return _recover_y(curve, base, state.x1, state.z1, state.x2, state.z2)


def montgomery_ladder(
    curve: BinaryEllipticCurve,
    k: int,
    point: AffinePoint,
    rng=None,
    randomize_z: bool = True,
    initial_z: Optional[int] = None,
) -> AffinePoint:
    """Compute ``k * point`` with the Montgomery powering ladder.

    Same inputs and result as :func:`montgomery_ladder_full`, without
    the per-iteration record: the whole scalar runs in one advance.
    """
    result = _degenerate_result(curve, k, point)
    if result is not None:
        return result
    z0 = choose_z(curve.field, rng, randomize_z, initial_z)
    state = ladder_suspend_init(curve, k, point, z0)
    state = ladder_suspend_advance(curve, state, state.bit_index + 1)
    return ladder_suspend_result(curve, state)
