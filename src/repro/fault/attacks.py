"""Fault attacks: safe-error bit extraction and the invalid-curve attack.

Two classic active attacks against scalar multipliers, both of which
the paper's countermeasure list must stop:

* **C safe-error** (against double-and-add-always): fault the adder
  during iteration i; if the device's final answer is unchanged, the
  faulted addition was the dummy, i.e. key bit i is 0.  This is why
  "add a dummy operation" is NOT a free countermeasure — it trades an
  SPA channel for a fault channel.

* **Twist attack** (the invalid-point attack against x-only ladders):
  the Montgomery-ladder formulas use only the coefficient ``b`` —
  never ``a`` or the y-coordinate — so *any* field element is accepted
  as a base x-coordinate.  An x with no point on the curve lies on the
  quadratic twist (same ``b``, an ``a'`` of opposite trace), and the
  device faithfully computes the scalar multiplication in the twist
  group.  If the twist order has a small factor ``r``, the attacker
  reads ``k mod r`` off the output with a brute-force discrete log.
  Demonstrated end-to-end on a deliberately small field where group
  orders can be brute-forced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..ec.curve import BinaryEllipticCurve
from ..ec.point import AffinePoint

__all__ = ["safe_error_attack", "find_small_order_invalid_point",
           "invalid_curve_residue", "InvalidCurvePoint", "quadratic_twist", "count_points"]


def safe_error_attack(
    curve: BinaryEllipticCurve,
    point: AffinePoint,
    device: Callable,
    correct_output: AffinePoint,
    n_bits: int,
) -> list:
    """Recover the top key bits of a double-and-add-always device.

    ``device(fault_iteration)`` must run the victim with a fault in the
    given iteration and return its output (the attacker has physical
    access and a trigger).  A changed output means the faulted addition
    was real (bit 1); an unchanged output means it was dummy (bit 0).
    """
    recovered = []
    for iteration in range(n_bits):
        faulted = device(iteration)
        recovered.append(0 if faulted == correct_output else 1)
    return recovered


@dataclass(frozen=True)
class InvalidCurvePoint:
    """An attack point: on the quadratic twist, of small prime order r.

    ``twist_a`` is the twist curve's ``a`` coefficient (same ``b`` as
    the target curve); the device never sees it — it only receives the
    x-coordinate, which has no point on the real curve.
    """

    point: AffinePoint
    order: int
    twist_a: int


def quadratic_twist(curve: BinaryEllipticCurve) -> BinaryEllipticCurve:
    """The quadratic twist: same ``b``, an ``a'`` with opposite trace.

    Every x in GF(2^m) is the x-coordinate of a point on the curve or
    on its twist (or both, for the 2-torsion x values).
    """
    f = curve.field
    if f.trace_raw(curve.a) == 1:
        twist_a = 0
    else:
        twist_a = f._element_of_trace_one()
    return BinaryEllipticCurve(f, twist_a, curve.b)


def count_points(curve: BinaryEllipticCurve) -> int:
    """Exhaustive point count, #E including infinity (toy fields only)."""
    f = curve.field
    if f.m > 16:
        raise ValueError("exhaustive counting is for toy fields (m <= 16)")
    total = 1  # infinity
    for x in range(f.order):
        if x == 0:
            total += 1  # the unique 2-torsion point (0, sqrt(b))
        elif curve.lift_x(x) is not None:
            total += 2
    return total


def find_small_order_invalid_point(
    curve: BinaryEllipticCurve,
    max_order: int,
    rng,
    max_attempts: int = 4000,
) -> Optional[InvalidCurvePoint]:
    """Search for a small-order point on the curve's quadratic twist.

    Only practical on toy fields (the demo uses GF(2^13)) where the
    twist order can be counted exhaustively; on real parameters the
    attacker would compute it with SEA, but the *device-side*
    vulnerability is identical.  Returns None when the twist order has
    no odd prime factor <= ``max_order`` (a "twist-secure" curve) or
    no suitable point is found.
    """
    f = curve.field
    if f.m > 16:
        raise ValueError("brute-force search is for toy fields (m <= 16)")
    twist = quadratic_twist(curve)
    twist_order = count_points(twist)
    small_primes = [
        r for r in range(3, max_order + 1, 2)
        if _is_prime(r) and twist_order % r == 0
    ]
    if not small_primes:
        return None
    r = small_primes[0]
    cofactor = twist_order // r
    for _ in range(max_attempts):
        x = rng.getrandbits(f.m) & (f.order - 1)
        if x == 0 or curve.lift_x(x) is not None:
            continue  # want an x with NO point on the real curve
        candidate = twist.lift_x(x)
        if candidate is None:
            continue
        reduced = twist.multiply(cofactor, candidate)
        if not reduced.is_infinity and reduced.x != 0:
            return InvalidCurvePoint(reduced, r, twist.a)
    return None


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def invalid_curve_residue(
    curve: BinaryEllipticCurve,
    attack_point: InvalidCurvePoint,
    device_output: AffinePoint,
) -> Optional[int]:
    """Recover ``k mod r`` from the device's answer on the twist point.

    The x-only ladder formulas depend only on ``b``, which the twist
    shares, so the unvalidated device computed the honest scalar
    multiplication *in the twist group*; a brute-force discrete log
    over the r-element subgroup reveals the residue (up to sign, since
    x-only outputs satisfy x(kP) = x(-kP)).  Returns None if the
    output matches no multiple (e.g. the device validated after all).
    """
    twist = BinaryEllipticCurve(curve.field, attack_point.twist_a,
                                curve.b)
    current = AffinePoint.infinity()
    for residue in range(attack_point.order):
        if _same_x(current, device_output):
            return residue
        current = twist.add(current, attack_point.point)
    return None


def _same_x(a: AffinePoint, b: AffinePoint) -> bool:
    """Compare by x-coordinate (x-only devices leak exactly that)."""
    if a.is_infinity or b.is_infinity:
        return a.is_infinity and b.is_infinity
    return a.x == b.x
