"""Digit-serial GF(2^m) multiplier: functional model with cycle accounting.

The paper's coprocessor uses a most-significant-digit-first digit-serial
multiplier for GF(2^163) with digit size d = 4 (a "163 x 4 modular
multiplier", Section 5).  The digit size trades latency against area
and power: one digit of the multiplier operand is consumed per clock
cycle, so a full modular multiplication takes ``ceil(m / d)`` cycles.

This module models that datapath bit-exactly: :meth:`multiply` returns
both the product and a per-cycle activity trace (accumulator states and
Hamming distances) that the power simulator in :mod:`repro.power` turns
into synthetic power samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from time import perf_counter as _perf_counter

import numpy as np

from ..obs import profile as _obs_profile
from .field import BinaryField
from .limbs import MAX_SHIFT, limb_field, octets, popcount
from .polynomial import clmul

__all__ = ["BatchDigitSerialMultiplier", "DigitSerialMultiplier",
           "MultiplicationTrace"]


def _tree_glitch(d: int) -> float:
    """Glitch factor of the partial-product array's log2(d)-deep XOR
    tree (see :meth:`DigitSerialMultiplier._multiply`)."""
    return 1.0 + 0.3 * math.log2(d) if d > 1 else 1.0


@dataclass
class MultiplicationTrace:
    """Per-cycle activity record of one digit-serial multiplication.

    Attributes
    ----------
    digit_size:
        Digit size d of the multiplier that produced the trace.
    accumulator_states:
        Accumulator value at the end of each cycle (``ceil(m/d)`` entries).
    hamming_distances:
        Hamming distance of the accumulator update in each cycle — the
        switching-activity proxy the CMOS power model consumes.
    array_activity:
        Per-cycle toggles of the d x m partial-product array and its
        XOR compression tree.  Scales with the digit size (wider array
        per cycle) and with the tree depth (glitching grows with
        log2(d)) — the physical reason wide-digit multipliers trade
        latency for power.
    """

    digit_size: int
    accumulator_states: list = dataclass_field(default_factory=list)
    hamming_distances: list = dataclass_field(default_factory=list)
    array_activity: list = dataclass_field(default_factory=list)

    @property
    def cycles(self) -> int:
        """Number of clock cycles the multiplication took."""
        return len(self.accumulator_states)


class DigitSerialMultiplier:
    """Most-significant-digit-first digit-serial modular multiplier.

    Computes ``a * b mod f`` by scanning the digits of ``b`` from the
    most significant end.  Per cycle the accumulator is shifted up by
    ``d`` bits, the partial product ``a * digit`` is XORed in, and the
    result is reduced below degree m — exactly the interleaved
    multiply-reduce datapath of the hardware.

    The sum ``(acc << d) ^ a * digit`` exceeds degree m by fewer than
    ``d`` bits.  Reduction is linear, so for ``d <= 8`` each cycle
    reduces it in one step, through the field's table of
    ``field.reduce(h << m)`` (:meth:`BinaryField.overflow_table`);
    wider digits reduce it with one ``field.reduce`` call.  Either way the
    accumulator equals the reduction of the shifted accumulator and of
    the partial product done separately, bit for bit.

    Parameters
    ----------
    field:
        The :class:`~repro.gf2m.field.BinaryField` to multiply in.
    digit_size:
        Digit size d >= 1.  The paper's design point is d = 4.
    """

    def __init__(self, field: BinaryField, digit_size: int):
        if digit_size < 1:
            raise ValueError("digit size must be >= 1")
        if digit_size > field.m:
            raise ValueError("digit size larger than the field degree is useless")
        self.field = field
        self.digit_size = digit_size
        self.num_digits = math.ceil(field.m / digit_size)
        self._fold = None
        if digit_size <= 8:
            self._fold = field.overflow_table()[:1 << digit_size]

    @property
    def cycles_per_multiplication(self) -> int:
        """Clock cycles for one modular multiplication: ceil(m / d)."""
        return self.num_digits

    def multiply(self, a: int, b: int) -> tuple[int, MultiplicationTrace]:
        """Multiply raw field values, returning (product, activity trace).

        The returned product equals ``field.mul_raw(a, b)`` — the
        datapath model is bit-exact against the reference arithmetic.
        Both operands must be reduced field values, in ``[0, 2**m)``
        (register contents); anything else raises ``ValueError``.
        """
        if a < 0 or b < 0 or (a | b) >> self.field.m:
            raise ValueError("operands must be field values in [0, 2^m)")
        if _obs_profile.enabled():
            t0 = _perf_counter()
            result = self._multiply(a, b)
            _obs_profile.observe("gf2m_multiply", _perf_counter() - t0)
            return result
        return self._multiply(a, b)

    def _multiply(self, a: int, b: int) -> tuple[int, MultiplicationTrace]:
        m = self.field.m
        d = self.digit_size
        mask = (1 << m) - 1
        digit_mask = (1 << d) - 1
        fold = self._fold
        # For small digits, precompute the 2^d partial products
        # a * digit; for wide digits fall back to a carry-less multiply
        # per cycle (the hardware analogue is a d-bit row of partial
        # product generators either way).
        if fold is not None:
            partials = [0] * (1 << d)
            for i in range(1, 1 << d):
                low_bit = i & -i
                partials[i] = partials[i ^ low_bit] ^ (a << (low_bit.bit_length() - 1))
        # Partial-product array model: each cycle the d rows of AND
        # gates driven by operand `a` recompute against a fresh digit,
        # and the result ripples through a log2(d)-deep XOR tree whose
        # glitching grows with depth.  Per-cycle toggles ~ HW(a) * d/2,
        # scaled by the tree-depth glitch factor.
        per_cycle_array = a.bit_count() * d / 2.0 * _tree_glitch(d)
        states = []
        distances = []
        acc = 0
        shifts = range((self.num_digits - 1) * d, -1, -d)
        if fold is not None:
            for shift in shifts:
                value = (acc << d) ^ partials[(b >> shift) & digit_mask]
                new_acc = (value & mask) ^ fold[value >> m]
                distances.append((acc ^ new_acc).bit_count())
                acc = new_acc
                states.append(acc)
        else:
            reduce = self.field.reduce
            for shift in shifts:
                new_acc = reduce((acc << d) ^ clmul(a, (b >> shift) & digit_mask))
                distances.append((acc ^ new_acc).bit_count())
                acc = new_acc
                states.append(acc)
        trace = MultiplicationTrace(
            digit_size=d,
            accumulator_states=states,
            hamming_distances=distances,
            array_activity=[per_cycle_array] * len(states),
        )
        return acc, trace

    def __repr__(self) -> str:
        return (
            f"DigitSerialMultiplier(m={self.field.m}, d={self.digit_size}, "
            f"cycles={self.cycles_per_multiplication})"
        )


class BatchDigitSerialMultiplier:
    """The same datapath for N operand pairs at once, on limb arrays.

    Operands are ``(limbs, N)`` arrays of reduced values (see
    :mod:`repro.gf2m.limbs`).  Each operand ``a`` gets a table of its
    reduced partial products ``a * s`` for every sub-digit ``s``, and one
    ``np.take`` gathers every cycle's partial before the cycle loop.  A
    cycle is then ``acc * x^d`` (a shift and one fold lookup) XOR its
    partial, which by linearity equals the scalar datapath's reduced
    accumulator.  A digit wider than 8 bits runs as byte sub-digits,
    most significant first; only the value at the end of each cycle is
    the accumulator the cycle's Hamming distance compares.  Every
    cycle's ``old ^ new`` is kept and counted once at the end.
    :meth:`multiply` returns what :meth:`DigitSerialMultiplier.multiply`
    and :meth:`repro.arch.malu.Malu.multiply` give each pair: the
    products, and per cycle the accumulator toggles plus the
    partial-product array activity, as the same float operations.
    """

    def __init__(self, field: BinaryField, digit_size: int):
        self.limb_field = limb_field(field)
        self.digit_size = d = digit_size
        self.num_digits = math.ceil(field.m / d)
        subs = -(-d // MAX_SHIFT)
        widths = [d - MAX_SHIFT * (subs - 1)] + [MAX_SHIFT] * (subs - 1)
        #: (width, ends a cycle) of every step, most significant first
        self._steps = [(w, i == subs - 1) for _ in range(self.num_digits)
                       for i, w in enumerate(widths)]
        self._width = widths[-1]
        # Bit i (lowest first) of every step's sub-digit, as an index
        # into the operand's unpacked bits; bits past the limbs are 0.
        limit = 64 * self.limb_field.limbs
        index, low = [], self.num_digits * d
        for w, _ends in self._steps:
            low -= w
            index.append([low + i if i < w and low + i < limit else limit
                          for i in range(MAX_SHIFT)])
        self._bit_index = np.array(index, dtype=np.intp)
        self._glitch = _tree_glitch(d)
        offset = self.limb_field.offset
        self._shifts = {w: (np.uint64(w), np.uint64(64 - w),
                            np.uint64(offset - w)) for w in set(widths)}

    def _partials(self, a: np.ndarray) -> np.ndarray:
        """(2^w, limbs, N): ``a * s mod f`` for every sub-digit ``s``."""
        lf = self.limb_field
        w = self._width
        table = np.zeros((1 << w,) + a.shape, dtype=np.uint64)
        table[1] = a
        for k in range(1, w):
            table[1 << k:2 << k] = table[:1 << k] ^ lf.shift(a, k)
        return lf.reduce_byte_overflow(table)

    def multiply(self, a: np.ndarray, b: np.ndarray) -> tuple:
        """(products, activity): (limbs, N) and (N, cycles) float64."""
        lf = self.limb_field
        n = a.shape[1]
        bits = np.unpackbits(octets(b), axis=1, bitorder="little")
        bits = np.concatenate([bits, np.zeros((n, 1), np.uint8)], axis=1)
        digits = np.packbits(bits[:, self._bit_index], axis=-1,
                             bitorder="little")[..., 0]
        partials = self._partials(a)[digits.T, :, np.arange(n)]
        partials = np.ascontiguousarray(partials.transpose(0, 2, 1))
        toggles = np.empty((self.num_digits, lf.limbs, n), dtype=np.uint64)
        acc = previous = np.zeros((lf.limbs, n), dtype=np.uint64)
        fold, top, carry = lf.fold, lf.top, lf.limbs > 1
        cycle = 0
        for step, (w, ends) in enumerate(self._steps):
            # acc * x^w mod f: shift, then fold the w bits past degree m.
            shift, back, high = self._shifts[w]
            folded = fold.take(acc[top] >> high, axis=1)
            new = acc << shift
            if carry:
                new[1:] |= acc[:-1] >> back
            new ^= folded
            new ^= partials[step]
            acc = new
            if ends:
                np.bitwise_xor(previous, acc, out=toggles[cycle])
                previous = acc
                cycle += 1
        array = popcount(a) * self.digit_size / 2.0 * self._glitch
        return acc, popcount(toggles).T + array[:, None]
