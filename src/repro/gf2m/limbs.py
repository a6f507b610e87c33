"""Many field values at once: GF(2^m) elements as uint64 limb arrays.

The batch coprocessor (:mod:`repro.arch.batch`) runs N traces of one
instruction stream together, so each register holds N field values.
They live in a ``(limbs, N)`` uint64 array, least significant limb
first, with room to shift a reduced value up by a byte:
``limbs = ceil((m + 8) / 64)`` (3 for K-163, 4 for K-233, 1 for
TOY-B17).  Limbs lead so that each limb of all N values is one
contiguous row: a shift with its cross-limb carry is then two row
operations.  :func:`limb_field` builds a field's tables once per
process.
"""

from __future__ import annotations

import functools

import numpy as np

from .field import BinaryField, _byte_tables

__all__ = ["LimbField", "from_limbs", "limb_field", "octets", "popcount",
           "to_limbs"]

#: Widest shift one limb step takes: a digit, or one byte of a wide digit.
MAX_SHIFT = 8


def to_limbs(values, limbs: int) -> np.ndarray:
    """Non-negative ints below ``2**(64 * limbs)`` as a (limbs, N) array."""
    data = b"".join(v.to_bytes(8 * limbs, "little") for v in values)
    rows = np.frombuffer(data, dtype="<u8").reshape(-1, limbs)
    return np.ascontiguousarray(rows.T, dtype=np.uint64)


def octets(array: np.ndarray) -> np.ndarray:
    """(N, 8 * limbs) uint8: each value's bytes, least significant first."""
    return np.ascontiguousarray(array.T, dtype="<u8").view(np.uint8)


def from_limbs(array: np.ndarray) -> list:
    """The ints of a (limbs, N) array."""
    return [int.from_bytes(row.tobytes(), "little") for row in octets(array)]


def popcount(array: np.ndarray) -> np.ndarray:
    """Set bits per value of a (..., limbs, N) array: (..., N) int64."""
    return np.bitwise_count(array).sum(axis=-2, dtype=np.int64)


class LimbField:
    """One field's limb layout and its fold and squaring tables.

    ``fold[h]`` is ``reduce(h << m) ^ (h << m)``: XORed into a value
    whose bits above degree m are the byte ``h``, it clears them and
    adds their reduction, so a shift by ``w <= 8`` bits reduces with one
    lookup.  Squaring is GF(2)-linear; :meth:`square` XORs one table
    row per byte of the operand.
    """

    def __init__(self, field: BinaryField):
        m = field.m
        self.m = m
        self.limbs = -(-(m + MAX_SHIFT) // 64)
        self.top, self.offset = divmod(m, 64)
        if self.limbs != self.top + 1 or (self.top and
                                          self.offset < MAX_SHIFT):
            raise ValueError(
                f"GF(2^{m}): the bits around degree m must share one limb")
        table = field.overflow_table()
        #: (limbs, 256)
        self.fold = to_limbs([table[h] ^ (h << m) for h in range(256)],
                             self.limbs)
        self._field = field
        self._square_tables = None

    def shift(self, a: np.ndarray, w: int) -> np.ndarray:
        """``a << w`` across the limbs of a (limbs, N) array, unreduced,
        for ``0 < w < 64``."""
        out = a << np.uint64(w)
        if self.limbs > 1:
            out[1:] |= a[:-1] >> np.uint64(64 - w)
        return out

    def reduce_byte_overflow(self, a: np.ndarray) -> np.ndarray:
        """Reduce a (rows, limbs, N) array of degree below ``m + 8``
        in place."""
        high = a[:, self.top] >> np.uint64(self.offset)
        a ^= np.take(self.fold, high, axis=1).transpose(1, 0, 2)
        return a

    def square(self, a: np.ndarray) -> np.ndarray:
        """``a^2 mod f`` for a (limbs, N) array."""
        tables = self._square_tables
        if tables is None:
            images = self._field.x_powers(2 * self.m - 1)[::2]
            rows = _byte_tables(images)
            tables = self._square_tables = to_limbs(
                [v for row in rows for v in row + [0] * (256 - len(row))],
                self.limbs)
        n_bytes = tables.shape[1] // 256
        index = octets(a)[:, :n_bytes] + np.arange(0, 256 * n_bytes, 256,
                                                   dtype=np.intp)
        return np.bitwise_xor.reduce(np.take(tables, index.T, axis=1),
                                     axis=1)


@functools.lru_cache(maxsize=None)
def limb_field(field: BinaryField) -> LimbField:
    """The cached :class:`LimbField` of ``field``."""
    return LimbField(field)
