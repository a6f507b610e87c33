"""Machine-speed normalisation against a fixed reference kernel.

On a shared host the same Python code can run up to twice as slowly for
minutes at a time, because neighbours load the physical core; wall time
and CPU time both show it, so neither is steady enough to compare two
commits by.  The benchmark therefore runs a fixed pure-Python kernel
(big-integer shifts, XORs and small-list lookups, the instruction mix
of the GF(2^m) code) between workload steps, and scales every host time
by ``NOMINAL_S / kernel time`` measured around it: the figures read as
host time on a core running at the kernel's nominal speed.

The kernel is benchmark code and calls nothing in the program, so no
change to the program can move it.
"""

from __future__ import annotations

import statistics
from time import perf_counter

__all__ = ["NOMINAL_S", "SpeedGauge", "kernel_seconds"]

_ROUNDS = 7000
_MASK = (1 << 163) - 1
_A0 = 0x5A5A5A5A5A5A5A5A5A5A5A5A5A5A5A5A5A5A5A5A5 & _MASK
_B0 = 0x3C3C3C3C3C3C3C3C3C3C3C3C3C3C3C3C3C3C3C3C3 & _MASK

#: Median host time of one kernel run on a quiet core of the 2-vCPU
#: Intel Xeon (2.0 GHz) virtual machine the baseline was recorded on.
NOMINAL_S = 0.057


def kernel_seconds() -> float:
    """Host seconds of one run of the reference kernel."""
    a, b, acc = _A0, _B0, 0
    t0 = perf_counter()
    for i in range(_ROUNDS):
        table = [0] * 16
        for j in range(1, 16):
            low = j & -j
            table[j] = table[j ^ low] ^ (a << (low.bit_length() - 1))
        x, shift, product = b, 0, 0
        while x:
            product ^= table[x & 15] << shift
            x >>= 4
            shift += 4
        acc ^= product
        a = (a * 3 + i) & _MASK
    return perf_counter() - t0


class SpeedGauge:
    """Kernel samples taken between workload steps.

    ``tick()`` before each step samples the kernel when ``interval_s``
    has passed since the last sample; ``scale(start, end)`` is the
    factor that turns host time spent in ``[start, end]`` into nominal
    host time, from the median of the ``nearest`` samples around it
    (the slowdowns last tens of seconds, a sample has its own jitter).
    """

    def __init__(self, interval_s: float = 2.0, nearest: int = 5):
        self.interval_s = interval_s
        self.nearest = nearest
        self.samples: list = []   # (midpoint time, kernel seconds)

    def sample(self) -> float:
        t0 = perf_counter()
        seconds = kernel_seconds()
        self.samples.append((t0 + seconds / 2, seconds))
        return seconds

    def tick(self) -> None:
        last = self.samples[-1][0] if self.samples else None
        if last is None or perf_counter() - last >= self.interval_s:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        if not self.samples:
            raise ValueError("no kernel samples taken")
        middle = (start + end) / 2
        near = sorted(self.samples, key=lambda s: abs(s[0] - middle))
        return NOMINAL_S / statistics.median(
            seconds for _t, seconds in near[:self.nearest])

    def median_s(self) -> float:
        return statistics.median(seconds for _t, seconds in self.samples)
