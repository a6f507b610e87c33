"""Control-signal modelling: multiplexer select encoding (Figure 3).

The ladder step routes either (X1, Z1) or (X2, Z2) into the
differential-addition datapath depending on the key bit.  The select
signal drives many multiplexers ("164 in the presented ECC
co-processor") plus long wires and repeaters, so its transitions are
clearly visible in the power trace.

The paper's circuit-level countermeasure: "these signals have to be
encoded in such a way that the corresponding Hamming differences are
constant, otherwise the unbalance will reflect in the power trace",
backed by "regular layout structure and identical routing".  Section 7
adds the caveat that residual *layout* imbalance still leaves a small
SPA leak exploitable by a profiled attacker.

Three encodings model that spectrum:

* :class:`UnbalancedEncoding` — a single select wire; the per-iteration
  transition count equals the key-bit transition, a direct SPA leak.
* :class:`BalancedEncoding` — dual-rail (sel, sel_bar) with return-to-
  zero precharge: exactly one rail rises every iteration regardless of
  the key, so the Hamming difference is constant.
* :class:`BalancedEncoding` with ``layout_mismatch > 0`` — the two
  rails carry slightly different capacitance, leaving a leak of that
  relative magnitude (the profiled-SPA residual of Section 7).
"""

from __future__ import annotations

__all__ = [
    "MuxEncoding",
    "UnbalancedEncoding",
    "BalancedEncoding",
    "DEFAULT_MUX_FANOUT",
]

#: Multiplexer fan-out of the select network in the paper's design.
DEFAULT_MUX_FANOUT = 164


class MuxEncoding:
    """Base class: maps key-bit sequences to control-network activity.

    Subclasses implement :meth:`transition_weight`, the effective
    switched capacitance (in units of unit-wire toggles) of the select
    network when the ladder moves from processing ``previous_bit`` to
    ``current_bit``.
    """

    def __init__(self, fanout: int = DEFAULT_MUX_FANOUT):
        if fanout < 1:
            raise ValueError("mux fanout must be positive")
        self.fanout = fanout

    def transition_weight(self, previous_bit: int, current_bit: int) -> float:
        """Control-network switching activity for one iteration start."""
        raise NotImplementedError


class UnbalancedEncoding(MuxEncoding):
    """Single-wire select: activity = fanout when the key bit flips.

    The Hamming difference between iterations is 0 or 1 depending on
    whether consecutive key bits differ — the Figure 3 "unbalanced"
    case that enables plain SPA.
    """

    def transition_weight(self, previous_bit: int, current_bit: int) -> float:
        return float(self.fanout) if previous_bit != current_bit else 0.0


class BalancedEncoding(MuxEncoding):
    """Dual-rail precharged select: constant activity per iteration.

    Each iteration precharges both rails and raises exactly one of
    them, so the ideal transition count is ``fanout`` regardless of the
    key.  ``layout_mismatch`` epsilon models the capacitance difference
    between the true and complement rails after place-and-route: the
    rail that rises for bit=1 is ``(1 + epsilon)`` heavier, leaving a
    second-order leak proportional to epsilon.
    """

    def __init__(self, fanout: int = DEFAULT_MUX_FANOUT, layout_mismatch: float = 0.0):
        super().__init__(fanout)
        if layout_mismatch < 0:
            raise ValueError("layout mismatch must be non-negative")
        self.layout_mismatch = layout_mismatch

    def transition_weight(self, previous_bit: int, current_bit: int) -> float:
        base = float(self.fanout)
        if current_bit == 1:
            return base * (1.0 + self.layout_mismatch)
        return base
