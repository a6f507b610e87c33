"""Leakage models: from switching activity to instantaneous current.

Section 6: "During the 0->1 transition at the output, a CMOS gate
consumes power from the source, which is not the case for 0->0, 1->1
or 1->0 transitions.  This asymmetry is what enables the attacker to
develop a power consumption model."  The Hamming-distance activity the
architecture layer records is exactly the toggle count; a standard-
CMOS model passes it through (data-dependent current), while the
dynamic differential logic styles (SABL, WDDL [19]) consume a
*constant* amount per cycle with only a small residual imbalance.

All models map an :class:`~repro.arch.trace.ExecutionTrace` to a numpy
array of per-cycle current, in arbitrary "toggle units" that the
energy model converts to watts after calibration; a
:class:`~repro.arch.trace.BatchTrace` maps to one row per run, since
its ``(1, cycles)`` control and clock rows broadcast.
"""

from __future__ import annotations

import numpy as np

from ..arch.trace import ExecutionTrace

__all__ = [
    "LeakageModel",
    "CmosLeakageModel",
    "SablLeakageModel",
    "WddlLeakageModel",
    "ChannelWeights",
]


class ChannelWeights:
    """Relative electrical weight of the four activity channels.

    The control network drives long, repeater-laden wires (Section 6),
    so one control toggle switches more capacitance than one datapath
    toggle.  A clock toggle, by contrast, drives a single FF clock pin
    (the tree's per-leaf load is already counted in the architecture
    model), so its unit weight is small; with the always-on policy the
    clock then contributes a realistic ~1/3 of total power.
    """

    def __init__(self, datapath: float = 1.0, register: float = 1.2,
                 control: float = 3.0, clock: float = 0.15):
        for name, value in (("datapath", datapath), ("register", register),
                            ("control", control), ("clock", clock)):
            if value < 0:
                raise ValueError(f"{name} weight must be non-negative")
        self.datapath = datapath
        self.register = register
        self.control = control
        self.clock = clock


class LeakageModel:
    """Base class: subclasses implement :meth:`consumed`."""

    def consumed(self, trace: ExecutionTrace) -> np.ndarray:
        """Per-cycle consumed charge (toggle units) for an execution."""
        raise NotImplementedError

    @staticmethod
    def _channels(trace: ExecutionTrace) -> tuple:
        return (
            np.asarray(trace.datapath, dtype=np.float64),
            np.asarray(trace.register, dtype=np.float64),
            np.asarray(trace.control, dtype=np.float64),
            np.asarray(trace.clock, dtype=np.float64),
        )


class CmosLeakageModel(LeakageModel):
    """Standard CMOS: current proportional to switching activity.

    The fundamentally leaky style — every data-dependent toggle shows
    up in the trace.  This is the model under which the paper's chip
    is evaluated (it is a standard-cell design; its defences are
    architectural/algorithmic, not a secure logic style).
    """

    def __init__(self, weights: ChannelWeights = None):
        self.weights = weights or ChannelWeights()

    def consumed(self, trace: ExecutionTrace) -> np.ndarray:
        dp, reg, ctrl, clk = self._channels(trace)
        w = self.weights
        # In place, left to right: the bytes of the plain sum, without
        # its temporaries (a batch's channels are (N, cycles)).
        out = w.datapath * dp
        out += w.register * reg
        out += w.control * ctrl
        out += w.clock * clk
        return out


class _DifferentialLogicModel(LeakageModel):
    """Shared machinery for constant-power dual-rail styles.

    Every cycle consumes ``cells_per_cycle`` units regardless of data
    (each dual-rail gate fires exactly one of its two outputs), plus a
    ``residual_imbalance`` fraction of the true activity — the
    imperfect wire balancing that real SABL/WDDL layouts exhibit.
    """

    #: Area/power overhead factor vs standard CMOS (Section 6: "high
    #: area and power cost").
    POWER_OVERHEAD = 3.0

    def __init__(self, cells_per_cycle: float, residual_imbalance: float):
        if cells_per_cycle <= 0:
            raise ValueError("cells_per_cycle must be positive")
        if residual_imbalance < 0:
            raise ValueError("residual imbalance must be non-negative")
        self.cells_per_cycle = cells_per_cycle
        self.residual_imbalance = residual_imbalance

    def consumed(self, trace: ExecutionTrace) -> np.ndarray:
        dp, reg, ctrl, clk = self._channels(trace)
        data_dependent = dp + reg + ctrl + clk
        constant = np.full_like(data_dependent, self.cells_per_cycle)
        return self.POWER_OVERHEAD * constant + self.residual_imbalance * data_dependent


class SablLeakageModel(_DifferentialLogicModel):
    """Sense-Amplifier Based Logic: full-custom, best balancing.

    "SABL consumes the same amount of energy regardless of the data
    being processed" — modelled as constant consumption with a very
    small residual (requires the balanced dual-rail layout the paper
    mentions).
    """

    def __init__(self, cells_per_cycle: float = 400.0,
                 residual_imbalance: float = 0.01):
        super().__init__(cells_per_cycle, residual_imbalance)


class WddlLeakageModel(_DifferentialLogicModel):
    """Wave Dynamic Differential Logic: standard-cell compatible [19].

    Same principle as SABL but built from ordinary cells with a
    synthesis flow; balancing is slightly worse, so the default
    residual is larger.
    """

    def __init__(self, cells_per_cycle: float = 400.0,
                 residual_imbalance: float = 0.05):
        super().__init__(cells_per_cycle, residual_imbalance)
