"""The virtual oscilloscope: noisy power traces from executions.

Figure 4's measurement setup — chip, current probe, oscilloscope —
reduced to: run the coprocessor, map its switching activity through a
leakage model, add measurement noise.  Because the coprocessor is
constant-time, traces are perfectly aligned by construction, exactly
as they would be after the alignment preprocessing of a real campaign.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..arch.trace import ExecutionTrace
from ..obs import profile as _obs_profile
from ..obs import runtime as _obs_runtime
from .models import CmosLeakageModel, LeakageModel

__all__ = ["PowerTraceSimulator"]


class PowerTraceSimulator:
    """Generates measurement traces from coprocessor executions.

    Parameters
    ----------
    leakage_model:
        Electrical model (CMOS by default; SABL/WDDL for the secure
        logic styles).
    noise_sigma:
        Gaussian measurement/switching noise, in the same toggle units
        as the model output.  It is not fitted to the paper's trace
        counts.  The side-channel benches and campaigns use 38, at
        which the unprotected DPA of experiment E5 discloses two key
        bits within 50 traces; the paper's noisier lab needed about
        200.
    seed:
        Seed of the noise generator (reproducible campaigns).
    """

    def __init__(self, leakage_model: Optional[LeakageModel] = None,
                 noise_sigma: float = 12.0, seed: int = 0):
        if noise_sigma < 0:
            raise ValueError("noise sigma must be non-negative")
        self.leakage_model = leakage_model or CmosLeakageModel()
        self.noise_sigma = noise_sigma
        self._noise_rng = np.random.default_rng(seed)

    def measure(self, execution: ExecutionTrace) -> np.ndarray:
        """One noisy power trace per run: ``(cycles,)`` for an
        :class:`ExecutionTrace`, ``(N, cycles)`` for a
        :class:`~repro.arch.trace.BatchTrace`.

        A batch draws its noise as one ``(N, cycles)`` block, which the
        generator fills row by row with the numbers N draws of one row
        would give, so a batch measures exactly as its runs would one
        after another.
        """
        with _obs_profile.timed("power_measure"):
            trace = self.leakage_model.consumed(execution)
            if self.noise_sigma != 0:
                trace += self._noise_rng.normal(
                    0.0, self.noise_sigma, size=trace.shape)
        rt = _obs_runtime.current()
        if rt is not None:
            rt.registry.counter(
                "repro_power_traces_total",
                "synthetic power traces measured",
            ).inc(trace.shape[0] if trace.ndim == 2 else 1)
        return trace
