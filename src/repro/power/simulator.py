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

from ..arch.coprocessor import EccCoprocessor
from ..arch.trace import ExecutionTrace
from ..ec.ladder import choose_z
from ..obs import profile as _obs_profile
from ..obs import runtime as _obs_runtime
from .models import CmosLeakageModel, LeakageModel

__all__ = ["PowerTraceSimulator", "TraceSet"]


class TraceSet:
    """A campaign's worth of measurements, as the attacker sees them.

    Attributes
    ----------
    samples:
        ``(n_traces, n_samples)`` float64 array of power samples.
    inputs:
        The known per-trace inputs (base points).
    known_randomness:
        Per-trace ``initial_z`` values, only populated in the white-box
        "randomness known to the adversary" scenario; None otherwise.
    iteration_slices:
        Cycle windows of each ladder iteration (public knowledge: the
        design is constant-time, so the schedule is fixed).
    key_bits:
        Ground truth (for *evaluation* of an attack, never used by the
        attack itself).
    """

    def __init__(self, samples: np.ndarray, inputs: list,
                 iteration_slices: list, key_bits: list,
                 known_randomness: Optional[list] = None):
        self.samples = samples
        self.inputs = inputs
        self.iteration_slices = iteration_slices
        self.key_bits = key_bits
        self.known_randomness = known_randomness

    @property
    def n_traces(self) -> int:
        """Number of acquired traces."""
        return self.samples.shape[0]

    @property
    def n_samples(self) -> int:
        """Samples per trace."""
        return self.samples.shape[1]

    def subset(self, n: int) -> "TraceSet":
        """The first ``n`` traces (for traces-to-disclosure sweeps)."""
        if n > self.n_traces:
            raise ValueError("subset larger than the campaign")
        return TraceSet(
            self.samples[:n],
            self.inputs[:n],
            self.iteration_slices,
            self.key_bits,
            None if self.known_randomness is None else self.known_randomness[:n],
        )


class PowerTraceSimulator:
    """Generates measurement traces from coprocessor executions.

    Parameters
    ----------
    leakage_model:
        Electrical model (CMOS by default; SABL/WDDL for the secure
        logic styles).
    noise_sigma:
        Gaussian measurement/switching noise, in the same toggle units
        as the model output.  The default is calibrated so that the
        unprotected DPA of experiment E5 succeeds at roughly the
        paper's 200 traces.
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
        """One noisy power trace for one execution."""
        with _obs_profile.timed("power_measure"):
            ideal = self.leakage_model.consumed(execution)
            if self.noise_sigma == 0:
                trace = ideal
            else:
                noise = self._noise_rng.normal(
                    0.0, self.noise_sigma, size=ideal.shape)
                trace = ideal + noise
        rt = _obs_runtime.current()
        if rt is not None:
            rt.registry.counter(
                "repro_power_traces_total",
                "synthetic power traces measured",
            ).inc()
        return trace

    def campaign(
        self,
        coprocessor: EccCoprocessor,
        key: int,
        points: list,
        rng=None,
        scenario: str = "protected",
        max_iterations: Optional[int] = None,
        recover_y: bool = False,
    ) -> TraceSet:
        """Acquire one trace per base point with a fixed secret key.

        ``scenario`` selects the Section 7 evaluation configuration:

        * ``"unprotected"`` — Z-randomization off (Z = 1 every run),
        * ``"known_randomness"`` — randomization on, but the adversary
          is handed each run's Z (white-box evaluation),
        * ``"protected"`` — randomization on, randomness secret.
        """
        if scenario not in ("unprotected", "known_randomness", "protected"):
            raise ValueError(f"unknown scenario {scenario!r}")
        if scenario != "unprotected" and rng is None:
            raise ValueError("randomized scenarios need an rng")
        rows = []
        randomness = [] if scenario == "known_randomness" else None
        iteration_slices = None
        key_bits = None
        field = coprocessor.domain.field
        for point in points:
            z0 = choose_z(field, rng, scenario != "unprotected", None)
            execution = coprocessor.point_multiply(
                key,
                point,
                initial_z=z0,
                max_iterations=max_iterations,
                recover_y=recover_y,
            )
            rows.append(self.measure(execution))
            if randomness is not None:
                randomness.append(z0)
            if iteration_slices is None:
                iteration_slices = execution.iteration_slices()
                key_bits = list(execution.key_bits)
        samples = np.vstack(rows)
        return TraceSet(samples, list(points), iteration_slices, key_bits,
                        randomness)
