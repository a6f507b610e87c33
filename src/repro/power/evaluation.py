"""Reusable design-point evaluation: calibrate once, measure anywhere.

Every experiment in the repo used to repeat the same boilerplate:
build a coprocessor, calibrate the energy model against the paper's
operating point, run a point multiplication, hand the trace to the
model.  This module hoists that flow into three pieces —

* :func:`reference_model` — the calibrated :class:`EnergyModel`
  (fit on the paper's reference design: digit size 4, full
  countermeasures, 847.5 kHz / 1.0 V -> 50.4 uW),
* :class:`MeasuredDesign` — one simulated design point reduced to the
  pair the electrical model actually needs, ``(consumed, cycles)``,
* :class:`DesignEvaluation` — that measurement priced at a concrete
  operating point: area, latency, power, energy, area x energy.

The split matters for design-space exploration: a measurement is
expensive (a full cycle-level simulation) but voltage/frequency
scaling is arithmetic, so `repro.dse` caches ``MeasuredDesign`` data
per configuration and derives every (Vdd, f) grid row from it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field as dataclass_field
from typing import Optional, Union

from ..arch.area import AreaBreakdown, ecc_core_area
from ..arch.coprocessor import CoprocessorConfig, EccCoprocessor
from .energy import EnergyModel, EnergyReport, calibrate_energy_model
from .models import CmosLeakageModel, LeakageModel
from .technology import (
    OperatingPoint,
    PAPER_OPERATING_POINT,
    PAPER_POWER_WATTS,
    TechnologyParams,
    UMC_130NM,
)

__all__ = [
    "DesignEvaluation",
    "MeasuredDesign",
    "design_area",
    "reference_config",
    "reference_model",
]


def design_area(config: CoprocessorConfig) -> AreaBreakdown:
    """Gate-count area of one coprocessor configuration."""
    field = config.domain.field
    return ecc_core_area(
        m=field.m,
        digit_size=config.digit_size,
        register_count=config.core_register_count,
        mux_fanout=field.m + 1,
        dedicated_squarer=config.dedicated_squarer,
    )


def reference_config(curve: Union[str, None, object] = None) -> CoprocessorConfig:
    """The paper's protected design (digit size 4, all countermeasures).

    ``curve`` may be a curve name ("K-163", "TOY-B17", ...), a
    :class:`~repro.ec.curves.NamedCurve`, or None for the default
    K-163 domain.
    """
    if curve is None:
        return CoprocessorConfig(digit_size=4)
    if isinstance(curve, str):
        from ..ec.curves import get_curve
        curve = get_curve(curve)
    return CoprocessorConfig(domain=curve, digit_size=4)


@functools.lru_cache(maxsize=8)
def reference_model(
    curve: Union[str, None, object] = None,
    target_power_watts: float = PAPER_POWER_WATTS,
    point: OperatingPoint = PAPER_OPERATING_POINT,
    technology: TechnologyParams = UMC_130NM,
    leakage_model: Optional[LeakageModel] = None,
) -> EnergyModel:
    """Energy model calibrated on the reference design of ``curve``.

    This is the calibrate-then-measure boilerplate shared by the
    benchmarks, hoisted: fit the per-toggle energy so the *reference*
    configuration hits the paper's published power, then reuse that
    one constant to price every other design point on the same curve.
    Cached per argument set, so a process simulates the reference
    design once per curve; every caller shares the returned model and
    must not mutate it.
    """
    coprocessor = EccCoprocessor(reference_config(curve))
    return calibrate_energy_model(
        coprocessor,
        target_power_watts=target_power_watts,
        point=point,
        technology=technology,
        leakage_model=leakage_model,
    )


@dataclass(frozen=True)
class DesignEvaluation:
    """One design point priced at one operating point."""

    config: CoprocessorConfig
    area: AreaBreakdown
    report: EnergyReport

    @property
    def area_ge(self) -> float:
        return self.area.total

    @property
    def cycles(self) -> int:
        return self.report.cycles

    @property
    def latency_s(self) -> float:
        return self.report.duration_seconds

    @property
    def power_uw(self) -> float:
        return self.report.power_watts * 1e6

    @property
    def energy_uj(self) -> float:
        return self.report.energy_joules * 1e6

    @property
    def area_energy(self) -> float:
        """The paper's figure of merit: gate count x uJ per operation."""
        return self.area.total * self.energy_uj


@dataclass(frozen=True)
class MeasuredDesign:
    """A simulated design point reduced to its electrical essentials.

    ``consumed`` is the total toggle-unit activity of one point
    multiplication, ``cycles`` its length.  Together with the area
    model (pure arithmetic on the config) they determine every
    operating-point report without another simulation.
    """

    config: CoprocessorConfig
    cycles: int
    consumed: float
    area: AreaBreakdown = dataclass_field(default=None)

    def __post_init__(self):
        if self.area is None:
            object.__setattr__(self, "area", design_area(self.config))

    @classmethod
    def measure(cls, config: CoprocessorConfig,
                model: Optional[EnergyModel] = None,
                scalar: Optional[int] = None,
                point=None,
                rng=None,
                initial_z: Optional[int] = None,
                recover_y: bool = True) -> "MeasuredDesign":
        """Run one point multiplication and record its activity.

        The defaults reproduce the calibration workload: the dense
        scalar ``order // 3`` on the curve generator with a fixed
        projective start, so measuring the reference config under a
        model calibrated the same way returns the paper's numbers
        exactly.
        """
        coprocessor = EccCoprocessor(config)
        domain = coprocessor.domain
        if scalar is None:
            scalar = domain.order // 3
        if point is None:
            point = domain.generator
        if rng is None and initial_z is None:
            initial_z = 1
        execution = coprocessor.point_multiply(
            scalar, point, rng=rng, initial_z=initial_z,
            recover_y=recover_y,
        )
        leakage = model.leakage_model if model is not None \
            else CmosLeakageModel()
        consumed = float(leakage.consumed(execution).sum())
        return cls(config=config, cycles=execution.cycles,
                   consumed=consumed)

    def at(self, model: EnergyModel,
           point: OperatingPoint = PAPER_OPERATING_POINT,
           ) -> DesignEvaluation:
        """Price this measurement at an operating point."""
        report = model.report_activity(self.consumed, self.cycles, point)
        return DesignEvaluation(config=self.config, area=self.area,
                                report=report)
