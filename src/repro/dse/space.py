"""The design-space specification: axes, constraints, objectives.

A :class:`DesignSpaceSpec` is the explorer's single input: the
Cartesian axes (digit size x countermeasure set x Vdd x frequency on
one curve), the constraints that carve the feasible region, and the
objectives that rank it.  The defaults are the paper's own question —
the d ∈ {1,2,4,8,16} sweep of Table "design space", the three-voltage
three-frequency grid, countermeasures on vs off, the 105 ms pacing
deadline, and security as a hard floor — so a bare spec reproduces
the published d=4 / 1.0 V / 847.5 kHz optimum.

Two digests matter, and they are deliberately different:

* :meth:`DesignSpaceSpec.digest` keys the *exploration* (what
  ``pareto.json`` answers for),
* :meth:`DesignSpaceSpec.config_digest` keys one *measurement* — it
  hashes only what the simulation depends on (curve, digit size,
  countermeasure flags, white-box settings), never the grid or the
  constraints, so changing the latency limit or adding a voltage
  re-prices the same cached measurements instead of re-simulating.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Optional, Tuple

from ..adversary.defense import DEFENSE_SETS
from ..arch.control import BalancedEncoding, UnbalancedEncoding
from ..arch.coprocessor import CoprocessorConfig, InvalidDigitSizeError
from ..backends.base import parse_backend_point
from ..ec.curves import get_curve
from ..jsonspec import JsonSpec
from .errors import SpaceValidationError
from .pareto import OBJECTIVES

__all__ = ["COUNTERMEASURE_SETS", "DSE_SCHEMA_VERSION", "DesignSpaceSpec",
           "MeasurementJob"]

DSE_SCHEMA_VERSION = 1

#: Named countermeasure sets -> the config flags they resolve to.
#: Only the flags the paper's white-box evaluation exercises vary
#: here; the always-on countermeasures (constant-time ISA, fixed
#: iteration count, secure zone) are part of every configuration.
COUNTERMEASURE_SETS = {
    "full": {"randomize_z": True, "mux_encoding": "balanced"},
    "no-rpc": {"randomize_z": False, "mux_encoding": "balanced"},
    "unbalanced-mux": {"randomize_z": True, "mux_encoding": "unbalanced"},
    "none": {"randomize_z": False, "mux_encoding": "unbalanced"},
}

_ENCODINGS = {"balanced": BalancedEncoding, "unbalanced": UnbalancedEncoding}

#: Axes a spec opts into; :meth:`DesignSpaceSpec.to_dict` omits them
#: when empty, so pre-axis specs keep their digests (and their
#: ``pareto.json`` files) byte-identical.
_OPT_IN_AXES = ("defenses", "checkpoint_intervals", "backends")


@dataclass(frozen=True)
class MeasurementJob:
    """One simulation the explorer needs: a (digit, countermeasures)
    cell, or — when the backend axis is active — one symmetric-engine
    workload.  ``on_grid`` is False for the synthetic calibration job
    added when the reference design is not itself one of the cells,
    and for symmetric-engine jobs (their rows are derived separately
    from the ECC grid).  ``backend`` is ``"ecc"`` for every classic
    cell, so pre-axis jobs and their digests are unchanged."""

    index: int
    digit_size: int
    countermeasures: str
    is_reference: bool = False
    on_grid: bool = True
    backend: str = "ecc"


@dataclass(frozen=True)
class DesignSpaceSpec(JsonSpec):
    """What to explore, under which constraints, ranked how.

    A :class:`~repro.jsonspec.JsonSpec` with a ``seed``, like the
    campaign spec, so measurement attempts run under the campaign
    supervisor's retry/timeout/quarantine machinery.
    """

    digit_sizes: Tuple[int, ...] = (1, 2, 4, 8, 16)
    vdd_volts: Tuple[float, ...] = (0.8, 1.0, 1.2)
    frequencies_hz: Tuple[float, ...] = (100e3, 847.5e3, 4e6)
    countermeasures: Tuple[str, ...] = ("full", "none")
    defenses: Tuple[str, ...] = ()
    checkpoint_intervals: Tuple[int, ...] = ()
    backends: Tuple[str, ...] = ()
    curve: str = "K-163"
    seed: int = 0
    whitebox: bool = False
    whitebox_traces: int = 60
    max_latency_s: Optional[float] = 0.105
    max_area_ge: Optional[float] = None
    min_security: Optional[float] = 1.0
    objectives: Tuple[str, ...] = ("area_energy", "power", "security")
    schema_version: int = DSE_SCHEMA_VERSION

    _digest_chars = 16

    def __post_init__(self):
        for name in ("digit_sizes", "vdd_volts", "frequencies_hz",
                     "countermeasures", "objectives"):
            value = tuple(getattr(self, name))
            object.__setattr__(self, name, value)
            if not value:
                raise SpaceValidationError(f"{name} must not be empty")
            if len(set(value)) != len(value):
                raise SpaceValidationError(f"{name} has duplicates: {value}")
        if self.schema_version != DSE_SCHEMA_VERSION:
            raise SpaceValidationError(
                f"unsupported schema version {self.schema_version} "
                f"(this build speaks {DSE_SCHEMA_VERSION})")
        for v in self.vdd_volts:
            if not v > 0:
                raise SpaceValidationError(f"Vdd must be positive, got {v}")
        for f in self.frequencies_hz:
            if not f > 0:
                raise SpaceValidationError(
                    f"frequency must be positive, got {f}")
        for cm in self.countermeasures:
            if cm not in COUNTERMEASURE_SETS:
                known = ", ".join(sorted(COUNTERMEASURE_SETS))
                raise SpaceValidationError(
                    f"unknown countermeasure set {cm!r}; known: {known}")
        defenses = tuple(self.defenses)
        object.__setattr__(self, "defenses", defenses)
        if len(set(defenses)) != len(defenses):
            raise SpaceValidationError(
                f"defenses has duplicates: {defenses}")
        for defense in defenses:
            if defense not in DEFENSE_SETS:
                known = ", ".join(sorted(DEFENSE_SETS))
                raise SpaceValidationError(
                    f"unknown defense set {defense!r}; known: {known}")
        intervals = tuple(self.checkpoint_intervals)
        object.__setattr__(self, "checkpoint_intervals", intervals)
        if len(set(intervals)) != len(intervals):
            raise SpaceValidationError(
                f"checkpoint_intervals has duplicates: {intervals}")
        for interval in intervals:
            if not isinstance(interval, int) or interval < 1:
                raise SpaceValidationError(
                    "checkpoint intervals must be positive integers, "
                    f"got {interval!r}")
        backends = tuple(self.backends)
        object.__setattr__(self, "backends", backends)
        if len(set(backends)) != len(backends):
            raise SpaceValidationError(
                f"backends has duplicates: {backends}")
        for label in backends:
            try:
                parse_backend_point(label)
            except ValueError as exc:
                raise SpaceValidationError(str(exc)) from None
        for objective in self.objectives:
            if objective not in OBJECTIVES:
                known = ", ".join(sorted(OBJECTIVES))
                raise SpaceValidationError(
                    f"unknown objective {objective!r}; known: {known}")
        if "energy_per_message" in self.objectives and not backends:
            raise SpaceValidationError(
                "objective 'energy_per_message' needs the backend axis "
                "(only backend rows carry a per-message energy)")
        try:
            domain = get_curve(self.curve)
        except KeyError as exc:
            raise SpaceValidationError(str(exc)) from None
        for d in self.digit_sizes:
            try:
                CoprocessorConfig(domain=domain, digit_size=d)
            except InvalidDigitSizeError as exc:
                raise SpaceValidationError(str(exc)) from None
        if self.whitebox_traces < 2:
            raise SpaceValidationError(
                "whitebox_traces must be at least 2")

    def to_dict(self) -> dict:
        return {name: value for name, value in super().to_dict().items()
                if value or name not in _OPT_IN_AXES}

    # -- measurement planning ------------------------------------------

    @property
    def domain(self):
        return get_curve(self.curve)

    def measurement_jobs(self) -> list:
        """The simulations this space needs, reference flagged.

        One job per (digit, countermeasure-set) cell — the operating
        point is *not* part of a job because voltage/frequency scaling
        is arithmetic on the measurement.  The reference design
        (digit 4, full countermeasures) calibrates the energy model;
        when it is not one of the cells, a synthetic off-grid job is
        appended so calibration never depends on the grid's shape.
        """
        jobs = []
        for d in self.digit_sizes:
            for cm in self.countermeasures:
                jobs.append(MeasurementJob(
                    index=len(jobs), digit_size=d, countermeasures=cm,
                    is_reference=(d == 4 and cm == "full"),
                ))
        if not any(job.is_reference for job in jobs):
            jobs.append(MeasurementJob(
                index=len(jobs), digit_size=4, countermeasures="full",
                is_reference=True, on_grid=False,
            ))
        # Symmetric engines the backend axis needs, one measurement
        # each — appended after every ECC cell so pre-axis job indices
        # (and the cells already cached under them) never move.
        for engine in self._symmetric_engines():
            jobs.append(MeasurementJob(
                index=len(jobs), digit_size=0, countermeasures="n/a",
                on_grid=False, backend=engine,
            ))
        return jobs

    def backend_points(self) -> list:
        """The parsed backend axis (empty for a classic ECC space)."""
        return [parse_backend_point(label) for label in self.backends]

    def _symmetric_engines(self) -> list:
        """Distinct symmetric engines the axis prices, in axis order."""
        engines = []
        for point in self.backend_points():
            if point.engine is not None and point.engine not in engines:
                engines.append(point.engine)
        return engines

    def symmetric_jobs(self) -> dict:
        """engine name -> its :class:`MeasurementJob`."""
        return {job.backend: job for job in self.measurement_jobs()
                if job.backend != "ecc"}

    def reference_job(self) -> MeasurementJob:
        for job in self.measurement_jobs():
            if job.is_reference:
                return job
        raise AssertionError("measurement_jobs always includes a reference")

    def grid_jobs(self) -> list:
        return [job for job in self.measurement_jobs() if job.on_grid]

    def coprocessor_config(self, job: MeasurementJob) -> CoprocessorConfig:
        flags = COUNTERMEASURE_SETS[job.countermeasures]
        return CoprocessorConfig(
            domain=self.domain,
            digit_size=job.digit_size,
            randomize_z=flags["randomize_z"],
            mux_encoding=_ENCODINGS[flags["mux_encoding"]](),
        )

    def config_digest(self, job: MeasurementJob) -> str:
        """Cache key of one measurement.

        Hashes only what the simulation's bytes depend on — curve,
        digit size, countermeasure flags, white-box settings — so the
        cache survives changes to the grid, the constraints, and the
        objectives.
        """
        if job.backend != "ecc":
            # A symmetric engine's workload depends on nothing but the
            # engine and the canonical message size — not the curve,
            # grid or constraints — so one cached cell serves every
            # space that prices that engine.
            from ..backends.evaluation import MESSAGE_BYTES

            payload = json.dumps({
                "kind": "dse-backend-measurement",
                "schema": self.schema_version,
                "backend": job.backend,
                "message_bytes": MESSAGE_BYTES,
            }, sort_keys=True).encode()
            return hashlib.sha256(payload).hexdigest()[:16]
        whitebox = None
        if self.whitebox:
            whitebox = {"traces": self.whitebox_traces, "seed": self.seed}
        payload = json.dumps({
            "kind": "dse-measurement",
            "schema": self.schema_version,
            "curve": self.curve,
            "digit_size": job.digit_size,
            "countermeasures": COUNTERMEASURE_SETS[job.countermeasures],
            "whitebox": whitebox,
        }, sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()[:16]

    @property
    def grid_size(self) -> int:
        """Rows of the evaluated grid (cells x operating points,
        multiplied by the defense postures, checkpoint intervals and
        backend points when those axes are active; symmetric-only
        backends add one row per operating point instead of one per
        ECC cell)."""
        base_cells = (len(self.grid_jobs())
                      * max(1, len(self.defenses))
                      * max(1, len(self.checkpoint_intervals)))
        points = len(self.vdd_volts) * len(self.frequencies_hz)
        if not self.backends:
            return base_cells * points
        ecc_like = sum(1 for p in self.backend_points()
                       if p.kind != "symmetric")
        symmetric = sum(1 for p in self.backend_points()
                        if p.kind == "symmetric")
        return base_cells * points * ecc_like + symmetric * points
