"""The exploration engine: plan, measure, price, rank, serialize.

The run is split the same way the electrical model is:

1. **Measure** — every (digit, countermeasure) cell missing from the
   digest-keyed cache is simulated, in parallel, under the campaign
   supervisor (spawn-per-attempt, watchdog, retry, quarantine,
   artifact integrity check).  A cached cell is never re-simulated.
2. **Analyze** — pure arithmetic: calibrate the per-toggle energy on
   the reference cell, price every cell at every (Vdd, f) operating
   point, score security, apply the constraints, compute the Pareto
   front.

Because step 2 is deterministic arithmetic over cached bytes and the
row order is the spec's axis order (never completion order), the
serialized ``pareto.json`` is byte-identical across worker counts,
re-runs and resumes — the determinism contract the CI smoke job
enforces with ``cmp``.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
from dataclasses import dataclass, field as dataclass_field
from typing import Callable, Optional

from ..adversary.defense import defense_config
from ..backends.evaluation import HANDSHAKE_POINT_MULTIPLICATIONS
from ..campaign.acquire import default_workers
from ..campaign.errors import CampaignError
from ..campaign.supervisor import (
    FailureLog,
    Quarantine,
    RetryPolicy,
    ShardSupervisor,
)
from ..obs import runtime as obs_runtime
from ..obs.metrics import atomic_write_bytes
from ..power.energy import EnergyModel, energy_per_toggle_for_activity
from ..power.technology import OperatingPoint
from ..security.pyramid import (checkpoint_posture, defense_posture,
                               session_posture)
from ..security.score import score_design
from .errors import DseError, MissingMeasurementError
from .evaluate import load_measurement, run_measurement_attempt
from .pareto import constraint_violations, pareto_front
from .space import DesignSpaceSpec, MeasurementJob

__all__ = ["ExplorationEngine", "ExplorationResult", "analyze_space",
           "PARETO_NAME", "POINTS_NAME", "SPACE_NAME"]

SPACE_NAME = "space.json"
POINTS_NAME = "points.json"
PARETO_NAME = "pareto.json"


def _hz_label(frequency_hz: float) -> str:
    if frequency_hz >= 1e6 and frequency_hz % 1e6 == 0:
        return f"{frequency_hz / 1e6:g}MHz"
    if frequency_hz >= 1e3:
        return f"{frequency_hz / 1e3:g}kHz"
    return f"{frequency_hz:g}Hz"


def _checkpoint_record_bytes(field_bits: int) -> int:
    """Size of one canonical ladder-checkpoint record.

    The engine checkpoints ``{"epoch", "target", "state"}`` where the
    state carries eight hex-encoded field/scalar registers plus the
    bit index (see :meth:`repro.ec.ladder.LadderState.to_dict`); the
    JSON framing around them is constant.  Deterministic arithmetic,
    so priced rows stay byte-identical across runs.
    """
    hex_chars = (field_bits + 3) // 4
    return 8 * hex_chars + 130


def _checkpoint_pricing(spec: DesignSpaceSpec, interval: int,
                        energy_uj: float) -> dict:
    """The intermittent-power bill of one operating point.

    * ``checkpoint_uj`` — NVM staging + commit of a ladder record
      every ``interval`` steps across one point multiplication;
    * ``reexec_uj`` — the expected re-execution loss of one power cut
      (uniformly placed, so half an interval of ladder work on
      average, priced at this point's per-step energy).

    Both fold into the row's ranked ``energy_uj``: the explorer sees
    the trade-off the interval knob actually buys — short intervals
    pay NVM energy, long ones pay re-execution.
    """
    from ..intermittent import NVMModel

    nvm = NVMModel()
    steps = max(1, spec.domain.order.bit_length() - 1)
    record = _checkpoint_record_bytes(spec.domain.field.m)
    per_checkpoint_uj = (nvm.stage_energy_j(record)
                         + nvm.commit_energy_j()) * 1e6
    checkpoint_uj = (steps // interval) * per_checkpoint_uj
    reexec_uj = (interval / 2.0) * (energy_uj / steps)
    return {
        "checkpoint_interval": interval,
        "checkpoint_uj": checkpoint_uj,
        "reexec_uj": reexec_uj,
    }


def _row(spec: DesignSpaceSpec, model: EnergyModel, job: MeasurementJob,
         data: dict, point: OperatingPoint, score, defense=None,
         interval=None, backend=None, engines=None) -> dict:
    """One priced, constraint-checked row of ``points.json``.

    Prices ``data``, the cached measurement of ``job`` (an ECC cell or
    a symmetric engine), at ``point`` and scores it with ``score``.
    ``defense`` and ``interval`` label the posture; the interval adds
    its checkpoint bill to the energy.  ``backend`` is None when the
    backend axis is off.  A symmetric-only point's per-message energy
    is its engine's energy; an ECC-carrying point pays the handshake
    (the Peeters-Hermans pair of point multiplications), and a hybrid
    amortizes it over its epoch and adds its engine's measurement from
    ``engines`` (engine name -> data) as a per-message bill and as
    area, at the same operating point and per-toggle energy (the point
    of EngineTrace sharing the toggle unit).  Area x energy is priced
    on the row's final area and energy.
    """
    report = model.report_activity(data["consumed"], data["cycles"], point)
    area_ge = data["area"]["total"]
    energy_uj = report.energy_joules * 1e6
    row_id = (job.backend if job.backend != "ecc"
              else f"d{job.digit_size}-{job.countermeasures}")
    row_id += f"-{point.vdd:g}V-{_hz_label(point.frequency_hz)}"
    row = {
        "digit_size": job.digit_size,
        "countermeasures": job.countermeasures,
        "vdd": point.vdd,
        "frequency_hz": point.frequency_hz,
        "cycles": data["cycles"],
        "latency_s": report.duration_seconds,
        "power_uw": report.power_watts * 1e6,
        "security": score.value,
        "security_open": list(score.open_doors),
        "pareto": False,
    }
    if defense is not None:
        row_id += f"-{defense}"
        row["defense"] = defense
    if interval is not None:
        pricing = _checkpoint_pricing(spec, interval, energy_uj)
        row.update(pricing)
        energy_uj = (energy_uj + pricing["checkpoint_uj"]
                     + pricing["reexec_uj"])
        row_id += f"-ck{interval}"
    if backend is not None:
        row["backend"] = backend.label
        per_message_uj = energy_uj
        if backend.kind != "symmetric":
            row_id += f"-{backend.label.replace(':', '-')}"
            per_message_uj = HANDSHAKE_POINT_MULTIPLICATIONS * energy_uj
        if backend.kind == "hybrid":
            engine = engines[backend.engine]
            message_uj = model.report_activity(
                engine["consumed"], engine["cycles"],
                point).energy_joules * 1e6
            per_message_uj = per_message_uj / backend.epoch + message_uj
            area_ge += engine["area"]["total"]
        row["energy_uj_per_message"] = per_message_uj
    row.update(id=row_id, area_ge=area_ge, energy_uj=energy_uj,
               area_energy=area_ge * energy_uj)
    row["violations"] = constraint_violations(
        row,
        max_latency_s=spec.max_latency_s,
        max_area_ge=spec.max_area_ge,
        min_security=spec.min_security,
    )
    row["feasible"] = not row["violations"]
    return row


def analyze_space(directory: str, spec: DesignSpaceSpec,
                  skip_missing: bool = False) -> tuple:
    """Price the cached measurements into (rows, front).

    Pure arithmetic over the measurement cache — no simulation.  The
    reference cell must be cached (it calibrates the energy model);
    other missing cells raise :class:`MissingMeasurementError` unless
    ``skip_missing`` (the engine's degraded path, where quarantined
    cells simply produce no rows).
    """
    reference = spec.reference_job()
    ref_data = load_measurement(directory, spec.config_digest(reference))
    if ref_data is None:
        raise MissingMeasurementError(
            "the reference measurement (digit 4, full countermeasures) "
            "is not cached — nothing to calibrate the energy model on")
    ept = energy_per_toggle_for_activity(ref_data["consumed"],
                                         ref_data["cycles"])
    model = EnergyModel(ept)

    sym_jobs = spec.symmetric_jobs()
    sym_data = {}
    for engine_name, sym_job in sym_jobs.items():
        data = load_measurement(directory, spec.config_digest(sym_job))
        if data is None and not skip_missing:
            raise MissingMeasurementError(
                f"no cached measurement for the {engine_name} engine — "
                f"run `repro dse explore` first")
        if data is not None:
            sym_data[engine_name] = data
    # A quarantined engine cell (skip_missing path) prices no rows.
    backend_points = [bp for bp in spec.backend_points()
                      if bp.engine is None or bp.engine in sym_data]
    ecc_points = [bp for bp in backend_points if bp.kind != "symmetric"] \
        if spec.backends else [None]

    rows = []
    for job in spec.grid_jobs():
        data = load_measurement(directory, spec.config_digest(job))
        if data is None:
            if skip_missing:
                continue
            raise MissingMeasurementError(
                f"no cached measurement for digit {job.digit_size} / "
                f"{job.countermeasures} — run `repro dse explore` first")
        config = spec.coprocessor_config(job)
        findings = data.get("whitebox") or ()
        # Neither a defense posture nor a checkpoint interval touches
        # the simulated bytes — config_digest ignores both — so
        # activating these axes re-prices the same cached cells
        # instead of re-simulating them.
        for vdd, defense, interval in itertools.product(
                spec.vdd_volts, spec.defenses or (None,),
                spec.checkpoint_intervals or (None,)):
            postures = []
            if defense is not None:
                postures.append(defense_posture(defense_config(defense)))
            if interval is not None:
                postures.append(checkpoint_posture(interval))
            # One score per ECC-carrying backend point: the session
            # posture (rekey epoch) is the only thing that differs, and
            # it is frequency-independent.
            scores = []
            for bp in ecc_points:
                session = [] if bp is None else [session_posture(
                    1 if bp.kind == "ecc" else bp.epoch)]
                scores.append(score_design(
                    config, vdd=vdd, findings=findings,
                    postures=[*postures, *session]))
            for frequency_hz in spec.frequencies_hz:
                point = OperatingPoint(frequency_hz=frequency_hz, vdd=vdd)
                for bp, score in zip(ecc_points, scores):
                    rows.append(_row(spec, model, job, data, point, score,
                                     defense=defense, interval=interval,
                                     backend=bp, engines=sym_data))
    # A symmetric-only design has no ECC coprocessor, so it is priced
    # off the grid, one row per (engine, Vdd, frequency); the defense
    # and checkpoint axes are ECC-posture knobs and do not multiply
    # these rows.  Its side channels get the benefit of the doubt (the
    # reference cell's countermeasure flags), yet its unbounded key
    # lifetime opens ``key-compromise`` and the missing Peeters-Hermans
    # handshake opens ``tracking``: a pure symmetric design can never
    # meet the paper's security floor of 1.0.
    reference_config = spec.coprocessor_config(reference)
    symmetric = [bp for bp in backend_points if bp.kind == "symmetric"]
    for bp, vdd in itertools.product(symmetric, spec.vdd_volts):
        score = score_design(reference_config, vdd=vdd, postures=[
            session_posture(None, private_identification=False)])
        for frequency_hz in spec.frequencies_hz:
            point = OperatingPoint(frequency_hz=frequency_hz, vdd=vdd)
            rows.append(_row(spec, model, sym_jobs[bp.engine],
                             sym_data[bp.engine], point, score,
                             backend=bp))
    feasible = [row for row in rows if row["feasible"]]
    front = pareto_front(feasible, spec.objectives)
    for row in front:
        row["pareto"] = True
    return rows, front


@dataclass
class ExplorationResult:
    """What one engine run produced (and where it lives)."""

    spec: DesignSpaceSpec
    rows: list
    front: list
    evaluated: int
    cached: int
    quarantined: list = dataclass_field(default_factory=list)
    directory: str = ""

    @property
    def outcome(self) -> str:
        return "degraded" if self.quarantined else "clean"

    def summary(self) -> str:
        feasible = sum(1 for row in self.rows if row["feasible"])
        lines = [
            f"design space: {len(self.rows)} operating points "
            f"({self.evaluated} simulated, {self.cached} cached cells)",
            f"feasible: {feasible}   Pareto-optimal: {len(self.front)}",
        ]
        for row in self.front:
            per_message = ""
            if "energy_uj_per_message" in row:
                per_message = (f", "
                               f"{row['energy_uj_per_message']:.3f} "
                               f"uJ/msg")
            lines.append(
                f"  * {row['id']}: {row['area_ge']:.0f} GE, "
                f"{row['latency_s'] * 1e3:.1f} ms, "
                f"{row['power_uw']:.1f} uW, {row['energy_uj']:.2f} uJ, "
                f"security {row['security']:.3f}{per_message}")
        if self.quarantined:
            lines.append(
                "quarantined cells: "
                + ", ".join(str(i) for i in self.quarantined)
                + "  (degraded — `repro dse explore` again after "
                  "`repro campaign doctor --clear`)")
        return "\n".join(lines)


class ExplorationEngine:
    """Coordinates one exploration: plan, fan out, analyze, serialize.

    Parameters
    ----------
    directory:
        Exploration directory (created if needed); holds the
        measurement cache, ``space.json``, ``points.json`` and
        ``pareto.json``.
    spec:
        The design space (axes, constraints, objectives).
    workers:
        Process count (1 = inline); None picks from the core count.
    shard_timeout:
        Watchdog seconds per measurement attempt (process mode only).
    retry_policy:
        Campaign :class:`RetryPolicy`; None uses the defaults.
    task:
        The measurement callable (tests inject failing ones); must be
        picklable for process mode.
    """

    def __init__(self, directory: str, spec: DesignSpaceSpec,
                 workers: Optional[int] = None,
                 shard_timeout: Optional[float] = None,
                 retry_policy: Optional[RetryPolicy] = None,
                 task: Callable = run_measurement_attempt):
        self.directory = str(directory)
        self.spec = spec
        self.workers = default_workers(workers)
        self.shard_timeout = shard_timeout
        self.retry_policy = retry_policy or RetryPolicy()
        self.task = task
        self.failure_log = FailureLog(self.directory)
        self.quarantine = Quarantine(self.directory)
        self.outcome: Optional[str] = None

    def plan(self) -> tuple:
        """(cached job indices, pending job indices)."""
        cached, pending = [], []
        for job in self.spec.measurement_jobs():
            digest = self.spec.config_digest(job)
            if load_measurement(self.directory, digest) is None:
                pending.append(job.index)
            else:
                cached.append(job.index)
        return cached, pending

    def run(self) -> ExplorationResult:
        os.makedirs(self.directory, exist_ok=True)
        atomic_write_bytes(
            os.path.join(self.directory, SPACE_NAME),
            json.dumps(self.spec.to_dict(), indent=1,
                       sort_keys=True).encode(),
        )
        obs = obs_runtime.current()
        with contextlib.ExitStack() as stack:
            root_span = None
            if obs is not None:
                # key=0 and no parent: the id every measurement worker
                # independently derives as its parent.
                root_span = stack.enter_context(obs.tracer.span(
                    "dse.explore", key=0,
                    spec=self.spec.digest(),
                    cells=len(self.spec.measurement_jobs()),
                    grid=self.spec.grid_size,
                ))
            cached, pending = self.plan()
            try:
                held = [i for i in self.quarantine.indices()
                        if i in set(pending)]
            except CampaignError as exc:
                raise DseError(str(exc)) from None
            attemptable = [i for i in pending if i not in set(held)]
            walls: list = []
            # Run even with nothing attemptable: the run sweeps débris.
            result = ShardSupervisor(
                self.spec, self.directory, self.task,
                workers=self.workers,
                policy=self.retry_policy,
                shard_timeout=self.shard_timeout,
                on_success=lambda record, attempt: walls.append(
                    record.get("wall_seconds", 0.0)),
                on_event=self._on_failure_event,
            ).run(attemptable)
            quarantined = sorted(set(held) | set(result.quarantined))
            if self.spec.reference_job().index in quarantined:
                raise MissingMeasurementError(
                    "the reference measurement (digit 4, full "
                    "countermeasures) is quarantined — nothing to "
                    "calibrate the energy model on; see failures.jsonl, "
                    "then `repro dse explore` again after "
                    "`repro campaign doctor --clear`")
            rows, front = analyze_space(self.directory, self.spec,
                                        skip_missing=True)
            self._serialize(rows, front)
            self.outcome = "degraded" if quarantined else "clean"
            if obs is not None:
                self._record_run_metrics(obs, cached, quarantined, walls,
                                         rows, front)
                root_span.set(outcome=self.outcome,
                              simulated=len(result.completed),
                              cached=len(cached),
                              front=len(front))
            return ExplorationResult(
                spec=self.spec, rows=rows, front=front,
                evaluated=len(result.completed), cached=len(cached),
                quarantined=quarantined, directory=self.directory,
            )

    # ------------------------------------------------------------------

    def _serialize(self, rows: list, front: list) -> None:
        """Write points.json / pareto.json, sorted keys, atomic.

        Rows are in spec-axis order and every value is arithmetic on
        cached bytes, so these files are byte-identical across worker
        counts and resumes.
        """
        spec_digest = self.spec.digest()
        constraints = {
            "max_latency_s": self.spec.max_latency_s,
            "max_area_ge": self.spec.max_area_ge,
            "min_security": self.spec.min_security,
        }
        points = {
            "schema": self.spec.schema_version,
            "spec_digest": spec_digest,
            "rows": rows,
        }
        pareto = {
            "schema": self.spec.schema_version,
            "spec_digest": spec_digest,
            "objectives": list(self.spec.objectives),
            "constraints": constraints,
            "front": front,
        }
        for name, payload in ((POINTS_NAME, points), (PARETO_NAME, pareto)):
            atomic_write_bytes(
                os.path.join(self.directory, name),
                json.dumps(payload, indent=1, sort_keys=True).encode(),
            )

    def _on_failure_event(self, event) -> None:
        obs = obs_runtime.current()
        if obs is not None:
            obs.registry.counter(
                "repro_dse_failures_total",
                "failed measurement attempts by kind and action",
            ).inc(kind=event.kind, action=event.action)

    def _record_run_metrics(self, obs, cached, quarantined, walls, rows,
                            front) -> None:
        """Fold the run totals into the coordinator (the supervisor
        already merged the measurements' snapshots)."""
        registry = obs.registry
        registry.counter(
            "repro_dse_cache_hits_total",
            "measurement cells served from the cache",
        ).inc(len(cached))
        registry.gauge(
            "repro_dse_grid_points", "operating points evaluated",
        ).set(len(rows))
        registry.gauge(
            "repro_dse_front_size", "Pareto-optimal operating points",
        ).set(len(front))
        registry.gauge(
            "repro_dse_quarantined", "measurement cells quarantined",
        ).set(len(quarantined))
        hist = registry.histogram(
            "repro_dse_measurement_wall_seconds",
            "per-cell simulation wall clock",
            buckets=(0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0, 300.0),
        )
        for wall in walls:
            hist.observe(wall)
