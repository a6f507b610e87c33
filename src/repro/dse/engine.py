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
import json
import os
from dataclasses import dataclass, field as dataclass_field
from typing import Callable, Optional

from ..adversary.defense import defense_config
from ..backends.evaluation import HANDSHAKE_POINT_MULTIPLICATIONS
from ..campaign.acquire import default_workers
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
from .errors import MissingMeasurementError
from .evaluate import load_measurement, run_measurement_attempt
from .pareto import constraint_violations, pareto_front
from .space import DesignSpaceSpec

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


def _symmetric_only_rows(spec: DesignSpaceSpec, model: EnergyModel,
                         backend_points: list, sym_data: dict) -> list:
    """Rows for the symmetric-only backend points.

    A symmetric-only design has no ECC coprocessor, so it is priced
    off the (digit, countermeasure) grid: one row per (engine, Vdd,
    frequency).  Its security posture is scored with the benefit of
    the doubt on side channels (the reference cell's countermeasure
    flags) — even so, an unbounded key lifetime opens the
    ``key-compromise`` door and the missing Peeters-Hermans handshake
    opens ``tracking``, which is why a pure symmetric design can never
    meet the paper's security floor of 1.0.  The defense and
    checkpoint axes are ECC-posture knobs and do not multiply these
    rows.
    """
    rows = []
    reference_config = None
    for bp in backend_points:
        if bp.kind != "symmetric":
            continue
        sym = sym_data.get(bp.engine)
        if sym is None:
            continue  # quarantined engine cell (skip_missing path)
        if reference_config is None:
            reference_config = spec.coprocessor_config(
                spec.reference_job())
        for vdd in spec.vdd_volts:
            score = score_design(
                reference_config, vdd=vdd,
                postures=[session_posture(
                    None, private_identification=False)])
            for frequency_hz in spec.frequencies_hz:
                op = OperatingPoint(frequency_hz=frequency_hz, vdd=vdd)
                report = model.report_activity(
                    sym["consumed"], sym["cycles"], op)
                area_ge = sym["area"]["total"]
                energy_uj = report.energy_joules * 1e6
                row = {
                    "id": (f"{bp.label}-{vdd:g}V-"
                           f"{_hz_label(frequency_hz)}"),
                    "backend": bp.label,
                    "digit_size": 0,
                    "countermeasures": "n/a",
                    "vdd": vdd,
                    "frequency_hz": frequency_hz,
                    "area_ge": area_ge,
                    "cycles": sym["cycles"],
                    "latency_s": report.duration_seconds,
                    "power_uw": report.power_watts * 1e6,
                    "energy_uj": energy_uj,
                    "energy_uj_per_message": energy_uj,
                    "area_energy": area_ge * energy_uj,
                    "security": score.value,
                    "security_open": list(score.open_doors),
                    "pareto": False,
                }
                row["violations"] = constraint_violations(
                    row,
                    max_latency_s=spec.max_latency_s,
                    max_area_ge=spec.max_area_ge,
                    min_security=spec.min_security,
                )
                row["feasible"] = not row["violations"]
                rows.append(row)
    return rows


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

    backend_points = spec.backend_points()
    sym_data = {}
    for engine_name, sym_job in spec.symmetric_jobs().items():
        data = load_measurement(directory, spec.config_digest(sym_job))
        if data is None and not skip_missing:
            raise MissingMeasurementError(
                f"no cached measurement for the {engine_name} engine — "
                f"run `repro dse explore` first")
        if data is not None:
            sym_data[engine_name] = data

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
        for vdd in spec.vdd_volts:
            # Neither a defense posture nor a checkpoint interval
            # touches the simulated bytes — config_digest ignores both
            # — so activating these axes re-prices the same cached
            # cells instead of re-simulating them.
            for defense in (spec.defenses or (None,)):
                for interval in (spec.checkpoint_intervals or (None,)):
                    postures = []
                    if defense is not None:
                        postures.append(
                            defense_posture(defense_config(defense)))
                    if interval is not None:
                        postures.append(checkpoint_posture(interval))
                    score = score_design(config, vdd=vdd,
                                         findings=findings,
                                         postures=postures)
                    # One score per ECC-carrying backend point: the
                    # session posture (rekey epoch) is the only thing
                    # that differs, and it is frequency-independent.
                    point_scores = {}
                    for bp in backend_points:
                        if bp.kind == "symmetric":
                            continue
                        epoch = 1 if bp.kind == "ecc" else bp.epoch
                        point_scores[bp.label] = score_design(
                            config, vdd=vdd, findings=findings,
                            postures=[*postures, session_posture(epoch)])
                    for frequency_hz in spec.frequencies_hz:
                        point = OperatingPoint(
                            frequency_hz=frequency_hz, vdd=vdd)
                        report = model.report_activity(
                            data["consumed"], data["cycles"], point)
                        area_ge = data["area"]["total"]
                        energy_uj = report.energy_joules * 1e6
                        row_id = (f"d{job.digit_size}-"
                                  f"{job.countermeasures}-"
                                  f"{vdd:g}V-{_hz_label(frequency_hz)}")
                        row = {
                            "id": row_id,
                            "digit_size": job.digit_size,
                            "countermeasures": job.countermeasures,
                            "vdd": vdd,
                            "frequency_hz": frequency_hz,
                            "area_ge": area_ge,
                            "cycles": data["cycles"],
                            "latency_s": report.duration_seconds,
                            "power_uw": report.power_watts * 1e6,
                            "energy_uj": energy_uj,
                            "area_energy": area_ge * energy_uj,
                            "security": score.value,
                            "security_open": list(score.open_doors),
                            "pareto": False,
                        }
                        if defense is not None:
                            row["id"] = f"{row['id']}-{defense}"
                            row["defense"] = defense
                        if interval is not None:
                            pricing = _checkpoint_pricing(
                                spec, interval, energy_uj)
                            row.update(pricing)
                            row["energy_uj"] = (energy_uj
                                                + pricing["checkpoint_uj"]
                                                + pricing["reexec_uj"])
                            row["area_energy"] = (area_ge
                                                  * row["energy_uj"])
                            row["id"] = f"{row['id']}-ck{interval}"
                        if not backend_points:
                            row["violations"] = constraint_violations(
                                row,
                                max_latency_s=spec.max_latency_s,
                                max_area_ge=spec.max_area_ge,
                                min_security=spec.min_security,
                            )
                            row["feasible"] = not row["violations"]
                            rows.append(row)
                            continue
                        # Backend axis: re-price this operating point
                        # once per ECC-carrying backend point.  The
                        # handshake is the Peeters-Hermans pair of
                        # point multiplications; a hybrid amortizes it
                        # over its epoch and adds the symmetric
                        # engine's per-message bill at the same
                        # operating point (same calibrated per-toggle
                        # energy — that is the whole point of
                        # EngineTrace sharing the toggle unit).
                        handshake_uj = (HANDSHAKE_POINT_MULTIPLICATIONS
                                        * row["energy_uj"])
                        for bp in backend_points:
                            if bp.kind == "symmetric":
                                continue
                            if bp.engine is not None \
                                    and bp.engine not in sym_data:
                                continue  # quarantined engine cell
                            priced = dict(row)
                            pscore = point_scores[bp.label]
                            priced["security"] = pscore.value
                            priced["security_open"] = list(
                                pscore.open_doors)
                            priced["backend"] = bp.label
                            priced["id"] = (
                                f"{row['id']}-"
                                f"{bp.label.replace(':', '-')}")
                            if bp.kind == "ecc":
                                priced["energy_uj_per_message"] = \
                                    handshake_uj
                            else:
                                sym = sym_data[bp.engine]
                                sym_report = model.report_activity(
                                    sym["consumed"], sym["cycles"],
                                    point)
                                message_uj = (sym_report.energy_joules
                                              * 1e6)
                                priced["energy_uj_per_message"] = (
                                    handshake_uj / bp.epoch
                                    + message_uj)
                                priced["area_ge"] = (
                                    row["area_ge"]
                                    + sym["area"]["total"])
                                priced["area_energy"] = (
                                    priced["area_ge"]
                                    * priced["energy_uj"])
                            priced["violations"] = constraint_violations(
                                priced,
                                max_latency_s=spec.max_latency_s,
                                max_area_ge=spec.max_area_ge,
                                min_security=spec.min_security,
                            )
                            priced["feasible"] = not priced["violations"]
                            rows.append(priced)
    rows.extend(_symmetric_only_rows(spec, model, backend_points,
                                     sym_data))
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
            held = [i for i in self.quarantine.indices()
                    if i in set(pending)]
            attemptable = [i for i in pending if i not in set(held)]
            completed: list = []
            walls: list = []
            quarantined: list = list(held)
            if attemptable:
                def on_success(record: dict, attempt: int) -> None:
                    completed.append(record["index"])
                    walls.append(record.get("wall_seconds", 0.0))

                supervisor = ShardSupervisor(
                    self.spec, self.directory,
                    workers=min(self.workers, len(attemptable)) or 1,
                    use_processes=self.workers > 1,
                    policy=self.retry_policy,
                    shard_timeout=self.shard_timeout,
                    on_success=on_success,
                    on_event=self._on_failure_event,
                    task=self.task,
                )
                result = supervisor.run(attemptable)
                quarantined = sorted(set(held) | set(result.quarantined))
            rows, front = analyze_space(self.directory, self.spec,
                                        skip_missing=True)
            self._serialize(rows, front)
            self.outcome = "degraded" if quarantined else "clean"
            if obs is not None:
                self._record_run_metrics(obs, completed, cached,
                                         quarantined, walls, rows, front)
                root_span.set(outcome=self.outcome,
                              simulated=len(completed),
                              cached=len(cached),
                              front=len(front))
            return ExplorationResult(
                spec=self.spec, rows=rows, front=front,
                evaluated=len(completed), cached=len(cached),
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

    def _record_run_metrics(self, obs, completed, cached, quarantined,
                            walls, rows, front) -> None:
        """Fold worker snapshots + run totals into the coordinator.

        Shard snapshots merge in job order (not completion order), so
        the final registry is identical whatever the scheduling.
        """
        obs_runtime.merge_shard_metrics(obs, sorted(completed))
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
