"""Command-line interface: ``python -m repro <command>``.

Quick access to the library's headline artifacts without writing a
script:

* ``info``      — design-point summary (curve, registers, cycles),
* ``energy``    — the calibrated E1 operating-point report,
* ``area``      — the gate-count table,
* ``listing``   — the microcode listing of a point multiplication,
* ``evaluate``  — the white-box attack battery (optionally against the
  unprotected strawman),
* ``campaign``  — the trace-acquisition and attack-campaign engine
  (``acquire`` / ``status`` / ``attack`` / ``doctor`` on a campaign
  directory).

Every command returns its report as a string (and prints it), so the
CLI is testable without subprocesses.

Campaign exit codes form a small contract for scripts and CI:

* ``0`` — clean (full coverage, attack ran, status printed);
* ``1`` — failed (a :class:`~repro.campaign.errors.CampaignError`:
  integrity violation, schedule mismatch, refused partial store);
* ``3`` — degraded (acquisition finished but shards are quarantined);
* ``130`` — interrupted (Ctrl-C; progress is checkpointed and the
  resume command is printed).
"""

from __future__ import annotations

import argparse
import contextlib
import os
import random
import sys

__all__ = ["main", "cmd_info", "cmd_energy", "cmd_area", "cmd_listing",
           "cmd_evaluate", "cmd_campaign_acquire", "cmd_campaign_status",
           "cmd_campaign_attack", "cmd_campaign_doctor",
           "cmd_dse_explore", "cmd_dse_pareto", "cmd_dse_report",
           "cmd_protocol_run", "cmd_protocol_soak",
           "cmd_obs_report", "cmd_obs_diff", "cmd_obs_tail",
           "cmd_obs_alerts", "cmd_obs_trend",
           "cmd_server_enroll", "cmd_server_run", "cmd_server_soak",
           "cmd_attack_run", "cmd_attack_soak",
           "cmd_power_run", "cmd_power_soak",
           "EXIT_OK", "EXIT_FAILED", "EXIT_DEGRADED", "EXIT_INTERRUPTED"]

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_DEGRADED = 3
EXIT_INTERRUPTED = 130


def cmd_info() -> str:
    """Design-point summary."""
    from . import __version__
    from .arch import CoprocessorConfig, EccCoprocessor

    coprocessor = EccCoprocessor(CoprocessorConfig())
    config = coprocessor.config
    lines = [
        f"repro {__version__} — DAC 2013 low-energy ECC coprocessor "
        "reproduction",
        f"curve: {coprocessor.domain!r}",
        f"digit size: {config.digit_size} "
        f"(multiplication = {coprocessor.malu.mul_cycles} datapath cycles)",
        f"secure-zone registers: {config.core_register_count} x "
        f"{coprocessor.domain.field.m} bits",
        f"ladder iterations per point multiplication: "
        f"{coprocessor.iterations_per_multiplication}",
        "countermeasures: randomized projective coordinates, balanced "
        "mux encoding, constant-cycle ISA, always-on clocks, input "
        "isolation",
    ]
    return "\n".join(lines)


def cmd_energy(seed: int = 1) -> str:
    """The E1 operating-point report (runs one point multiplication)."""
    from .arch import CoprocessorConfig, EccCoprocessor
    from .power import calibrate_energy_model

    coprocessor = EccCoprocessor(CoprocessorConfig())
    model = calibrate_energy_model(coprocessor)
    rng = random.Random(seed)
    key = coprocessor.domain.scalar_ring.random_scalar(rng)
    execution = coprocessor.point_multiply(
        key, coprocessor.domain.generator, rng=rng
    )
    report = model.report(execution)
    return (
        f"{report}\n"
        "paper:  50.4 uW, 5.10 uJ, 9.80 op/s (UMC 0.13um, 847.5 kHz, 1 V)"
    )


def cmd_area() -> str:
    """The gate-count comparison table."""
    from .arch import (AES_ENC_GATES, PRESENT80_GATES, SHA1_GATES,
                       ecc_core_area)

    ecc = ecc_core_area()
    rows = [
        ("PRESENT-80", PRESENT80_GATES),
        ("AES-128 enc", AES_ENC_GATES),
        ("SHA-1", SHA1_GATES),
        ("ECC K-163 core (model)", round(ecc.total)),
    ]
    lines = [f"{name:<26}{gates:>8} GE" for name, gates in rows]
    lines.append("")
    lines += [f"  {block:<16}{gates:>8.0f} GE"
              for block, gates in ecc.as_dict().items()]
    return "\n".join(lines)


def cmd_listing(limit: int = 40) -> str:
    """Microcode listing of (the start of) a point multiplication."""
    from .arch import CoprocessorConfig, EccCoprocessor
    from .arch.program import analyze_program, format_listing

    coprocessor = EccCoprocessor(CoprocessorConfig())
    trace = coprocessor.point_multiply(
        0x1234, coprocessor.domain.generator, initial_z=1, max_iterations=2
    )
    stats = analyze_program(trace.instructions,
                            coprocessor.config.fetch_overhead)
    return (
        format_listing(trace.instructions, limit=limit)
        + "\n\n" + str(stats)
    )


def cmd_evaluate(weak: bool = False, traces: int = 80,
                 seed: int = 2013) -> str:
    """The white-box attack battery (Figure 4).

    ``seed`` is threaded through the whole evaluation (keys, points,
    randomization, oscilloscope noise) — nothing falls back to global
    RNG state, so two runs with the same seed are identical.
    """
    from .arch import CoprocessorConfig, UnbalancedEncoding
    from .security import WhiteBoxEvaluation

    if weak:
        config = CoprocessorConfig(randomize_z=False,
                                   mux_encoding=UnbalancedEncoding())
    else:
        config = CoprocessorConfig()
    report = WhiteBoxEvaluation(config, n_traces=traces, n_bits=2,
                                seed=seed).run()
    return report.render()


# ----------------------------------------------------------------------
# campaign verbs
# ----------------------------------------------------------------------

def _campaign_spec_from_args(args) -> "object":
    from .campaign import CampaignSpec

    return CampaignSpec(
        n_traces=args.traces,
        shard_size=args.shard_size,
        scenario=args.scenario,
        seed=args.seed,
        max_iterations=None if args.bits is None else args.bits + 1,
        noise_sigma=args.noise,
        curve=args.curve,
    )


def _obs_session(obs_dir, **kwargs):
    """An obs session context, or a no-op when tracing is off."""
    if not obs_dir:
        return contextlib.nullcontext()
    from .obs import runtime as obs_runtime

    return obs_runtime.session(str(obs_dir), **kwargs)


def cmd_campaign_acquire(directory: str, spec, workers=None,
                         quiet: bool = False, shard_timeout=None,
                         max_attempts=None, chaos: str = None,
                         chaos_seed: int = 0,
                         chaos_shards=None, obs: bool = False,
                         obs_profile: bool = False) -> tuple:
    """Acquire (or resume) a campaign into ``directory``.

    Returns ``(report, exit_code)`` — ``EXIT_OK`` on full coverage,
    ``EXIT_DEGRADED`` when shards ended up quarantined.  With ``obs``
    (or ``obs_profile``) the run is traced into ``<directory>/obs``.
    """
    from .campaign import AcquisitionEngine, ChaosConfig, ConsoleReporter, \
        NullReporter, RetryPolicy

    reporter = NullReporter() if quiet else ConsoleReporter()
    policy = None
    if max_attempts is not None:
        policy = RetryPolicy(
            max_attempts=max_attempts,
            deterministic_attempts=min(
                max_attempts, RetryPolicy.deterministic_attempts
            ),
        )
    chaos_config = None
    if chaos:
        chaos_config = ChaosConfig.parse(chaos, seed=chaos_seed,
                                         only_shards=chaos_shards)
    obs_dir = os.path.join(str(directory), "obs") \
        if (obs or obs_profile) else None
    engine = AcquisitionEngine(directory, spec, workers=workers,
                               reporter=reporter,
                               shard_timeout=shard_timeout,
                               retry_policy=policy,
                               chaos=chaos_config)
    with _obs_session(obs_dir, kind="campaign", seed=spec.seed,
                      config_digest=spec.digest(), profile=obs_profile,
                      argv=["campaign", "acquire", "--dir",
                            str(directory)]):
        store = engine.run()
    m = engine.metrics
    lines = [
        f"campaign {directory}: {store.n_traces_on_disk}/"
        f"{spec.n_traces} traces on disk "
        f"({len(store.shard_records)} shard(s))",
        m.summary(),
    ]
    if obs_dir:
        lines.append(
            f"observability: {obs_dir} "
            f"(read with `python -m repro obs report --dir {directory}`)"
        )
    if m.degraded:
        lines += [
            f"DEGRADED: shard(s) {m.quarantined_shards} quarantined — "
            f"failure log at {engine.failure_log.path}",
            f"inspect with:   python -m repro campaign doctor "
            f"--dir {directory}",
            f"then retry via: python -m repro campaign doctor "
            f"--dir {directory} --clear  (and re-run acquire)",
        ]
        return "\n".join(lines), EXIT_DEGRADED
    return "\n".join(lines), EXIT_OK


def cmd_campaign_status(directory: str) -> str:
    """Manifest summary: progress, throughput, integrity.

    Every number in this view is read back out of an obs metrics
    snapshot built by :func:`repro.obs.integration.record_store` — the
    one aggregation path shared with the exported metrics, so the
    status line can never disagree with ``metrics.json``.
    """
    from .campaign import TraceStore
    from .campaign.supervisor import FailureLog, Quarantine
    from .obs.integration import record_store, snapshot_histogram, \
        snapshot_value
    from .obs.metrics import MetricRegistry

    store = TraceStore(directory)
    if not store.exists:
        return f"campaign {directory}: no manifest (nothing acquired yet)"
    store.load()
    spec = store.spec
    missing = store.missing_shards()
    log = FailureLog(directory)
    quarantine = Quarantine(directory)
    snapshot = record_store(MetricRegistry(), store, log,
                            quarantine).snapshot()
    n_traces = int(snapshot_value(snapshot, "repro_campaign_store_traces"))
    n_shards = int(snapshot_value(snapshot, "repro_campaign_store_shards"))
    walls = snapshot_histogram(snapshot,
                               "repro_campaign_store_wall_seconds")
    rate = snapshot_value(snapshot,
                          "repro_campaign_store_rate_traces_per_second")
    lines = [
        f"campaign {directory}",
        f"  scenario: {spec.scenario}  curve: {spec.curve}  "
        f"seed: {spec.seed}",
        f"  traces: {n_traces}/{spec.n_traces} "
        f"({n_shards}/{spec.n_shards} shards, "
        f"shard size {spec.shard_size})",
        f"  coverage: {store.coverage().render()}",
        f"  missing shards: {missing if missing else 'none — complete'}",
    ]
    quarantined = quarantine.entries()
    if quarantined:
        lines.append(
            f"  quarantined shards: {sorted(quarantined)} "
            f"(release with `campaign doctor --clear`)"
        )
    if log.exists:
        by_kind = {
            item["labels"]["kind"]: int(item["value"])
            for item in snapshot["metrics"].get(
                "repro_campaign_store_failures_total",
                {"values": []})["values"]
        }
        kinds = ", ".join(f"{k}={n}" for k, n in sorted(by_kind.items()))
        retries = int(snapshot_value(
            snapshot, "repro_campaign_store_failure_actions_total",
            action="retry"))
        quarantines = int(snapshot_value(
            snapshot, "repro_campaign_store_failure_actions_total",
            action="quarantine"))
        lines.append(
            f"  failures: {kinds or 'none'} "
            f"({retries} retried, "
            f"{quarantines} quarantined) — {log.path}"
        )
    if walls["count"]:
        lines.append(
            f"  acquisition wall: {walls['sum']:.2f}s total, "
            f"{rate:.1f} traces/s per worker "
            f"(per-shard {walls['min']:.2f}-{walls['max']:.2f}s)"
        )
    return "\n".join(lines)


def cmd_campaign_doctor(directory: str, clear: bool = False,
                        last: int = 10) -> str:
    """Inspect (and optionally repair) a campaign's failure state.

    Prints the failure-log tally, the ``last`` most recent events,
    the quarantine roster and any crash flight-recorder dumps the
    traced run left behind; ``--clear`` releases quarantined shards
    so the next ``acquire`` retries them.
    """
    import os as _os

    from .campaign.supervisor import FailureLog, Quarantine
    from .obs.flightrec import load_flight_dumps
    from .obs.runtime import OBS_DIRNAME

    log = FailureLog(directory)
    quarantine = Quarantine(directory)
    flights = load_flight_dumps(_os.path.join(directory, OBS_DIRNAME))
    lines = [f"campaign {directory}: doctor report"]
    if not log.exists and not quarantine.entries() and not flights:
        lines.append("  no recorded failures — campaign is healthy")
        return "\n".join(lines)
    events = log.events()
    tally = log.tally()
    kinds = ", ".join(f"{k}={n}" for k, n in sorted(tally["by_kind"].items()))
    lines.append(
        f"  {len(events)} failure event(s): {kinds or 'none'} "
        f"({tally['retries']} retried, {tally['quarantines']} quarantined)"
    )
    for event in events[-last:]:
        provenance = ""
        if event.get("worker_pid"):
            provenance = (
                f" (pid {event['worker_pid']}, ran "
                f"{event.get('attempt_wall_seconds', 0.0):.2f}s)"
            )
        lines.append(
            f"    shard {event['shard']} attempt {event['attempt'] + 1} "
            f"[{event['kind']}] {event['action']}: {event['reason']}"
            f"{provenance}"
        )
    entries = quarantine.entries()
    if entries:
        for index in sorted(entries):
            entry = entries[index]
            lines.append(
                f"  quarantined shard {index}: {entry['kind']} after "
                f"{entry['attempts']} attempt(s) — {entry['reason']}"
            )
        if clear:
            released = quarantine.clear()
            lines.append(
                f"  cleared quarantine for shard(s) {released} — "
                "re-run `campaign acquire` to retry them"
            )
        else:
            lines.append(
                "  pass --clear to release them for the next acquire"
            )
    else:
        lines.append("  quarantine: empty")
    if flights:
        lines.append(f"  {len(flights)} flight-recorder dump(s) "
                     "(last spans before each death):")
        for file_name, payload in flights:
            context = ", ".join(f"{k}={v}" for k, v in
                                sorted(payload.get("context", {}).items()))
            lines.append(
                f"    {file_name}: {payload['reason']}"
                + (f" ({context})" if context else "")
                + f" — {len(payload.get('records', []))} record(s)")
    return "\n".join(lines)


def cmd_campaign_attack(directory: str, attack: str = "dpa",
                        bits: int = 2, grid=None,
                        verify: bool = False,
                        allow_partial: bool = False) -> str:
    """Run a streaming attack over an acquired campaign.

    Attacks refuse incomplete stores unless ``allow_partial`` is set,
    in which case the report states exactly which shards and traces
    backed the statistics (see
    :class:`~repro.campaign.streaming.AttackProvenance`).
    """
    from .campaign import StreamingCpa, StreamingDpa, TraceStore, \
        store_provenance, streaming_spa

    store = TraceStore(directory).load()
    if verify:
        store.verify_all()
    use_z = store.spec.scenario == "known_randomness"
    header = (
        f"campaign {directory}: {attack.upper()} over "
        f"{store.n_traces_on_disk} traces "
        f"({store.spec.scenario}"
        + (", stored randomness used" if use_z else "")
        + ")"
    )
    if attack == "spa":
        result = streaming_spa(store, allow_partial=allow_partial)
        return (
            f"{header}\n"
            f"provenance: {store_provenance(store).describe()}\n"
            f"recovered {len(result.recovered_bits)} ladder bits with "
            f"{result.bit_errors} errors from the averaged trace"
        )
    cls = {"dpa": StreamingDpa, "cpa": StreamingCpa}.get(attack)
    if cls is None:
        raise ValueError(f"unknown attack {attack!r}")
    engine = cls(store, use_stored_randomness=use_z,
                 allow_partial=allow_partial)
    lines = [header]
    if grid:
        disclosure = engine.traces_to_disclosure(bits, grid)
        lines.append(
            f"traces to disclosure over grid {sorted(grid)}: {disclosure}"
        )
    result = engine.recover_bits(bits)
    if engine.last_provenance is not None:
        lines.append(f"provenance: {engine.last_provenance.describe()}")
    lines.append(
        f"{result.num_correct}/{bits} bits recovered "
        f"(chosen {result.recovered_bits}, truth {result.true_bits})"
    )
    lines.append(
        "peak statistics: "
        f"{[round(p, 2) for p in result.peak_statistics]}"
    )
    lines.append(
        "verdict: key bits "
        + ("RECOVERED" if result.success else "NOT recovered")
    )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# dse verbs
# ----------------------------------------------------------------------

def _dse_spec_from_args(args) -> "object":
    from .dse import DesignSpaceSpec

    def floats(text):
        return tuple(float(x) for x in text.split(",") if x)

    return DesignSpaceSpec(
        digit_sizes=tuple(int(x) for x in args.digits.split(",") if x),
        vdd_volts=floats(args.vdd),
        frequencies_hz=floats(args.freq),
        countermeasures=tuple(
            s for s in args.countermeasures.split(",") if s),
        backends=tuple(
            s for s in getattr(args, "backends", "").split(",") if s),
        curve=args.curve,
        seed=args.seed,
        whitebox=args.whitebox,
        whitebox_traces=args.whitebox_traces,
        max_latency_s=(None if args.max_latency_ms <= 0
                       else args.max_latency_ms / 1e3),
        max_area_ge=args.max_area_ge,
        min_security=(None if args.min_security < 0
                      else args.min_security),
        objectives=tuple(s for s in args.objectives.split(",") if s),
    )


def cmd_dse_explore(directory: str, spec, workers=None,
                    quiet: bool = False, shard_timeout=None,
                    max_attempts=None, obs: bool = False,
                    obs_profile: bool = False) -> tuple:
    """Explore (or resume) a design space into ``directory``.

    Returns ``(report, exit_code)`` — ``EXIT_OK`` when every cell was
    measured or cached, ``EXIT_DEGRADED`` when cells were quarantined.
    With ``obs`` (or ``obs_profile``) the run is traced into
    ``<directory>/obs``.
    """
    from .campaign import RetryPolicy
    from .dse import ExplorationEngine

    policy = None
    if max_attempts is not None:
        policy = RetryPolicy(
            max_attempts=max_attempts,
            deterministic_attempts=min(
                max_attempts, RetryPolicy.deterministic_attempts
            ),
        )
    obs_dir = os.path.join(str(directory), "obs") \
        if (obs or obs_profile) else None
    engine = ExplorationEngine(directory, spec, workers=workers,
                               shard_timeout=shard_timeout,
                               retry_policy=policy)
    with _obs_session(obs_dir, kind="dse", seed=spec.seed,
                      config_digest=spec.digest(), profile=obs_profile,
                      argv=["dse", "explore", "--dir", str(directory)]):
        result = engine.run()
    summary = result.summary()
    lines = [summary.splitlines()[0]] if quiet else [summary]
    lines.append(f"pareto front: {os.path.join(str(directory), 'pareto.json')}")
    if obs_dir:
        lines.append(
            f"observability: {obs_dir} "
            f"(read with `python -m repro obs report --dir {directory}`)"
        )
    if result.quarantined:
        return "\n".join(lines), EXIT_DEGRADED
    return "\n".join(lines), EXIT_OK


def _dse_spec_from_directory(directory: str) -> "object":
    import json as _json

    from .dse import DesignSpaceSpec, SPACE_NAME
    from .dse.errors import DseError

    path = os.path.join(str(directory), SPACE_NAME)
    try:
        with open(path, "r", encoding="utf-8") as f:
            return DesignSpaceSpec.from_dict(_json.load(f))
    except (OSError, ValueError) as exc:
        raise DseError(
            f"{path} is missing or unreadable — run "
            f"`repro dse explore --dir {directory}` first ({exc})"
        ) from None


def cmd_dse_pareto(directory: str, objectives=None,
                   max_latency_ms=None, max_area_ge=None,
                   min_security=None, as_json: bool = False) -> tuple:
    """Re-rank an explored directory without simulating anything.

    Reads ``space.json`` and the measurement cache, applies any
    constraint/objective overrides, recomputes the front — pure
    arithmetic, so it answers instantly.  A cell that was never
    measured is an error (explore first).
    """
    import dataclasses
    import json as _json

    from .dse import analyze_space

    spec = _dse_spec_from_directory(directory)
    overrides = {}
    if objectives is not None:
        overrides["objectives"] = tuple(objectives)
    if max_latency_ms is not None:
        overrides["max_latency_s"] = (None if max_latency_ms <= 0
                                      else max_latency_ms / 1e3)
    if max_area_ge is not None:
        overrides["max_area_ge"] = max_area_ge
    if min_security is not None:
        overrides["min_security"] = (None if min_security < 0
                                     else min_security)
    if overrides:
        spec = dataclasses.replace(spec, **overrides)
    rows, front = analyze_space(str(directory), spec)
    if as_json:
        return _json.dumps({"objectives": list(spec.objectives),
                            "front": front},
                           indent=1, sort_keys=True), EXIT_OK
    lines = [
        f"objectives: {', '.join(spec.objectives)}   "
        f"feasible: {sum(1 for r in rows if r['feasible'])}/{len(rows)}   "
        f"Pareto-optimal: {len(front)}",
    ]
    lines += _dse_rows_table(front)
    return "\n".join(lines), EXIT_OK


def cmd_dse_report(directory: str, as_json: bool = False) -> tuple:
    """The full evaluated grid of an explored directory."""
    import json as _json

    from .dse import POINTS_NAME
    from .dse.errors import DseError

    path = os.path.join(str(directory), POINTS_NAME)
    try:
        with open(path, "r", encoding="utf-8") as f:
            payload = _json.load(f)
    except (OSError, ValueError) as exc:
        raise DseError(
            f"{path} is missing or unreadable — run "
            f"`repro dse explore --dir {directory}` first ({exc})"
        ) from None
    if as_json:
        return _json.dumps(payload, indent=1, sort_keys=True), EXIT_OK
    rows = payload["rows"]
    lines = [f"design space {directory}: {len(rows)} operating points "
             f"(spec {payload['spec_digest']})"]
    lines += _dse_rows_table(rows)
    return "\n".join(lines), EXIT_OK


def _dse_rows_table(rows) -> list:
    per_message = any("energy_uj_per_message" in row for row in rows)
    header = (f"{'point':<30}{'GE':>7}{'ms':>9}{'uW':>9}"
              f"{'uJ':>8}{'GExuJ':>10}{'sec':>6}"
              + (f"{'uJ/msg':>9}" if per_message else "")
              + "  flags")
    lines = [header, "-" * len(header)]
    for row in rows:
        flags = []
        if row.get("pareto"):
            flags.append("PARETO")
        if not row.get("feasible", True):
            flags.append("infeasible:" + ",".join(row["violations"]))
        suffix = ""
        if per_message:
            value = row.get("energy_uj_per_message")
            suffix = f"{value:>9.3f}" if value is not None \
                else f"{'-':>9}"
        lines.append(
            f"{row['id']:<30}{row['area_ge']:>7.0f}"
            f"{row['latency_s'] * 1e3:>9.1f}{row['power_uw']:>9.1f}"
            f"{row['energy_uj']:>8.2f}{row['area_energy']:>10.0f}"
            f"{row['security']:>6.2f}{suffix}  {' '.join(flags)}"
        )
    return lines


def cmd_protocol_run(protocol: str = "peeters-hermans",
                     curve: str = "TOY-B17", loss: float = 0.1,
                     sessions: int = 5, seed: int = 2013,
                     distance: float = 0.5,
                     events: bool = False, obs_dir=None,
                     obs_profile: bool = False) -> str:
    """Run a handful of resilient sessions and narrate each one."""
    from .ec.curves import get_curve
    from .obs.integration import fleet_spec_digest
    from .protocols.fleet import FleetSpec
    from .protocols.session import make_adapter, run_resilient_session

    spec = FleetSpec(protocol=protocol, curve=curve, sessions=sessions,
                     seed=seed, sweep=(loss,), distance_m=distance)
    domain = None if protocol == "mutual-auth" else get_curve(curve)
    profile = spec.profile(loss)
    lines = [f"{protocol} over a channel with {profile.describe()}"]
    with _obs_session(obs_dir, kind="protocol-run", seed=seed,
                      config_digest=fleet_spec_digest(spec),
                      profile=obs_profile,
                      argv=["protocol", "run", "--protocol", protocol]):
        for index in range(sessions):
            adapter = make_adapter(protocol, domain, seed=seed,
                                   session_index=index)
            result = run_resilient_session(adapter, profile,
                                           spec.policy(),
                                           seed=seed, session_index=index,
                                           distance_m=distance)
            lines.append(result.summary())
            if events:
                lines.extend(f"    {event}" for event in result.events)
    return "\n".join(lines)


def cmd_protocol_soak(protocol: str = "peeters-hermans",
                      curve: str = "TOY-B17", sessions: int = 1000,
                      seed: int = 2013, sweep=None,
                      workers=None, distance: float = 0.5,
                      min_availability: float = 0.99,
                      quiet: bool = False, obs_dir=None,
                      obs_profile: bool = False) -> "tuple[str, int]":
    """Run the availability sweep; ``(report, exit_code)``.

    Exit-code contract (the campaign one): ``0`` when every session at
    every loss rate eventually identified; ``3`` (degraded) when some
    aborted but every sweep point stayed at or above
    ``min_availability``; ``1`` when availability fell below the floor.
    """
    from .obs.integration import fleet_spec_digest
    from .protocols.fleet import DEFAULT_SWEEP, FleetSpec, run_fleet

    spec = FleetSpec(protocol=protocol, curve=curve, sessions=sessions,
                     seed=seed, sweep=tuple(sweep or DEFAULT_SWEEP),
                     distance_m=distance)
    progress = None
    if not quiet:
        def progress(done, total):
            print(f"\r  slices {done}/{total}", end="",
                  file=sys.stderr, flush=True)
    with _obs_session(obs_dir, kind="protocol-soak", seed=seed,
                      config_digest=fleet_spec_digest(spec),
                      profile=obs_profile,
                      argv=["protocol", "soak", "--protocol", protocol]):
        report = run_fleet(spec, workers=workers, progress=progress)
    if not quiet:
        print(file=sys.stderr)
    floor = min(point.availability for point in report.points)
    if report.fully_available:
        code = EXIT_OK
    elif floor >= min_availability:
        code = EXIT_DEGRADED
    else:
        code = EXIT_FAILED
    return report.summary(), code


def cmd_protocol_amortize(protocol: str = "peeters-hermans",
                          backend: str = "simon-aead",
                          curve: str = "TOY-B17", epoch: int = 16,
                          messages: int = 64, sessions: int = 8,
                          seed: int = 2013, sweep=None,
                          workers=None, distance: float = 0.5,
                          min_delivery: float = 0.95,
                          directory=None, quiet: bool = False,
                          obs_dir=None,
                          obs_profile: bool = False) -> "tuple[str, int]":
    """Run the epoch-amortized sweep; ``(report, exit_code)``.

    Exit-code contract (the soak one): ``0`` when every message at
    every loss rate was delivered; ``3`` (degraded) when some were
    lost but every sweep point stayed at or above ``min_delivery``;
    ``1`` below the floor.  With ``directory`` the worker-invariant
    ``summary.json`` is written there (the CI ``cmp`` artifact).
    """
    import json as _json

    from .campaign.store import _atomic_write_bytes
    from .obs.integration import fleet_spec_digest
    from .protocols.amortized import AmortizedSpec, run_amortized_soak
    from .protocols.fleet import DEFAULT_SWEEP

    spec = AmortizedSpec(
        protocol=protocol, backend=backend, curve=curve,
        epoch_messages=epoch, messages=messages, sessions=sessions,
        seed=seed, sweep=tuple(sweep or DEFAULT_SWEEP),
        distance_m=distance)
    progress = None
    if not quiet:
        def progress(done, total):
            print(f"\r  slices {done}/{total}", end="",
                  file=sys.stderr, flush=True)
    with _obs_session(obs_dir, kind="protocol-amortize", seed=seed,
                      config_digest=fleet_spec_digest(spec),
                      profile=obs_profile,
                      argv=["protocol", "amortize",
                            "--backend", backend]):
        report = run_amortized_soak(spec, workers=workers,
                                    progress=progress)
    if not quiet:
        print(file=sys.stderr)
    if directory:
        os.makedirs(str(directory), exist_ok=True)
        _atomic_write_bytes(
            os.path.join(str(directory), "summary.json"),
            _json.dumps(report.summary_payload(), indent=1,
                        sort_keys=True).encode())
    if report.fully_delivered:
        code = EXIT_OK
    elif report.min_delivery_rate >= min_delivery:
        code = EXIT_DEGRADED
    else:
        code = EXIT_FAILED
    return report.summary(), code


# ----------------------------------------------------------------------
# obs verbs
# ----------------------------------------------------------------------

def cmd_obs_report(directory: str, as_json: bool = False, top: int = 10,
                   require_spans=None,
                   require_metrics=None) -> "tuple[str, int]":
    """Render one traced run; ``(report, exit_code)``.

    Exits ``EXIT_FAILED`` when a required span name or metric family
    is absent (the CI guard against silently-degraded tracing).
    """
    import json as _json

    from .obs import report as obs_report

    if as_json:
        output = _json.dumps(obs_report.report_json(directory, top=top),
                             indent=1, sort_keys=True)
    else:
        output = obs_report.render_report(directory, top=top)
    code = EXIT_OK
    if require_spans or require_metrics:
        missing = obs_report.check_required(directory, require_spans,
                                            require_metrics)
        problems = []
        if missing["missing_spans"]:
            problems.append("missing span name(s): "
                            + ", ".join(missing["missing_spans"]))
        if missing["missing_metrics"]:
            problems.append("missing metric famil(ies): "
                            + ", ".join(missing["missing_metrics"]))
        if problems:
            output += "\n" + "\n".join(f"  {p}" for p in problems)
            code = EXIT_FAILED
    return output, code


def cmd_obs_diff(path_a: str, path_b: str, patterns=None,
                 max_regression=None) -> "tuple[str, int]":
    """Regression table between two runs; ``(table, exit_code)``.

    ``EXIT_FAILED`` when any matched metric increased by more than
    ``max_regression`` percent.
    """
    from .obs import report as obs_report

    output, regressions = obs_report.render_diff(
        path_a, path_b, patterns=patterns, max_regression=max_regression,
    )
    return output, EXIT_FAILED if regressions else EXIT_OK


def _telemetry_file(directory: str, name: str) -> str:
    """``<dir>/<name>`` or ``<dir>/obs/<name>`` — soaks write their
    telemetry next to the summary, traced runs under ``obs/``."""
    import os as _os

    from .obs.runtime import OBS_DIRNAME

    for candidate in (directory, _os.path.join(directory, OBS_DIRNAME)):
        path = _os.path.join(candidate, name)
        if _os.path.exists(path):
            return path
    raise FileNotFoundError(
        f"no {name} under {directory} (directly or in "
        f"'{OBS_DIRNAME}/') — was the soak run with telemetry "
        "(any attack/server soak writes it)?")


def cmd_obs_tail(directory: str, as_json: bool = False) -> "tuple[str, int]":
    """Render a run's live telemetry snapshot; ``(report, code)``.

    Shows every telemetry series with its count/sum/min/max, the
    derived p50/p95/p99 and the peak per-source window, then lists
    any crash flight-recorder dumps.  ``EXIT_FAILED`` (via the
    dispatcher) when the run recorded no telemetry.
    """
    import json as _json
    import os as _os

    from .obs.flightrec import load_flight_dumps
    from .obs.runtime import OBS_DIRNAME
    from .obs.stream import TELEMETRY_NAME

    path = _telemetry_file(directory, TELEMETRY_NAME)
    with open(path, "r", encoding="utf-8") as f:
        snapshot = _json.load(f)
    if as_json:
        return _json.dumps(snapshot, indent=1, sort_keys=True), EXIT_OK
    lines = [
        f"obs tail: {path}",
        f"  {snapshot.get('events', 0)} event(s) from "
        f"{len(snapshot.get('sources', []))} source(s), "
        f"window {snapshot.get('window_s')} s",
    ]
    for name, entry in sorted(snapshot.get("series", {}).items()):

        def fmt(key):
            value = entry.get(key)
            return "-" if value is None else f"{value:g}"

        lines.append(
            f"  {name:<24} n={entry['count']:<6} sum={fmt('sum'):<12}"
            f"p50={fmt('p50'):<10}p95={fmt('p95'):<10}"
            f"p99={fmt('p99'):<10}max={fmt('max')}")
        peak = entry.get("peak_window")
        if peak is not None:
            lines.append(
                f"    peak window {peak['window']}: "
                f"{peak['sum']:g} from {peak['source']}")
    dumps = []
    for candidate in (directory, _os.path.join(directory, OBS_DIRNAME)):
        dumps = load_flight_dumps(candidate)
        if dumps:
            break
    if dumps:
        lines.append(f"  {len(dumps)} flight-recorder dump(s):")
        for file_name, payload in dumps:
            lines.append(
                f"    {file_name}: {payload['reason']}, "
                f"{len(payload.get('records', []))} record(s) "
                f"(of {payload.get('recorded', 0)} recorded)")
    else:
        lines.append("  no flight-recorder dumps — no worker died")
    return "\n".join(lines), EXIT_OK


def cmd_obs_alerts(directory: str,
                   as_json: bool = False) -> "tuple[str, int]":
    """Render a run's alert log; ``(report, exit_code)``.

    ``EXIT_OK`` when every rule stayed silent, ``EXIT_DEGRADED`` when
    any alert fired (CI treats a firing like a degraded soak), and
    ``EXIT_FAILED`` (via the dispatcher) when no alert log exists.
    """
    import json as _json

    from .obs.alerts import ALERTS_NAME, load_alert_log, render_alert_log

    path = _telemetry_file(directory, ALERTS_NAME)
    payload = load_alert_log(path)
    code = EXIT_DEGRADED if payload.get("firings", 0) else EXIT_OK
    if as_json:
        return _json.dumps(payload, indent=1, sort_keys=True), code
    return f"obs alerts: {path}\n" + render_alert_log(payload), code


def cmd_obs_trend(results_dir: str, label=None, write: bool = True,
                  as_json: bool = False) -> "tuple[str, int]":
    """Fold ``BENCH_*.json`` into the trend log; ``(report, code)``.

    Idempotent: a bench whose figures did not change since the last
    fold gains no history entry, so re-running after an unchanged
    bench refresh leaves the trend file byte-identical.
    """
    import json as _json
    import os as _os

    from .obs import trend as obs_trend

    if not _os.path.isdir(results_dir):
        raise FileNotFoundError(f"no results directory {results_dir}")
    trend, folded = obs_trend.fold_trend(results_dir, label=label)
    if write:
        obs_trend.write_trend(results_dir, trend)
    if as_json:
        return _json.dumps(trend, indent=1, sort_keys=True), EXIT_OK
    output = obs_trend.render_trend(trend)
    output += ("\n  folded new entry for: " + ", ".join(folded)
               if folded else "\n  no figure changed — trend untouched")
    return output, EXIT_OK


# ----------------------------------------------------------------------
# server verbs
# ----------------------------------------------------------------------

def _server_chaos(chaos: "Optional[str]", chaos_seed: int):
    if not chaos:
        return None
    from .campaign.chaos import ChaosConfig

    return ChaosConfig.parse(chaos, seed=chaos_seed)


def cmd_server_enroll(store_dir: str, tags: int = 10000,
                      shard_size: int = 65536, seed: int = 2013,
                      curve: str = "TOY-B17", workers=None,
                      chaos=None, chaos_seed: int = 0) -> tuple:
    """Enroll (or resume) a deterministic tag fleet; ``(report, code)``.

    ``EXIT_OK`` when every shard verified, ``EXIT_DEGRADED`` when
    shards were quarantined (no manifest is written then — the
    directory is not a fleet yet).
    """
    from .server import EnrollmentSpec, enroll_fleet

    spec = EnrollmentSpec(tags=tags, curve=curve, shard_size=shard_size,
                          seed=seed)
    report = enroll_fleet(store_dir, spec, workers=workers,
                          chaos=_server_chaos(chaos, chaos_seed))
    lines = [
        f"fleet {spec.digest()[:12]}: {report.tags} tags over "
        f"{report.shards_total} shard(s) in {report.directory}",
        f"  built {report.shards_built}, reused {report.shards_reused}, "
        f"retried {report.retried_attempts} attempt(s)",
    ]
    if report.quarantined:
        lines.append(
            f"  QUARANTINED shard(s): "
            f"{', '.join(map(str, report.quarantined))} — no manifest "
            f"written; rerun to retry"
        )
        return "\n".join(lines), EXIT_DEGRADED
    lines.append(f"  manifest: "
                 f"{os.path.join(str(store_dir), 'enrollment.json')}")
    return "\n".join(lines), EXIT_OK


def _server_soak_spec(args) -> "object":
    from .server import EnrollmentStore, SoakSpec

    store = EnrollmentStore(args.store, verify=False)
    return SoakSpec(
        enrollment_digest=store.spec.digest(),
        store_dir=str(args.store),
        sessions=args.sessions,
        cohorts=getattr(args, "cohorts", 1),
        arrival_rate=args.rate,
        frame_loss=args.loss,
        seed=args.seed,
        capacity=args.capacity,
        admission_queue=args.admission_queue,
        session_deadline_s=args.deadline,
        search_mode=args.search,
        distance_m=args.distance,
    )


def cmd_server_soak(directory: str, spec, workers=None, chaos=None,
                    chaos_seed: int = 0, min_acceptance: float = 0.9,
                    obs: bool = False,
                    obs_profile: bool = False) -> tuple:
    """Run the supervised fleet soak; ``(report, exit_code)``.

    ``EXIT_OK`` when clean and the acceptance rate holds,
    ``EXIT_DEGRADED`` when cohorts were quarantined, ``EXIT_FAILED``
    when acceptance fell below ``min_acceptance``.
    """
    from .server import run_soak

    obs_dir = os.path.join(str(directory), "obs") \
        if (obs or obs_profile) else None
    with _obs_session(obs_dir, kind="server-soak", seed=spec.seed,
                      config_digest=spec.digest(), profile=obs_profile,
                      argv=["server", "soak", "--dir", str(directory)]):
        report = run_soak(directory, spec, workers=workers,
                          chaos=_server_chaos(chaos, chaos_seed))
    output = report.text()
    if report.sessions and report.acceptance_rate < min_acceptance:
        output += (f"\n  FAILED: acceptance {report.acceptance_rate:.1%}"
                   f" below the floor {min_acceptance:.1%}")
        return output, EXIT_FAILED
    if report.outcome == "degraded":
        return output, EXIT_DEGRADED
    return output, EXIT_OK


def cmd_server_run(spec, metrics_port=None, serve_seconds: float = 0.0,
                   quiet: bool = False) -> tuple:
    """One in-process cohort with a live ``/metrics`` endpoint.

    Starts the HTTP exporter *before* the simulation so a scrape loop
    watches sessions/energy counters move, then keeps serving for
    ``serve_seconds`` after the run so late scrapes see the final
    state.  ``(report, exit_code)``.
    """
    import time as _time

    from .obs.metrics import MetricRegistry
    from .obs.stream import StreamAggregator, run_pipeline
    from .server import MetricsServer
    from .server.soak import simulate_cohort, soak_rulebook

    registry = MetricRegistry()
    rules = soak_rulebook(spec)
    stream = StreamAggregator(window_s=rules[0].window_s)
    exporter = None
    lines = []
    if metrics_port is not None:
        exporter = MetricsServer(registry, port=metrics_port,
                                 stream=stream).start()
        print(f"serving metrics at {exporter.url}", flush=True)
    try:
        payload = simulate_cohort(spec, 0, registry=registry)
        live, alert_records = run_pipeline(
            payload.get("telemetry", ()), rules, aggregator=stream)
        outcomes = payload["outcomes"]
        lines.append(
            f"served {payload['sessions']} session(s): "
            + ", ".join(f"{k} {v}" for k, v in outcomes.items())
            + (f", shed {payload['shed']}" if payload["shed"] else "")
        )
        lines.append(
            f"  peak {payload['peak_in_flight']} in flight; "
            f"{payload['frames']} frames "
            f"({payload['retransmissions']} retransmitted); "
            f"scheduler coalesced {payload['scheduler']['requests']} "
            f"mults into {payload['scheduler']['batches']} batches"
        )
        lines.append(
            f"  energy: tag {payload['tag_energy_uj']:.1f} uJ, "
            f"reader {payload['reader_energy_uj']:.1f} uJ"
        )
        firings = sorted({r["rule"] for r in alert_records
                          if r["state"] == "firing"})
        lines.append(
            f"  telemetry: {live['events']} event(s), "
            + (f"ALERTS FIRING: {', '.join(firings)}" if firings
               else "no alert fired")
        )
        if not quiet and exporter is not None and serve_seconds > 0:
            lines.append(f"  serving /metrics for another "
                         f"{serve_seconds:g} s")
            _print("\n".join(lines))
            lines = []
            _time.sleep(serve_seconds)
        elif serve_seconds > 0:
            _time.sleep(serve_seconds)
    finally:
        if exporter is not None:
            exporter.stop()
    return "\n".join(lines), EXIT_OK


def cmd_attack_run(adversary: str = "amplification", defenses=None,
                   sessions: int = 6, seed: int = 7, loss: float = 0.1,
                   curve: str = "TOY-B17", distance: float = 0.5) -> str:
    """Narrate one adversary against each defense posture, in process.

    Runs ``sessions`` seeded attack sessions per posture against a
    fresh tag and reports what the flood drained, what the defenses
    refused, and the tag-vs-adversary energy amplification.
    """
    from .adversary import (ADVERSARY_NAMES, DEFENSE_SETS, defense_config,
                            run_attack_session)
    from .channel import LossProfile

    if adversary not in ADVERSARY_NAMES + ("legit",):
        known = ", ".join(ADVERSARY_NAMES + ("legit",))
        raise ValueError(f"unknown adversary {adversary!r}; known: {known}")
    names = list(defenses) if defenses else list(DEFENSE_SETS)
    for name in names:
        if name not in DEFENSE_SETS:
            known = ", ".join(sorted(DEFENSE_SETS))
            raise ValueError(f"unknown defense set {name!r}; "
                             f"known: {known}")
    profile = LossProfile(frame_loss=loss)
    lines = [f"adversary {adversary}: {sessions} session(s) per defense "
             f"posture, {loss:.0%} frame loss, seed {seed}"]
    for name in names:
        tag_uj = adv_uj = 0.0
        outcomes: dict = {}
        refusals = budget_refusals = 0
        for index in range(sessions):
            result = run_attack_session(
                adversary, defense=defense_config(name), profile=profile,
                seed=seed, session_index=index, curve=curve,
                distance_m=distance)
            tag_uj += result.tag_uj
            adv_uj += result.adversary_uj
            outcomes[result.outcome] = outcomes.get(result.outcome, 0) + 1
            refusals += result.wake_refusals
            budget_refusals += result.budget_refusals
        buckets = ", ".join(f"{k} {v}" for k, v in sorted(outcomes.items()))
        amp = tag_uj / adv_uj if adv_uj > 0 else float("inf")
        lines.append(
            f"  {name:<11} tag drained {tag_uj:8.1f} uJ "
            f"(adversary spent {adv_uj:7.1f} uJ, x{amp:.1f}); {buckets}")
        if refusals or budget_refusals:
            lines.append(
                f"  {'':<11} refused {refusals} wake token(s), "
                f"{budget_refusals} budget charge(s)")
    return "\n".join(lines)


def _attack_spec_from_args(args) -> "object":
    from .adversary import AttackSpec

    return AttackSpec(
        adversary=args.adversary,
        defense=args.defense,
        sessions=args.sessions,
        cohorts=args.cohorts,
        legit_fraction=args.legit_fraction,
        arrival_rate=args.rate,
        frame_loss=args.loss,
        seed=args.seed,
        curve=args.curve,
        distance_m=args.distance,
        budget_cap_uj=args.budget_cap,
        budget_window_s=args.budget_window,
    )


def cmd_attack_soak(directory: str, spec, workers=None, chaos=None,
                    chaos_seed: int = 0,
                    min_legit_success: float = 0.0,
                    obs: bool = False, obs_profile: bool = False) -> tuple:
    """Run the supervised attack soak; ``(report, exit_code)``.

    ``EXIT_OK`` when clean and the legit success rate holds,
    ``EXIT_DEGRADED`` when cohorts were quarantined, ``EXIT_FAILED``
    when legitimate sessions fell below ``min_legit_success``.
    """
    from .adversary import run_attack_soak

    obs_dir = os.path.join(str(directory), "obs") \
        if (obs or obs_profile) else None
    with _obs_session(obs_dir, kind="attack-soak", seed=spec.seed,
                      config_digest=spec.digest(), profile=obs_profile,
                      argv=["attack", "soak", "--dir", str(directory)]):
        report = run_attack_soak(directory, spec, workers=workers,
                                 chaos=_server_chaos(chaos, chaos_seed))
    output = report.text()
    if (report.legit_sessions
            and report.legit_success_rate < min_legit_success):
        output += (f"\n  FAILED: legit success "
                   f"{report.legit_success_rate:.1%} below the floor "
                   f"{min_legit_success:.1%}")
        return output, EXIT_FAILED
    if report.outcome == "degraded":
        return output, EXIT_DEGRADED
    return output, EXIT_OK


def cmd_power_run(curve: str = "TOY-B17", seed: int = 2013,
                  session: int = 0, cuts: int = 3, on_cycles: int = 8000,
                  interval: int = 8, schedules: int = 5,
                  attack: bool = True) -> str:
    """Narrate one session's survival of power cuts, in process.

    Baseline the session on stable power, replay it under seeded cut
    schedules and under cuts aimed at every protocol tender spot,
    check every outcome is byte-identical, then (unless disabled) run
    the field-cutting key-recovery attack against the naive and the
    checkpointing tag.
    """
    from .intermittent import (IntermittentSpec, PowerCutSchedule,
                               adversarial_schedules, probe_timeline,
                               run_intermittent_session, run_with_schedule)

    spec = IntermittentSpec(curve=curve, seed=seed,
                            checkpoint_interval=interval)
    base = run_intermittent_session(spec, session)
    lines = [
        f"intermittent session {session} on {curve}, seed {seed}, "
        f"checkpoint every {interval} ladder steps",
        f"  stable power: {'accepted' if base.accepted else 'rejected'} "
        f"as identity {base.identity}, {base.cycles} cycles, "
        f"{base.total_uj:.2f} uJ ({base.checkpoint_uj:.2f} on "
        f"checkpoints), digest {base.outcome_digest[:16]}",
    ]
    lines.append(f"  {schedules} seeded schedule(s), {cuts} cuts around "
                 f"{on_cycles} cycles:")
    for index in range(schedules):
        sched = PowerCutSchedule.seeded(index, session, cuts,
                                        mean_on_cycles=on_cycles)
        result = run_with_schedule(spec, session, sched)
        verdict = "IDENTICAL" if (result.completed and
                                  result.outcome_digest
                                  == base.outcome_digest) else (
            result.abort_reason or "DIVERGED")
        lines.append(
            f"    cut-seed {index}: {result.power_cycles} cut(s), "
            f"{result.steps_wasted} step(s) re-executed, "
            f"{result.torn_discards} torn record(s) discarded "
            f"-> {verdict}")
    scheds = adversarial_schedules(probe_timeline(spec, session))
    lines.append(f"  {len(scheds)} adversarially aimed cut(s):")
    for label in sorted(scheds):
        result = run_with_schedule(spec, session, scheds[label])
        verdict = "IDENTICAL" if (result.completed and
                                  result.outcome_digest
                                  == base.outcome_digest) else (
            result.abort_reason or "DIVERGED")
        lines.append(f"    before {label:<22} -> {verdict}")
    if attack:
        from .adversary.fieldcut import run_fieldcut_attack

        naive, durable = run_fieldcut_attack(spec, session)
        lines.append("  field-cutting attacker (cut in the ack window, "
                     "fresh challenge on restart):")
        lines.append(f"    {naive.verdict()}")
        lines.append(f"    {durable.verdict()}")
    return "\n".join(lines)


def cmd_power_soak(directory: str, spec, workers=None,
                   min_completed: float = 1.0,
                   obs: bool = False, obs_profile: bool = False) -> tuple:
    """Run the power-cut fleet soak; ``(report, exit_code)``.

    Writes the placement-invariant ``summary.json`` atomically into
    ``directory``.  ``EXIT_OK`` when every session completed,
    ``EXIT_DEGRADED`` when some aborted typed-cleanly but the
    completion floor held, ``EXIT_FAILED`` when the floor broke or a
    session died unclean.
    """
    import json as _json

    from .obs.integration import fleet_spec_digest
    from .obs.metrics import atomic_write_bytes
    from .protocols.fleet import run_power_soak

    directory = str(directory)
    os.makedirs(directory, exist_ok=True)
    obs_dir = os.path.join(directory, "obs") \
        if (obs or obs_profile) else None
    with _obs_session(obs_dir, kind="power-soak", seed=spec.seed,
                      config_digest=fleet_spec_digest(spec),
                      profile=obs_profile,
                      argv=["power", "soak", "--dir", directory]):
        report = run_power_soak(spec, workers=workers)
    payload = _json.dumps(report.summary_payload(), indent=1,
                          sort_keys=True).encode()
    summary_path = os.path.join(directory, "summary.json")
    atomic_write_bytes(summary_path, payload)
    output = report.summary() + f"\n  wrote {summary_path}"
    if not report.all_clean:
        return (output + "\n  FAILED: a session died without a typed "
                "abort", EXIT_FAILED)
    fraction = report.completed / report.sessions
    if fraction < min_completed:
        return (output + f"\n  FAILED: completion {fraction:.1%} below "
                f"the floor {min_completed:.1%}", EXIT_FAILED)
    if report.completed < report.sessions:
        return output, EXIT_DEGRADED
    return output, EXIT_OK


def _power_soak_spec_from_args(args) -> "object":
    from .protocols.fleet import PowerSoakSpec

    return PowerSoakSpec(
        curve=args.curve,
        sessions=args.sessions,
        seed=args.seed,
        cut_seed=args.cut_seed,
        cuts=args.cuts,
        mean_on_cycles=args.on_cycles,
        checkpoint_interval=args.interval,
        max_power_cycles=args.max_power_cycles,
    )


def main(argv=None) -> int:
    """Entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DAC 2013 low-energy ECC coprocessor reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("info", help="design-point summary")
    sub.add_parser("energy", help="calibrated operating-point report")
    sub.add_parser("area", help="gate-count table")
    listing = sub.add_parser("listing", help="microcode listing")
    listing.add_argument("--limit", type=int, default=40)
    evaluate = sub.add_parser("evaluate", help="white-box attack battery")
    evaluate.add_argument("--weak", action="store_true",
                          help="evaluate the unprotected strawman")
    evaluate.add_argument("--traces", type=int, default=80)
    evaluate.add_argument("--seed", type=int, default=2013,
                          help="master seed of the whole evaluation")

    campaign = sub.add_parser(
        "campaign", help="trace-acquisition / attack campaign engine"
    )
    verbs = campaign.add_subparsers(dest="verb", required=True)

    acquire = verbs.add_parser("acquire",
                               help="acquire (or resume) a campaign")
    acquire.add_argument("--dir", required=True, help="campaign directory")
    acquire.add_argument("--traces", type=int, default=256)
    acquire.add_argument("--shard-size", type=int, default=64)
    acquire.add_argument("--workers", type=int, default=None,
                         help="worker processes (default: cores, max 8)")
    acquire.add_argument("--scenario", default="protected",
                         choices=("unprotected", "known_randomness",
                                  "protected"))
    acquire.add_argument("--seed", type=int, default=0)
    acquire.add_argument("--bits", type=int, default=4,
                         help="ladder bits to acquire (truncates traces); "
                              "omit for full-length traces")
    acquire.add_argument("--full-length", dest="bits",
                         action="store_const", const=None,
                         help="acquire full point multiplications")
    acquire.add_argument("--noise", type=float, default=38.0)
    acquire.add_argument("--quiet", action="store_true")
    acquire.add_argument("--shard-timeout", type=float, default=None,
                         help="watchdog seconds per shard attempt "
                              "(worker processes only)")
    acquire.add_argument("--max-attempts", type=int, default=None,
                         help="attempts per shard before quarantine")
    acquire.add_argument("--chaos", default=None, metavar="SPEC",
                         help="inject deterministic faults, e.g. "
                              "'crash=0.4,corrupt=0.25' (tests/CI only)")
    acquire.add_argument("--chaos-seed", type=int, default=0)
    acquire.add_argument("--chaos-shards", default=None,
                         help="comma-separated shard indices the chaos "
                              "faults apply to (default: all)")
    acquire.add_argument("--curve", default="K-163",
                         help="named curve (K-163, B-163, TOY-B17)")
    acquire.add_argument("--obs", action="store_true",
                         help="trace the run into <dir>/obs "
                              "(spans, metrics, manifest)")
    acquire.add_argument("--obs-profile", action="store_true",
                         help="--obs plus perf_counter hot-path timers")

    status = verbs.add_parser("status", help="manifest summary")
    status.add_argument("--dir", required=True)

    attack = verbs.add_parser("attack", help="streaming attack on a "
                                             "campaign directory")
    attack.add_argument("--dir", required=True)
    attack.add_argument("--attack", default="dpa",
                        choices=("dpa", "cpa", "spa"))
    attack.add_argument("--bits", type=int, default=2)
    attack.add_argument("--grid", default=None,
                        help="comma-separated traces-to-disclosure grid")
    attack.add_argument("--verify", action="store_true",
                        help="digest-check every shard before reading")
    attack.add_argument("--allow-partial", action="store_true",
                        help="attack an incomplete store (the report "
                             "states which shards backed the statistics)")

    doctor = verbs.add_parser(
        "doctor", help="inspect failures.jsonl and the quarantine"
    )
    doctor.add_argument("--dir", required=True)
    doctor.add_argument("--clear", action="store_true",
                        help="release quarantined shards for re-acquire")
    doctor.add_argument("--last", type=int, default=10,
                        help="failure events to show (most recent)")

    dse = sub.add_parser(
        "dse", help="design-space exploration with a security axis"
    )
    dverbs = dse.add_subparsers(dest="verb", required=True)

    explore = dverbs.add_parser(
        "explore", help="measure a design space and compute its front"
    )
    explore.add_argument("--dir", required=True,
                         help="exploration directory (measurement cache, "
                              "space.json, points.json, pareto.json)")
    explore.add_argument("--digits", default="1,2,4,8,16",
                         help="comma-separated digit sizes")
    explore.add_argument("--vdd", default="0.8,1.0,1.2",
                         help="comma-separated core voltages")
    explore.add_argument("--freq", default="100e3,847.5e3,4e6",
                         help="comma-separated clock frequencies in Hz")
    explore.add_argument("--countermeasures", default="full,none",
                         help="comma-separated countermeasure sets "
                              "(full, no-rpc, unbalanced-mux, none)")
    explore.add_argument("--backends", default="",
                         help="comma-separated crypto-backend axis "
                              "(ecc, simon-aead, sha1-aead, "
                              "hybrid:<epoch>, "
                              "hybrid:<engine>:<epoch>); empty keeps "
                              "the classic ECC-only space")
    explore.add_argument("--curve", default="K-163",
                         help="named curve (K-163, B-163, TOY-B17)")
    explore.add_argument("--seed", type=int, default=0)
    explore.add_argument("--whitebox", action="store_true",
                         help="run the white-box attack battery per "
                              "cell and fold findings into the score")
    explore.add_argument("--whitebox-traces", type=int, default=60)
    explore.add_argument("--max-latency-ms", type=float, default=105.0,
                         help="latency constraint (paper: 105 ms; "
                              "0 disables)")
    explore.add_argument("--max-area-ge", type=float, default=None,
                         help="gate budget constraint")
    explore.add_argument("--min-security", type=float, default=1.0,
                         help="security-score floor in [0,1] "
                              "(negative disables)")
    explore.add_argument("--objectives",
                         default="area_energy,power,security",
                         help="comma-separated objectives (area, cycles, "
                              "latency, power, energy, area_energy, "
                              "security; energy_per_message with "
                              "--backends)")
    explore.add_argument("--workers", type=int, default=None,
                         help="worker processes (default: cores, max 8)")
    explore.add_argument("--quiet", action="store_true")
    explore.add_argument("--shard-timeout", type=float, default=None,
                         help="watchdog seconds per measurement attempt "
                              "(worker processes only)")
    explore.add_argument("--max-attempts", type=int, default=None,
                         help="attempts per cell before quarantine")
    explore.add_argument("--obs", action="store_true",
                         help="trace the run into <dir>/obs")
    explore.add_argument("--obs-profile", action="store_true",
                         help="--obs plus perf_counter hot-path timers")

    dpareto = dverbs.add_parser(
        "pareto", help="re-rank an explored directory (no simulation)"
    )
    dpareto.add_argument("--dir", required=True)
    dpareto.add_argument("--objectives", default=None,
                         help="override the spec's objectives")
    dpareto.add_argument("--max-latency-ms", type=float, default=None,
                         help="override the latency constraint "
                              "(0 disables)")
    dpareto.add_argument("--max-area-ge", type=float, default=None,
                         help="override the gate budget")
    dpareto.add_argument("--min-security", type=float, default=None,
                         help="override the security floor "
                              "(negative disables)")
    dpareto.add_argument("--json", action="store_true",
                         help="machine-readable front")

    dreport = dverbs.add_parser(
        "report", help="the full evaluated grid of a directory"
    )
    dreport.add_argument("--dir", required=True)
    dreport.add_argument("--json", action="store_true",
                         help="dump points.json verbatim")

    protocol = sub.add_parser(
        "protocol", help="resilient sessions over the lossy channel"
    )
    pverbs = protocol.add_subparsers(dest="verb", required=True)

    prun = pverbs.add_parser("run", help="narrate a few sessions")
    prun.add_argument("--protocol", default="peeters-hermans",
                      choices=("peeters-hermans", "schnorr",
                               "mutual-auth"))
    prun.add_argument("--curve", default="TOY-B17")
    prun.add_argument("--loss", type=float, default=0.1,
                      help="frame-loss probability")
    prun.add_argument("--sessions", type=int, default=5)
    prun.add_argument("--seed", type=int, default=2013)
    prun.add_argument("--distance", type=float, default=0.5,
                      help="radio distance in meters (sets the BER)")
    prun.add_argument("--events", action="store_true",
                      help="print the per-frame event log")
    prun.add_argument("--obs-dir", default=None,
                      help="trace the sessions into this directory")
    prun.add_argument("--obs-profile", action="store_true",
                      help="also time the hot paths (needs --obs-dir)")

    psoak = pverbs.add_parser(
        "soak", help="availability/energy sweep over loss rates"
    )
    psoak.add_argument("--protocol", default="peeters-hermans",
                       choices=("peeters-hermans", "schnorr",
                                "mutual-auth"))
    psoak.add_argument("--curve", default="TOY-B17")
    psoak.add_argument("--sessions", type=int, default=1000,
                       help="sessions per sweep point")
    psoak.add_argument("--seed", type=int, default=2013)
    psoak.add_argument("--sweep", default=None,
                       help="comma-separated frame-loss rates "
                            "(default 0,0.05,0.1,0.2)")
    psoak.add_argument("--workers", type=int, default=None,
                       help="worker processes (default: cores, max 8; "
                            "0 = in-process)")
    psoak.add_argument("--distance", type=float, default=0.5)
    psoak.add_argument("--min-availability", type=float, default=0.99,
                       help="floor below which the soak FAILS "
                            "(above it but short of 100%% = degraded)")
    psoak.add_argument("--quiet", action="store_true")
    psoak.add_argument("--obs-dir", default=None,
                       help="trace the soak into this directory")
    psoak.add_argument("--obs-profile", action="store_true",
                       help="also time the hot paths (needs --obs-dir)")

    pamort = pverbs.add_parser(
        "amortize",
        help="epoch-amortized sessions: one handshake per epoch, "
             "symmetric AEAD per message",
    )
    pamort.add_argument("--protocol", default="peeters-hermans",
                        choices=("peeters-hermans", "schnorr"))
    pamort.add_argument("--backend", default="simon-aead",
                        choices=("simon-aead", "sha1-aead"))
    pamort.add_argument("--curve", default="TOY-B17")
    pamort.add_argument("--epoch", type=int, default=16,
                        help="messages per handshake (the "
                             "forward-secrecy window)")
    pamort.add_argument("--messages", type=int, default=64,
                        help="messages per session")
    pamort.add_argument("--sessions", type=int, default=8,
                        help="sessions per sweep point")
    pamort.add_argument("--seed", type=int, default=2013)
    pamort.add_argument("--sweep", default=None,
                        help="comma-separated frame-loss rates "
                             "(default 0,0.05,0.1,0.2)")
    pamort.add_argument("--workers", type=int, default=None,
                        help="worker processes (default: cores, max "
                             "8; 0 = in-process)")
    pamort.add_argument("--distance", type=float, default=0.5)
    pamort.add_argument("--min-delivery", type=float, default=0.95,
                        help="delivery floor below which the run "
                             "FAILS (above it but short of 100%% = "
                             "degraded)")
    pamort.add_argument("--dir", default=None,
                        help="write the worker-invariant "
                             "summary.json here")
    pamort.add_argument("--quiet", action="store_true")
    pamort.add_argument("--obs-dir", default=None,
                        help="trace the run into this directory")
    pamort.add_argument("--obs-profile", action="store_true",
                        help="also time the hot paths (needs "
                             "--obs-dir)")

    obs = sub.add_parser(
        "obs", help="observability reports over a traced run"
    )
    overbs = obs.add_subparsers(dest="verb", required=True)

    oreport = overbs.add_parser(
        "report", help="span/energy/metric report of one run"
    )
    oreport.add_argument("--dir", required=True,
                         help="run directory (or its obs/ subdir)")
    oreport.add_argument("--json", action="store_true",
                         help="machine-readable report")
    oreport.add_argument("--top", type=int, default=10,
                         help="slowest spans to list")
    oreport.add_argument("--require-spans", default=None,
                         help="comma-separated span names that must "
                              "appear (exit 1 otherwise)")
    oreport.add_argument("--require-metrics", default=None,
                         help="comma-separated metric families that "
                              "must appear (exit 1 otherwise)")

    odiff = overbs.add_parser(
        "diff", help="metric regression table between two runs"
    )
    odiff.add_argument("a", help="baseline: run dir, obs dir or "
                                 "metrics.json")
    odiff.add_argument("b", help="candidate: run dir, obs dir or "
                                 "metrics.json")
    odiff.add_argument("--filter", action="append", default=None,
                       metavar="GLOB",
                       help="only diff metrics matching this glob "
                            "(repeatable)")
    odiff.add_argument("--max-regression", type=float, default=None,
                       metavar="PCT",
                       help="exit 1 when any metric rose by more than "
                            "this percentage")

    otail = overbs.add_parser(
        "tail", help="live telemetry snapshot + flight-recorder dumps"
    )
    otail.add_argument("--dir", required=True,
                       help="soak/run directory holding telemetry.json")
    otail.add_argument("--json", action="store_true",
                       help="raw snapshot JSON")

    oalerts = overbs.add_parser(
        "alerts", help="alert log of one soak (exit 3 when any fired)"
    )
    oalerts.add_argument("--dir", required=True,
                         help="soak/run directory holding alerts.json")
    oalerts.add_argument("--json", action="store_true",
                         help="raw alert-log JSON")

    otrend = overbs.add_parser(
        "trend", help="fold BENCH_*.json into the bench trend log"
    )
    otrend.add_argument("--results", default="results",
                        help="results directory (default: results/)")
    otrend.add_argument("--label", default=None,
                        help="name for newly folded entries "
                             "(e.g. a git rev)")
    otrend.add_argument("--no-write", action="store_true",
                        help="render only; do not update the trend file")
    otrend.add_argument("--json", action="store_true",
                        help="raw trend JSON")

    server = sub.add_parser(
        "server", help="fleet-scale private-identification service"
    )
    sverbs = server.add_subparsers(dest="verb", required=True)

    senroll = sverbs.add_parser(
        "enroll", help="enroll a deterministic tag fleet into shards"
    )
    senroll.add_argument("--dir", required=True,
                         help="fleet store directory")
    senroll.add_argument("--tags", type=int, default=10000)
    senroll.add_argument("--shard-size", type=int, default=65536,
                         help="tags per shard file")
    senroll.add_argument("--seed", type=int, default=2013)
    senroll.add_argument("--curve", default="TOY-B17")
    senroll.add_argument("--workers", type=int, default=None,
                         help="worker processes (default: cores, max 8)")
    senroll.add_argument("--chaos", default=None,
                         help="fault injection, e.g. "
                              "'crash=0.3,corrupt=0.2'")
    senroll.add_argument("--chaos-seed", type=int, default=0)

    ssoak = sverbs.add_parser(
        "soak", help="supervised multi-cohort soak against a fleet"
    )
    ssoak.add_argument("--store", required=True,
                       help="enrolled fleet directory")
    ssoak.add_argument("--dir", required=True,
                       help="soak output directory")
    ssoak.add_argument("--sessions", type=int, default=200,
                       help="sessions per cohort")
    ssoak.add_argument("--cohorts", type=int, default=4)
    ssoak.add_argument("--rate", type=float, default=2000.0,
                       help="mean session arrivals per virtual second")
    ssoak.add_argument("--loss", type=float, default=0.1,
                       help="frame-loss probability")
    ssoak.add_argument("--seed", type=int, default=2013)
    ssoak.add_argument("--capacity", type=int, default=256,
                       help="concurrent sessions before queueing")
    ssoak.add_argument("--admission-queue", type=int, default=64,
                       help="queued admissions before shedding")
    ssoak.add_argument("--deadline", type=float, default=2.0,
                       help="per-session deadline (virtual seconds)")
    ssoak.add_argument("--search", default="cached",
                       choices=("cached", "uncached"),
                       help="identification search mode")
    ssoak.add_argument("--distance", type=float, default=0.5,
                       help="radio distance in meters (sets the BER)")
    ssoak.add_argument("--workers", type=int, default=None,
                       help="worker processes (default: cores, max 8)")
    ssoak.add_argument("--chaos", default=None,
                       help="fault injection, e.g. 'crash=0.3'")
    ssoak.add_argument("--chaos-seed", type=int, default=0)
    ssoak.add_argument("--min-acceptance", type=float, default=0.9,
                       help="acceptance-rate floor below which the "
                            "soak FAILS")
    ssoak.add_argument("--obs", action="store_true",
                       help="trace the soak into <dir>/obs")
    ssoak.add_argument("--obs-profile", action="store_true",
                       help="--obs plus perf_counter hot-path timers")

    srun = sverbs.add_parser(
        "run", help="one in-process cohort with live /metrics"
    )
    srun.add_argument("--store", required=True,
                      help="enrolled fleet directory")
    srun.add_argument("--sessions", type=int, default=200)
    srun.add_argument("--rate", type=float, default=2000.0)
    srun.add_argument("--loss", type=float, default=0.1)
    srun.add_argument("--seed", type=int, default=2013)
    srun.add_argument("--capacity", type=int, default=256)
    srun.add_argument("--admission-queue", type=int, default=64)
    srun.add_argument("--deadline", type=float, default=2.0)
    srun.add_argument("--search", default="cached",
                      choices=("cached", "uncached"))
    srun.add_argument("--distance", type=float, default=0.5)
    srun.add_argument("--metrics-port", type=int, default=None,
                      help="serve /metrics on this port while running "
                           "(0 = ephemeral; omit to disable)")
    srun.add_argument("--serve-seconds", type=float, default=0.0,
                      help="keep serving /metrics this long after the "
                           "run so a scrape loop sees the final state")
    srun.add_argument("--quiet", action="store_true")

    attack_p = sub.add_parser(
        "attack", help="adversary lab: battery-depletion floods vs "
                       "energy-budget defenses"
    )
    averbs = attack_p.add_subparsers(dest="verb", required=True)

    arun = averbs.add_parser(
        "run", help="narrate one adversary against each defense posture"
    )
    arun.add_argument("--adversary", default="amplification",
                      help="bogus-flood | replay-flood | amplification | "
                           "abandonment | legit")
    arun.add_argument("--defense", action="append", dest="defenses",
                      default=None,
                      help="defense posture to include (repeatable; "
                           "default: all)")
    arun.add_argument("--sessions", type=int, default=6,
                      help="attack sessions per posture")
    arun.add_argument("--seed", type=int, default=7)
    arun.add_argument("--loss", type=float, default=0.1,
                      help="frame-loss probability")
    arun.add_argument("--curve", default="TOY-B17")
    arun.add_argument("--distance", type=float, default=0.5,
                      help="radio distance in meters (sets the BER)")

    asoak = averbs.add_parser(
        "soak", help="supervised multi-cohort flood soak"
    )
    asoak.add_argument("--dir", required=True,
                       help="soak output directory")
    asoak.add_argument("--adversary", default="mixed",
                       help="mixed | bogus-flood | replay-flood | "
                            "amplification | abandonment")
    asoak.add_argument("--defense", default="none",
                       help="none | budget-cap | wake-gating | backoff | "
                            "full")
    asoak.add_argument("--sessions", type=int, default=50,
                       help="sessions per cohort")
    asoak.add_argument("--cohorts", type=int, default=4)
    asoak.add_argument("--legit-fraction", type=float, default=0.2,
                       help="fraction of honest sessions in the mix")
    asoak.add_argument("--rate", type=float, default=40.0,
                       help="mean session arrivals per virtual second")
    asoak.add_argument("--loss", type=float, default=0.1,
                       help="frame-loss probability")
    asoak.add_argument("--seed", type=int, default=0)
    asoak.add_argument("--curve", default="TOY-B17")
    asoak.add_argument("--distance", type=float, default=0.5)
    asoak.add_argument("--budget-cap", type=float, default=0.0,
                       help="override the posture's per-window budget "
                            "cap (uJ; 0 keeps the posture default)")
    asoak.add_argument("--budget-window", type=float, default=0.0,
                       help="override the budget window (seconds)")
    asoak.add_argument("--workers", type=int, default=None,
                       help="worker processes (default: cores, max 8)")
    asoak.add_argument("--chaos", default=None,
                       help="fault injection, e.g. 'crash=0.3'")
    asoak.add_argument("--chaos-seed", type=int, default=0)
    asoak.add_argument("--min-legit-success", type=float, default=0.0,
                       help="honest-session success floor below which "
                            "the soak FAILS")
    asoak.add_argument("--obs", action="store_true",
                       help="trace the soak into <dir>/obs")
    asoak.add_argument("--obs-profile", action="store_true",
                       help="--obs plus perf_counter hot-path timers")

    power = sub.add_parser(
        "power", help="intermittent power: brownouts, checkpoints, "
                      "zero nonce reuse"
    )
    wverbs = power.add_subparsers(dest="verb", required=True)

    wrun = wverbs.add_parser(
        "run", help="narrate one session across seeded and "
                    "adversarial power cuts"
    )
    wrun.add_argument("--curve", default="TOY-B17")
    wrun.add_argument("--seed", type=int, default=2013)
    wrun.add_argument("--session", type=int, default=0)
    wrun.add_argument("--cuts", type=int, default=3,
                      help="cuts per seeded schedule")
    wrun.add_argument("--on-cycles", type=int, default=8000,
                      help="mean power-on window (cycles)")
    wrun.add_argument("--interval", type=int, default=8,
                      help="ladder steps between checkpoints")
    wrun.add_argument("--schedules", type=int, default=5,
                      help="seeded cut schedules to replay")
    wrun.add_argument("--no-attack", action="store_true",
                      help="skip the field-cutting attack demo")

    wsoak = wverbs.add_parser(
        "soak", help="fleet soak under seeded power-cut schedules"
    )
    wsoak.add_argument("--dir", required=True,
                       help="soak output directory (summary.json "
                            "lands here)")
    wsoak.add_argument("--curve", default="TOY-B17")
    wsoak.add_argument("--sessions", type=int, default=50)
    wsoak.add_argument("--seed", type=int, default=2013)
    wsoak.add_argument("--cut-seed", type=int, default=1,
                       help="seed of the cut-placement stream")
    wsoak.add_argument("--cuts", type=int, default=3,
                       help="cuts per session")
    wsoak.add_argument("--on-cycles", type=int, default=8000,
                       help="mean power-on window (cycles)")
    wsoak.add_argument("--interval", type=int, default=8,
                       help="ladder steps between checkpoints")
    wsoak.add_argument("--max-power-cycles", type=int, default=64,
                       help="restarts before a session aborts typed")
    wsoak.add_argument("--workers", type=int, default=None,
                       help="worker processes (default: cores, max 8; "
                            "0 = in-process)")
    wsoak.add_argument("--min-completed", type=float, default=1.0,
                       help="completion floor below which the soak "
                            "FAILS")
    wsoak.add_argument("--obs", action="store_true",
                       help="trace the soak into <dir>/obs")
    wsoak.add_argument("--obs-profile", action="store_true",
                       help="--obs plus perf_counter hot-path timers")

    args = parser.parse_args(argv)

    if args.command == "info":
        output = cmd_info()
    elif args.command == "energy":
        output = cmd_energy()
    elif args.command == "area":
        output = cmd_area()
    elif args.command == "listing":
        output = cmd_listing(limit=args.limit)
    elif args.command == "campaign":
        return _campaign_main(args, argv if argv is not None
                              else sys.argv[1:])
    elif args.command == "dse":
        return _dse_main(args, argv if argv is not None
                         else sys.argv[1:])
    elif args.command == "protocol":
        return _protocol_main(args)
    elif args.command == "obs":
        return _obs_main(args)
    elif args.command == "server":
        return _server_main(args)
    elif args.command == "attack":
        return _attack_main(args)
    elif args.command == "power":
        return _power_main(args)
    else:
        output = cmd_evaluate(weak=args.weak, traces=args.traces,
                              seed=args.seed)
    _print(output)
    return EXIT_OK


def _print(output: str) -> None:
    try:
        print(output)
    except BrokenPipeError:  # e.g. piped into `head`
        pass


def _obs_main(args) -> int:
    """Dispatch an ``obs`` verb under the exit-code contract."""
    try:
        if args.verb == "report":
            output, code = cmd_obs_report(
                args.dir, as_json=args.json, top=args.top,
                require_spans=[s for s in
                               (args.require_spans or "").split(",") if s],
                require_metrics=[s for s in
                                 (args.require_metrics or "").split(",")
                                 if s],
            )
        elif args.verb == "diff":
            output, code = cmd_obs_diff(
                args.a, args.b, patterns=args.filter,
                max_regression=args.max_regression,
            )
        elif args.verb == "tail":
            output, code = cmd_obs_tail(args.dir, as_json=args.json)
        elif args.verb == "alerts":
            output, code = cmd_obs_alerts(args.dir, as_json=args.json)
        else:
            output, code = cmd_obs_trend(
                args.results, label=args.label,
                write=not args.no_write, as_json=args.json,
            )
    except FileNotFoundError as exc:
        print(f"obs error: {exc}", file=sys.stderr)
        return EXIT_FAILED
    _print(output)
    return code


def _protocol_main(args) -> int:
    """Dispatch a ``protocol`` verb under the exit-code contract."""
    code = EXIT_OK
    try:
        if args.verb == "run":
            output = cmd_protocol_run(
                protocol=args.protocol, curve=args.curve, loss=args.loss,
                sessions=args.sessions, seed=args.seed,
                distance=args.distance, events=args.events,
                obs_dir=args.obs_dir, obs_profile=args.obs_profile,
            )
        elif args.verb == "amortize":
            sweep = None
            if args.sweep:
                sweep = [float(s) for s in args.sweep.split(",") if s]
            output, code = cmd_protocol_amortize(
                protocol=args.protocol, backend=args.backend,
                curve=args.curve, epoch=args.epoch,
                messages=args.messages, sessions=args.sessions,
                seed=args.seed, sweep=sweep, workers=args.workers,
                distance=args.distance,
                min_delivery=args.min_delivery, directory=args.dir,
                quiet=args.quiet, obs_dir=args.obs_dir,
                obs_profile=args.obs_profile,
            )
        else:
            sweep = None
            if args.sweep:
                sweep = [float(s) for s in args.sweep.split(",") if s]
            output, code = cmd_protocol_soak(
                protocol=args.protocol, curve=args.curve,
                sessions=args.sessions, seed=args.seed, sweep=sweep,
                workers=args.workers, distance=args.distance,
                min_availability=args.min_availability, quiet=args.quiet,
                obs_dir=args.obs_dir, obs_profile=args.obs_profile,
            )
    except KeyboardInterrupt:
        print("\ninterrupted — the sweep is deterministic; rerunning "
              "the same command reproduces it from scratch",
              file=sys.stderr)
        return EXIT_INTERRUPTED
    except (ValueError, KeyError) as exc:
        print(f"protocol error: {exc}", file=sys.stderr)
        return EXIT_FAILED
    _print(output)
    return code


def _server_main(args) -> int:
    """Dispatch a ``server`` verb under the exit-code contract."""
    from .server import ServerError

    code = EXIT_OK
    try:
        if args.verb == "enroll":
            output, code = cmd_server_enroll(
                args.dir, tags=args.tags, shard_size=args.shard_size,
                seed=args.seed, curve=args.curve, workers=args.workers,
                chaos=args.chaos, chaos_seed=args.chaos_seed,
            )
        elif args.verb == "soak":
            output, code = cmd_server_soak(
                args.dir, _server_soak_spec(args), workers=args.workers,
                chaos=args.chaos, chaos_seed=args.chaos_seed,
                min_acceptance=args.min_acceptance,
                obs=args.obs, obs_profile=args.obs_profile,
            )
        else:
            output, code = cmd_server_run(
                _server_soak_spec(args),
                metrics_port=args.metrics_port,
                serve_seconds=args.serve_seconds, quiet=args.quiet,
            )
    except KeyboardInterrupt:
        print("\ninterrupted — enrollment shards and finished cohorts "
              "are cached; rerunning the same command resumes",
              file=sys.stderr)
        return EXIT_INTERRUPTED
    except (ServerError, ValueError, KeyError) as exc:
        print(f"server error: {exc}", file=sys.stderr)
        return EXIT_FAILED
    _print(output)
    return code


def _attack_main(args) -> int:
    """Dispatch an ``attack`` verb under the exit-code contract."""
    from .adversary import AdversaryError

    code = EXIT_OK
    try:
        if args.verb == "run":
            output = cmd_attack_run(
                adversary=args.adversary, defenses=args.defenses,
                sessions=args.sessions, seed=args.seed, loss=args.loss,
                curve=args.curve, distance=args.distance,
            )
        else:
            output, code = cmd_attack_soak(
                args.dir, _attack_spec_from_args(args),
                workers=args.workers, chaos=args.chaos,
                chaos_seed=args.chaos_seed,
                min_legit_success=args.min_legit_success,
                obs=args.obs, obs_profile=args.obs_profile,
            )
    except KeyboardInterrupt:
        print("\ninterrupted — the flood is deterministic; rerunning "
              "the same command reproduces it from scratch",
              file=sys.stderr)
        return EXIT_INTERRUPTED
    except (AdversaryError, ValueError, KeyError) as exc:
        print(f"attack error: {exc}", file=sys.stderr)
        return EXIT_FAILED
    _print(output)
    return code


def _power_main(args) -> int:
    """Dispatch a ``power`` verb under the exit-code contract."""
    from .intermittent import IntermittentError

    code = EXIT_OK
    try:
        if args.verb == "run":
            output = cmd_power_run(
                curve=args.curve, seed=args.seed, session=args.session,
                cuts=args.cuts, on_cycles=args.on_cycles,
                interval=args.interval, schedules=args.schedules,
                attack=not args.no_attack,
            )
        else:
            output, code = cmd_power_soak(
                args.dir, _power_soak_spec_from_args(args),
                workers=args.workers, min_completed=args.min_completed,
                obs=args.obs, obs_profile=args.obs_profile,
            )
    except KeyboardInterrupt:
        print("\ninterrupted — the soak is deterministic; rerunning "
              "the same command reproduces it from scratch",
              file=sys.stderr)
        return EXIT_INTERRUPTED
    except (IntermittentError, ValueError, KeyError) as exc:
        print(f"power error: {exc}", file=sys.stderr)
        return EXIT_FAILED
    _print(output)
    return code


def _dse_main(args, argv) -> int:
    """Dispatch a ``dse`` verb under the exit-code contract."""
    from .dse import DseError

    code = EXIT_OK
    try:
        if args.verb == "explore":
            output, code = cmd_dse_explore(
                args.dir, _dse_spec_from_args(args),
                workers=args.workers, quiet=args.quiet,
                shard_timeout=args.shard_timeout,
                max_attempts=args.max_attempts,
                obs=args.obs, obs_profile=args.obs_profile,
            )
        elif args.verb == "pareto":
            objectives = None
            if args.objectives:
                objectives = [s for s in args.objectives.split(",") if s]
            output, code = cmd_dse_pareto(
                args.dir, objectives=objectives,
                max_latency_ms=args.max_latency_ms,
                max_area_ge=args.max_area_ge,
                min_security=args.min_security,
                as_json=args.json,
            )
        else:
            output, code = cmd_dse_report(args.dir, as_json=args.json)
    except KeyboardInterrupt:
        resume = " ".join(argv) if argv else "<the same command>"
        print(
            "\ninterrupted — completed measurements are cached; "
            f"resume with: python -m repro {resume}",
            file=sys.stderr,
        )
        return EXIT_INTERRUPTED
    except DseError as exc:
        print(f"dse error: {exc}", file=sys.stderr)
        return EXIT_FAILED
    _print(output)
    return code


def _campaign_main(args, argv) -> int:
    """Dispatch a ``campaign`` verb under the exit-code contract."""
    from .campaign import CampaignError

    code = EXIT_OK
    try:
        if args.verb == "acquire":
            chaos_shards = None
            if args.chaos_shards:
                chaos_shards = [int(s) for s in
                                args.chaos_shards.split(",") if s]
            output, code = cmd_campaign_acquire(
                args.dir, _campaign_spec_from_args(args),
                workers=args.workers, quiet=args.quiet,
                shard_timeout=args.shard_timeout,
                max_attempts=args.max_attempts,
                chaos=args.chaos, chaos_seed=args.chaos_seed,
                chaos_shards=chaos_shards,
                obs=args.obs, obs_profile=args.obs_profile,
            )
        elif args.verb == "status":
            output = cmd_campaign_status(args.dir)
        elif args.verb == "doctor":
            output = cmd_campaign_doctor(args.dir, clear=args.clear,
                                         last=args.last)
        else:
            grid = None
            if args.grid:
                grid = [int(g) for g in args.grid.split(",") if g]
            output = cmd_campaign_attack(args.dir, attack=args.attack,
                                         bits=args.bits, grid=grid,
                                         verify=args.verify,
                                         allow_partial=args.allow_partial)
    except KeyboardInterrupt:
        resume = " ".join(argv) if argv else "<the same command>"
        print(
            "\ninterrupted — progress up to the last completed shard is "
            "checkpointed in the manifest;\n"
            f"resume with: python -m repro {resume}",
            file=sys.stderr,
        )
        return EXIT_INTERRUPTED
    except CampaignError as exc:
        print(f"campaign error: {exc}", file=sys.stderr)
        return EXIT_FAILED
    _print(output)
    return code
