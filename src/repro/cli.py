"""Command-line interface: ``python -m repro <command>``.

Top-level commands print the library's headline artifacts:

* ``info``      — design-point summary (curve, registers, cycles),
* ``energy``    — the calibrated E1 operating-point report,
* ``area``      — the gate-count table,
* ``listing``   — the microcode listing of a point multiplication,
* ``evaluate``  — the white-box attack battery (optionally against the
  unprotected strawman).

Verb groups drive the experiments at each abstraction level:

* ``campaign``  — trace acquisition and attacks on a campaign directory
  (``acquire`` / ``status`` / ``attack`` / ``doctor``),
* ``dse``       — design-space exploration with a security axis
  (``explore`` / ``pareto`` / ``report``),
* ``protocol``  — resilient sessions over the lossy channel
  (``run`` / ``soak`` / ``amortize``),
* ``obs``       — reports over traced runs
  (``report`` / ``diff`` / ``tail`` / ``alerts`` / ``trend``),
* ``server``    — the fleet identification service
  (``enroll`` / ``soak`` / ``run``),
* ``attack``    — the battery-depletion adversary lab (``run`` / ``soak``),
* ``power``     — intermittent power and checkpoints (``run`` / ``soak``).

Every command returns its report as a string (and prints it), so the
CLI is testable without subprocesses.

Every verb exits under one contract for scripts and CI:

* ``0`` — clean;
* ``1`` — failed: a floor broke, or the input was bad.  The group's own
  error (e.g. :class:`~repro.campaign.errors.CampaignError`), a
  ``ValueError`` or a ``KeyError`` prints one ``<group> error:`` line;
* ``3`` — degraded: the run finished but quarantined shards or
  cohorts, fell short of 100% above its floor, or (``obs alerts``) an
  alert fired;
* ``130`` — interrupted (Ctrl-C; the group's notice says what was kept
  and how to resume).
"""

from __future__ import annotations

import argparse
import contextlib
import json
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


def _run_obs_dir(directory, obs: bool, obs_profile: bool):
    """``<directory>/obs`` when ``--obs``/``--obs-profile`` asked for
    tracing, else None."""
    return os.path.join(str(directory), "obs") \
        if (obs or obs_profile) else None


def _obs_note(obs_dir, directory) -> list:
    """The report line saying where a traced run's obs output went."""
    if not obs_dir:
        return []
    return [f"observability: {obs_dir} "
            f"(read with `python -m repro obs report --dir {directory}`)"]


def _retry_policy(max_attempts):
    """The supervisor policy for ``--max-attempts``; None keeps the
    default."""
    if max_attempts is None:
        return None
    from .campaign import RetryPolicy

    return RetryPolicy(
        max_attempts=max_attempts,
        deterministic_attempts=min(max_attempts,
                                   RetryPolicy.deterministic_attempts),
    )


def _chaos_config(chaos, chaos_seed: int, only_shards=None):
    """The ``--chaos`` fault spec, parsed; None when chaos is off."""
    if not chaos:
        return None
    from .campaign.chaos import ChaosConfig

    return ChaosConfig.parse(chaos, seed=chaos_seed,
                             only_shards=only_shards)


def _csv(text, item=str):
    """The items of a comma-separated option; None when it is unset."""
    return None if not text else [item(s) for s in text.split(",") if s]


@contextlib.contextmanager
def _slice_progress(quiet: bool):
    """The sweep verbs' ``slices done/total`` line on stderr, or None
    when quiet; ends the line once the sweep returns."""
    if quiet:
        yield None
        return
    yield lambda done, total: print(f"\r  slices {done}/{total}", end="",
                                    file=sys.stderr, flush=True)
    print(file=sys.stderr)


def _soak_exit(output: str, failed: bool, degraded: bool,
               reason: str = "") -> "tuple[str, int]":
    """The soak verbs' exit contract: ``EXIT_FAILED`` when a floor
    broke (with ``reason`` appended when the report does not already
    show it), ``EXIT_DEGRADED`` when degraded, else ``EXIT_OK``."""
    if failed:
        return (output + (f"\n  FAILED: {reason}" if reason else ""),
                EXIT_FAILED)
    return output, EXIT_DEGRADED if degraded else EXIT_OK


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
    from .campaign import AcquisitionEngine, ConsoleReporter, NullReporter

    reporter = NullReporter() if quiet else ConsoleReporter()
    obs_dir = _run_obs_dir(directory, obs, obs_profile)
    engine = AcquisitionEngine(directory, spec, workers=workers,
                               reporter=reporter,
                               shard_timeout=shard_timeout,
                               retry_policy=_retry_policy(max_attempts),
                               chaos=_chaos_config(chaos, chaos_seed,
                                                   chaos_shards))
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
    ] + _obs_note(obs_dir, directory)
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

    Progress and throughput come from the loaded store's shard
    records; the failure line is :meth:`FailureLog.tally`, the same
    tally ``campaign doctor`` prints.
    """
    from .campaign import TraceStore
    from .campaign.supervisor import FailureLog, Quarantine

    store = TraceStore(directory)
    if not store.exists:
        return f"campaign {directory}: no manifest (nothing acquired yet)"
    store.load()
    spec = store.spec
    records = store.shard_records
    missing = store.missing_shards()
    lines = [
        f"campaign {directory}",
        f"  scenario: {spec.scenario}  curve: {spec.curve}  "
        f"seed: {spec.seed}",
        f"  traces: {store.n_traces_on_disk}/{spec.n_traces} "
        f"({len(records)}/{spec.n_shards} shards, "
        f"shard size {spec.shard_size})",
        f"  coverage: {store.coverage().render()}",
        f"  missing shards: {missing if missing else 'none — complete'}",
    ]
    quarantined = Quarantine(directory).entries()
    if quarantined:
        lines.append(
            f"  quarantined shards: {sorted(quarantined)} "
            f"(release with `campaign doctor --clear`)"
        )
    log = FailureLog(directory)
    if log.exists:
        tally = log.tally()
        kinds = ", ".join(f"{k}={n}"
                          for k, n in sorted(tally["by_kind"].items()))
        lines.append(
            f"  failures: {kinds or 'none'} "
            f"({tally['retries']} retried, "
            f"{tally['quarantines']} quarantined) — {log.path}"
        )
    if records:
        walls = [r.wall_seconds for r in records]
        total = sum(walls)
        rate = store.n_traces_on_disk / total if total > 0 else 0.0
        lines.append(
            f"  acquisition wall: {total:.2f}s total, "
            f"{rate:.1f} traces/s per worker "
            f"(per-shard {min(walls):.2f}-{max(walls):.2f}s)"
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
    from .campaign.supervisor import FailureLog, Quarantine
    from .obs.flightrec import load_flight_dumps
    from .obs.runtime import OBS_DIRNAME

    log = FailureLog(directory)
    quarantine = Quarantine(directory)
    flights = load_flight_dumps(os.path.join(directory, OBS_DIRNAME))
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

    def items(text, item=str):
        return tuple(_csv(text, item) or ())

    return DesignSpaceSpec(
        digit_sizes=items(args.digits, int),
        vdd_volts=items(args.vdd, float),
        frequencies_hz=items(args.freq, float),
        countermeasures=items(args.countermeasures),
        backends=items(args.backends),
        curve=args.curve,
        seed=args.seed,
        whitebox=args.whitebox,
        whitebox_traces=args.whitebox_traces,
        max_latency_s=(None if args.max_latency_ms <= 0
                       else args.max_latency_ms / 1e3),
        max_area_ge=args.max_area_ge,
        min_security=(None if args.min_security < 0
                      else args.min_security),
        objectives=items(args.objectives),
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
    from .dse import ExplorationEngine

    obs_dir = _run_obs_dir(directory, obs, obs_profile)
    engine = ExplorationEngine(directory, spec, workers=workers,
                               shard_timeout=shard_timeout,
                               retry_policy=_retry_policy(max_attempts))
    with _obs_session(obs_dir, kind="dse", seed=spec.seed,
                      config_digest=spec.digest(), profile=obs_profile,
                      argv=["dse", "explore", "--dir", str(directory)]):
        result = engine.run()
    summary = result.summary()
    lines = [summary.splitlines()[0]] if quiet else [summary]
    lines.append(f"pareto front: {os.path.join(str(directory), 'pareto.json')}")
    lines += _obs_note(obs_dir, directory)
    if result.quarantined:
        return "\n".join(lines), EXIT_DEGRADED
    return "\n".join(lines), EXIT_OK


def _read_explored(directory: str, name: str, decode):
    """``decode`` applied to the JSON file ``name`` of an explored
    directory; a missing, unreadable or wrong-shape file is a
    :class:`~repro.dse.errors.DseError`."""
    from .dse.errors import DseError

    path = os.path.join(str(directory), name)
    try:
        with open(path, "r", encoding="utf-8") as f:
            return decode(json.load(f))
    except (OSError, ValueError, TypeError, KeyError) as exc:
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

    from .dse import DesignSpaceSpec, SPACE_NAME, analyze_space

    spec = _read_explored(directory, SPACE_NAME, DesignSpaceSpec.from_dict)
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
        return json.dumps({"objectives": list(spec.objectives),
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
    from .dse import POINTS_NAME

    def render(payload):
        if as_json:
            return json.dumps(payload, indent=1, sort_keys=True)
        rows = payload["rows"]
        lines = [f"design space {directory}: {len(rows)} operating points "
                 f"(spec {payload['spec_digest']})"]
        return "\n".join(lines + _dse_rows_table(rows))

    return _read_explored(directory, POINTS_NAME, render), EXIT_OK


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
    from .protocols.fleet import FleetSpec
    from .protocols.session import make_adapter, run_resilient_session

    spec = FleetSpec(protocol=protocol, curve=curve, sessions=sessions,
                     seed=seed, sweep=(loss,), distance_m=distance)
    domain = None if protocol == "mutual-auth" else get_curve(curve)
    profile = spec.profile(loss)
    lines = [f"{protocol} over a channel with {profile.describe()}"]
    with _obs_session(obs_dir, kind="protocol-run", seed=seed,
                      config_digest=spec.digest(),
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

    Exit codes (the module contract): ``0`` when every session at
    every loss rate eventually identified; ``3`` (degraded) when some
    aborted but every sweep point stayed at or above
    ``min_availability``; ``1`` when availability fell below the floor.
    """
    from .protocols.fleet import DEFAULT_SWEEP, FleetSpec, run_fleet

    spec = FleetSpec(protocol=protocol, curve=curve, sessions=sessions,
                     seed=seed, sweep=tuple(sweep or DEFAULT_SWEEP),
                     distance_m=distance)
    with _slice_progress(quiet) as progress, \
            _obs_session(obs_dir, kind="protocol-soak", seed=seed,
                         config_digest=spec.digest(),
                         profile=obs_profile,
                         argv=["protocol", "soak", "--protocol",
                               protocol]):
        report = run_fleet(spec, workers=workers, progress=progress)
    floor = min(point.availability for point in report.points)
    return _soak_exit(report.summary(),
                      failed=not report.fully_available
                      and floor < min_availability,
                      degraded=not report.fully_available)


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
    from .protocols.amortized import AmortizedSpec, run_amortized_soak
    from .protocols.fleet import DEFAULT_SWEEP
    from .soak import write_summary

    spec = AmortizedSpec(
        protocol=protocol, backend=backend, curve=curve,
        epoch_messages=epoch, messages=messages, sessions=sessions,
        seed=seed, sweep=tuple(sweep or DEFAULT_SWEEP),
        distance_m=distance)
    with _slice_progress(quiet) as progress, \
            _obs_session(obs_dir, kind="protocol-amortize", seed=seed,
                         config_digest=spec.digest(),
                         profile=obs_profile,
                         argv=["protocol", "amortize",
                               "--backend", backend]):
        report = run_amortized_soak(spec, workers=workers,
                                    progress=progress)
    if directory:
        write_summary(directory, report.summary_payload())
    return _soak_exit(report.summary(),
                      failed=not report.fully_delivered
                      and report.min_delivery_rate < min_delivery,
                      degraded=not report.fully_delivered)


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
    from .obs import report as obs_report

    if as_json:
        output = json.dumps(obs_report.report_json(directory, top=top),
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
    from .obs.runtime import OBS_DIRNAME

    for candidate in (directory, os.path.join(directory, OBS_DIRNAME)):
        path = os.path.join(candidate, name)
        if os.path.exists(path):
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
    from .obs.flightrec import load_flight_dumps
    from .obs.runtime import OBS_DIRNAME
    from .obs.stream import TELEMETRY_NAME

    path = _telemetry_file(directory, TELEMETRY_NAME)
    with open(path, "r", encoding="utf-8") as f:
        snapshot = json.load(f)
    if as_json:
        return json.dumps(snapshot, indent=1, sort_keys=True), EXIT_OK
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
    for candidate in (directory, os.path.join(directory, OBS_DIRNAME)):
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
    from .obs.alerts import ALERTS_NAME, load_alert_log, render_alert_log

    path = _telemetry_file(directory, ALERTS_NAME)
    payload = load_alert_log(path)
    code = EXIT_DEGRADED if payload.get("firings", 0) else EXIT_OK
    if as_json:
        return json.dumps(payload, indent=1, sort_keys=True), code
    return f"obs alerts: {path}\n" + render_alert_log(payload), code


def cmd_obs_trend(results_dir: str, label=None, write: bool = True,
                  as_json: bool = False) -> "tuple[str, int]":
    """Fold ``BENCH_*.json`` into the trend log; ``(report, code)``.

    Idempotent: a bench whose figures did not change since the last
    fold gains no history entry, so re-running after an unchanged
    bench refresh leaves the trend file byte-identical.
    """
    from .obs import trend as obs_trend

    if not os.path.isdir(results_dir):
        raise FileNotFoundError(f"no results directory {results_dir}")
    trend, folded = obs_trend.fold_trend(results_dir, label=label)
    if write:
        obs_trend.write_trend(results_dir, trend)
    if as_json:
        return json.dumps(trend, indent=1, sort_keys=True), EXIT_OK
    output = obs_trend.render_trend(trend)
    output += ("\n  folded new entry for: " + ", ".join(folded)
               if folded else "\n  no figure changed — trend untouched")
    return output, EXIT_OK


# ----------------------------------------------------------------------
# server verbs
# ----------------------------------------------------------------------

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
                          chaos=_chaos_config(chaos, chaos_seed))
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

    with _obs_session(_run_obs_dir(directory, obs, obs_profile),
                      kind="server-soak", seed=spec.seed,
                      config_digest=spec.digest(), profile=obs_profile,
                      argv=["server", "soak", "--dir", str(directory)]):
        report = run_soak(directory, spec, workers=workers,
                          chaos=_chaos_config(chaos, chaos_seed))
    return _soak_exit(
        report.text(),
        failed=bool(report.sessions)
        and report.acceptance_rate < min_acceptance,
        degraded=report.outcome == "degraded",
        reason=f"acceptance {report.acceptance_rate:.1%} below the "
               f"floor {min_acceptance:.1%}")


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

    with _obs_session(_run_obs_dir(directory, obs, obs_profile),
                      kind="attack-soak", seed=spec.seed,
                      config_digest=spec.digest(), profile=obs_profile,
                      argv=["attack", "soak", "--dir", str(directory)]):
        report = run_attack_soak(directory, spec, workers=workers,
                                 chaos=_chaos_config(chaos, chaos_seed))
    return _soak_exit(
        report.text(),
        failed=bool(report.legit_sessions)
        and report.legit_success_rate < min_legit_success,
        degraded=report.outcome == "degraded",
        reason=f"legit success {report.legit_success_rate:.1%} below "
               f"the floor {min_legit_success:.1%}")


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

    def verdict(result) -> str:
        if result.completed and result.outcome_digest == base.outcome_digest:
            return "IDENTICAL"
        return result.abort_reason or "DIVERGED"

    lines.append(f"  {schedules} seeded schedule(s), {cuts} cuts around "
                 f"{on_cycles} cycles:")
    for index in range(schedules):
        sched = PowerCutSchedule.seeded(index, session, cuts,
                                        mean_on_cycles=on_cycles)
        result = run_with_schedule(spec, session, sched)
        lines.append(
            f"    cut-seed {index}: {result.power_cycles} cut(s), "
            f"{result.steps_wasted} step(s) re-executed, "
            f"{result.torn_discards} torn record(s) discarded "
            f"-> {verdict(result)}")
    scheds = adversarial_schedules(probe_timeline(spec, session))
    lines.append(f"  {len(scheds)} adversarially aimed cut(s):")
    for label in sorted(scheds):
        result = run_with_schedule(spec, session, scheds[label])
        lines.append(f"    before {label:<22} -> {verdict(result)}")
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
    from .protocols.fleet import run_power_soak
    from .soak import write_summary

    directory = str(directory)
    with _obs_session(_run_obs_dir(directory, obs, obs_profile),
                      kind="power-soak", seed=spec.seed,
                      config_digest=spec.digest(),
                      profile=obs_profile,
                      argv=["power", "soak", "--dir", directory]):
        report = run_power_soak(spec, workers=workers)
    summary_path = write_summary(directory, report.summary_payload())
    fraction = report.completed / report.sessions
    return _soak_exit(
        report.summary() + f"\n  wrote {summary_path}",
        failed=not report.all_clean or fraction < min_completed,
        degraded=report.completed < report.sessions,
        reason="a session died without a typed abort"
        if not report.all_clean else
        f"completion {fraction:.1%} below the floor {min_completed:.1%}")


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


# ----------------------------------------------------------------------
# the parser and the one dispatcher
# ----------------------------------------------------------------------

# Ctrl-C notice per verb group; ``{resume}`` expands to the command line.
# ``obs`` verbs keep no progress to resume, so Ctrl-C there stays a plain
# KeyboardInterrupt.
_INTERRUPTED = {
    "campaign": "progress up to the last completed shard is "
                "checkpointed in the manifest;\n"
                "resume with: python -m repro {resume}",
    "dse": "completed measurements are cached; "
           "resume with: python -m repro {resume}",
    "protocol": "the sweep is deterministic; rerunning the same command "
                "reproduces it from scratch",
    "server": "enrollment shards and finished cohorts are cached; "
              "rerunning the same command resumes",
    "attack": "the flood is deterministic; rerunning the same command "
              "reproduces it from scratch",
    "power": "the soak is deterministic; rerunning the same command "
             "reproduces it from scratch",
}


def _group_error(group: str) -> type:
    """The error class ``group`` reports as one ``<group> error:`` line
    (imported on demand, so no verb loads another group's modules)."""
    if group == "campaign":
        from .campaign import CampaignError as error
    elif group == "dse":
        from .dse import DseError as error
    elif group == "server":
        from .server import ServerError as error
    elif group == "attack":
        from .adversary import AdversaryError as error
    elif group == "power":
        from .intermittent import IntermittentError as error
    elif group == "obs":
        error = FileNotFoundError
    else:  # protocol: bad input arrives as ValueError/KeyError
        error = ValueError
    return error


def main(argv=None) -> int:
    """Entry point; returns a process exit code."""
    args = _parser().parse_args(argv)
    if not hasattr(args, "verb"):  # a top-level command: no contract
        _print(args.run(args))
        return EXIT_OK
    group = args.command
    try:
        result = args.run(args)
    except KeyboardInterrupt:
        if group not in _INTERRUPTED:
            raise
        argv = sys.argv[1:] if argv is None else argv
        resume = " ".join(argv) if argv else "<the same command>"
        print("\ninterrupted — " + _INTERRUPTED[group].format(resume=resume),
              file=sys.stderr)
        return EXIT_INTERRUPTED
    except (_group_error(group), ValueError, KeyError) as exc:
        print(f"{group} error: {exc}", file=sys.stderr)
        return EXIT_FAILED
    output, code = result if isinstance(result, tuple) else (result, EXIT_OK)
    _print(output)
    return code


def _print(output: str) -> None:
    try:
        print(output)
    except BrokenPipeError:  # e.g. piped into `head`
        pass


def _add_workers(parser, in_process: bool = False) -> None:
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes (default: cores, max 8"
                             + ("; 0 = in-process)" if in_process else ")"))


def _add_retry(parser, attempt: str, unit: str) -> None:
    parser.add_argument("--shard-timeout", type=float, default=None,
                        help=f"watchdog seconds per {attempt} attempt "
                             "(worker processes only)")
    parser.add_argument("--max-attempts", type=int, default=None,
                        help=f"attempts per {unit} before quarantine")


def _add_chaos(parser, help_text: str = "fault injection, e.g. 'crash=0.3'",
               metavar=None) -> None:
    parser.add_argument("--chaos", default=None, metavar=metavar,
                        help=help_text)
    parser.add_argument("--chaos-seed", type=int, default=0)


def _add_obs(parser, help_text: str = "trace the soak into <dir>/obs") -> None:
    parser.add_argument("--obs", action="store_true", help=help_text)
    parser.add_argument("--obs-profile", action="store_true",
                        help="--obs plus perf_counter hot-path timers")


def _add_obs_dir(parser, traced: str) -> None:
    parser.add_argument("--obs-dir", default=None,
                        help=f"trace the {traced} into this directory")
    parser.add_argument("--obs-profile", action="store_true",
                        help="also time the hot paths (needs --obs-dir)")


def _add_server_sessions(parser) -> None:
    """The options ``server soak`` and ``server run`` share."""
    parser.add_argument("--store", required=True,
                        help="enrolled fleet directory")
    parser.add_argument("--sessions", type=int, default=200,
                        help="sessions per cohort")
    parser.add_argument("--rate", type=float, default=2000.0,
                        help="mean session arrivals per virtual second")
    parser.add_argument("--loss", type=float, default=0.1,
                        help="frame-loss probability")
    parser.add_argument("--seed", type=int, default=2013)
    parser.add_argument("--capacity", type=int, default=256,
                        help="concurrent sessions before queueing")
    parser.add_argument("--admission-queue", type=int, default=64,
                        help="queued admissions before shedding")
    parser.add_argument("--deadline", type=float, default=2.0,
                        help="per-session deadline (virtual seconds)")
    parser.add_argument("--search", default="cached",
                        choices=("cached", "uncached"),
                        help="identification search mode")
    parser.add_argument("--distance", type=float, default=0.5,
                        help="radio distance in meters (sets the BER)")


def _add_power_cuts(parser, cuts_help: str) -> None:
    """The cut options ``power run`` and ``power soak`` share."""
    parser.add_argument("--cuts", type=int, default=3, help=cuts_help)
    parser.add_argument("--on-cycles", type=int, default=8000,
                        help="mean power-on window (cycles)")
    parser.add_argument("--interval", type=int, default=8,
                        help="ladder steps between checkpoints")


def _parser() -> argparse.ArgumentParser:
    """Every command and verb; each parser's ``run`` default maps the
    parsed ``args`` onto its ``cmd_*`` call."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DAC 2013 low-energy ECC coprocessor reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("info", help="design-point summary").set_defaults(
        run=lambda a: cmd_info())
    sub.add_parser("energy", help="calibrated operating-point report") \
        .set_defaults(run=lambda a: cmd_energy())
    sub.add_parser("area", help="gate-count table").set_defaults(
        run=lambda a: cmd_area())
    listing = sub.add_parser("listing", help="microcode listing")
    listing.add_argument("--limit", type=int, default=40)
    listing.set_defaults(run=lambda a: cmd_listing(limit=a.limit))
    evaluate = sub.add_parser("evaluate", help="white-box attack battery")
    evaluate.add_argument("--weak", action="store_true",
                          help="evaluate the unprotected strawman")
    evaluate.add_argument("--traces", type=int, default=80)
    evaluate.add_argument("--seed", type=int, default=2013,
                          help="master seed of the whole evaluation")
    evaluate.set_defaults(run=lambda a: cmd_evaluate(
        weak=a.weak, traces=a.traces, seed=a.seed))

    campaign = sub.add_parser(
        "campaign", help="trace-acquisition / attack campaign engine"
    )
    verbs = campaign.add_subparsers(dest="verb", required=True)

    acquire = verbs.add_parser("acquire",
                               help="acquire (or resume) a campaign")
    acquire.add_argument("--dir", required=True, help="campaign directory")
    acquire.add_argument("--traces", type=int, default=256)
    acquire.add_argument("--shard-size", type=int, default=64)
    _add_workers(acquire)
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
    _add_retry(acquire, "shard", "shard")
    _add_chaos(acquire, "inject deterministic faults, e.g. "
                        "'crash=0.4,corrupt=0.25' (tests/CI only)",
               metavar="SPEC")
    acquire.add_argument("--chaos-shards", default=None,
                         help="comma-separated shard indices the chaos "
                              "faults apply to (default: all)")
    acquire.add_argument("--curve", default="K-163",
                         help="named curve (K-163, B-163, TOY-B17)")
    _add_obs(acquire, "trace the run into <dir>/obs "
                      "(spans, metrics, manifest)")
    acquire.set_defaults(run=lambda a: cmd_campaign_acquire(
        a.dir, _campaign_spec_from_args(a), workers=a.workers,
        quiet=a.quiet, shard_timeout=a.shard_timeout,
        max_attempts=a.max_attempts, chaos=a.chaos,
        chaos_seed=a.chaos_seed, chaos_shards=_csv(a.chaos_shards, int),
        obs=a.obs, obs_profile=a.obs_profile))

    status = verbs.add_parser("status", help="manifest summary")
    status.add_argument("--dir", required=True)
    status.set_defaults(run=lambda a: cmd_campaign_status(a.dir))

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
    attack.set_defaults(run=lambda a: cmd_campaign_attack(
        a.dir, attack=a.attack, bits=a.bits, grid=_csv(a.grid, int),
        verify=a.verify, allow_partial=a.allow_partial))

    doctor = verbs.add_parser(
        "doctor", help="inspect failures.jsonl and the quarantine"
    )
    doctor.add_argument("--dir", required=True)
    doctor.add_argument("--clear", action="store_true",
                        help="release quarantined shards for re-acquire")
    doctor.add_argument("--last", type=int, default=10,
                        help="failure events to show (most recent)")
    doctor.set_defaults(run=lambda a: cmd_campaign_doctor(
        a.dir, clear=a.clear, last=a.last))

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
    _add_workers(explore)
    explore.add_argument("--quiet", action="store_true")
    _add_retry(explore, "measurement", "cell")
    _add_obs(explore, "trace the run into <dir>/obs")
    explore.set_defaults(run=lambda a: cmd_dse_explore(
        a.dir, _dse_spec_from_args(a), workers=a.workers, quiet=a.quiet,
        shard_timeout=a.shard_timeout, max_attempts=a.max_attempts,
        obs=a.obs, obs_profile=a.obs_profile))

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
    dpareto.set_defaults(run=lambda a: cmd_dse_pareto(
        a.dir, objectives=_csv(a.objectives),
        max_latency_ms=a.max_latency_ms, max_area_ge=a.max_area_ge,
        min_security=a.min_security, as_json=a.json))

    dreport = dverbs.add_parser(
        "report", help="the full evaluated grid of a directory"
    )
    dreport.add_argument("--dir", required=True)
    dreport.add_argument("--json", action="store_true",
                         help="dump points.json verbatim")
    dreport.set_defaults(run=lambda a: cmd_dse_report(a.dir,
                                                      as_json=a.json))

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
    _add_obs_dir(prun, "sessions")
    prun.set_defaults(run=lambda a: cmd_protocol_run(
        protocol=a.protocol, curve=a.curve, loss=a.loss,
        sessions=a.sessions, seed=a.seed, distance=a.distance,
        events=a.events, obs_dir=a.obs_dir, obs_profile=a.obs_profile))

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
    _add_workers(psoak, in_process=True)
    psoak.add_argument("--distance", type=float, default=0.5)
    psoak.add_argument("--min-availability", type=float, default=0.99,
                       help="floor below which the soak FAILS "
                            "(above it but short of 100%% = degraded)")
    psoak.add_argument("--quiet", action="store_true")
    _add_obs_dir(psoak, "soak")
    psoak.set_defaults(run=lambda a: cmd_protocol_soak(
        protocol=a.protocol, curve=a.curve, sessions=a.sessions,
        seed=a.seed, sweep=_csv(a.sweep, float), workers=a.workers,
        distance=a.distance, min_availability=a.min_availability,
        quiet=a.quiet, obs_dir=a.obs_dir, obs_profile=a.obs_profile))

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
    _add_workers(pamort, in_process=True)
    pamort.add_argument("--distance", type=float, default=0.5)
    pamort.add_argument("--min-delivery", type=float, default=0.95,
                        help="delivery floor below which the run "
                             "FAILS (above it but short of 100%% = "
                             "degraded)")
    pamort.add_argument("--dir", default=None,
                        help="write the worker-invariant "
                             "summary.json here")
    pamort.add_argument("--quiet", action="store_true")
    _add_obs_dir(pamort, "run")
    pamort.set_defaults(run=lambda a: cmd_protocol_amortize(
        protocol=a.protocol, backend=a.backend, curve=a.curve,
        epoch=a.epoch, messages=a.messages, sessions=a.sessions,
        seed=a.seed, sweep=_csv(a.sweep, float), workers=a.workers,
        distance=a.distance, min_delivery=a.min_delivery,
        directory=a.dir, quiet=a.quiet, obs_dir=a.obs_dir,
        obs_profile=a.obs_profile))

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
    oreport.set_defaults(run=lambda a: cmd_obs_report(
        a.dir, as_json=a.json, top=a.top,
        require_spans=_csv(a.require_spans),
        require_metrics=_csv(a.require_metrics)))

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
    odiff.set_defaults(run=lambda a: cmd_obs_diff(
        a.a, a.b, patterns=a.filter, max_regression=a.max_regression))

    otail = overbs.add_parser(
        "tail", help="live telemetry snapshot + flight-recorder dumps"
    )
    otail.add_argument("--dir", required=True,
                       help="soak/run directory holding telemetry.json")
    otail.add_argument("--json", action="store_true",
                       help="raw snapshot JSON")
    otail.set_defaults(run=lambda a: cmd_obs_tail(a.dir, as_json=a.json))

    oalerts = overbs.add_parser(
        "alerts", help="alert log of one soak (exit 3 when any fired)"
    )
    oalerts.add_argument("--dir", required=True,
                         help="soak/run directory holding alerts.json")
    oalerts.add_argument("--json", action="store_true",
                         help="raw alert-log JSON")
    oalerts.set_defaults(run=lambda a: cmd_obs_alerts(a.dir,
                                                      as_json=a.json))

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
    otrend.set_defaults(run=lambda a: cmd_obs_trend(
        a.results, label=a.label, write=not a.no_write, as_json=a.json))

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
    _add_workers(senroll)
    _add_chaos(senroll, "fault injection, e.g. 'crash=0.3,corrupt=0.2'")
    senroll.set_defaults(run=lambda a: cmd_server_enroll(
        a.dir, tags=a.tags, shard_size=a.shard_size, seed=a.seed,
        curve=a.curve, workers=a.workers, chaos=a.chaos,
        chaos_seed=a.chaos_seed))

    ssoak = sverbs.add_parser(
        "soak", help="supervised multi-cohort soak against a fleet"
    )
    _add_server_sessions(ssoak)
    ssoak.add_argument("--dir", required=True,
                       help="soak output directory")
    ssoak.add_argument("--cohorts", type=int, default=4)
    _add_workers(ssoak)
    _add_chaos(ssoak)
    ssoak.add_argument("--min-acceptance", type=float, default=0.9,
                       help="acceptance-rate floor below which the "
                            "soak FAILS")
    _add_obs(ssoak)
    ssoak.set_defaults(run=lambda a: cmd_server_soak(
        a.dir, _server_soak_spec(a), workers=a.workers, chaos=a.chaos,
        chaos_seed=a.chaos_seed, min_acceptance=a.min_acceptance,
        obs=a.obs, obs_profile=a.obs_profile))

    srun = sverbs.add_parser(
        "run", help="one in-process cohort with live /metrics"
    )
    _add_server_sessions(srun)
    srun.add_argument("--metrics-port", type=int, default=None,
                      help="serve /metrics on this port while running "
                           "(0 = ephemeral; omit to disable)")
    srun.add_argument("--serve-seconds", type=float, default=0.0,
                      help="keep serving /metrics this long after the "
                           "run so a scrape loop sees the final state")
    srun.add_argument("--quiet", action="store_true")
    srun.set_defaults(run=lambda a: cmd_server_run(
        _server_soak_spec(a), metrics_port=a.metrics_port,
        serve_seconds=a.serve_seconds, quiet=a.quiet))

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
    arun.set_defaults(run=lambda a: cmd_attack_run(
        adversary=a.adversary, defenses=a.defenses, sessions=a.sessions,
        seed=a.seed, loss=a.loss, curve=a.curve, distance=a.distance))

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
    _add_workers(asoak)
    _add_chaos(asoak)
    asoak.add_argument("--min-legit-success", type=float, default=0.0,
                       help="honest-session success floor below which "
                            "the soak FAILS")
    _add_obs(asoak)
    asoak.set_defaults(run=lambda a: cmd_attack_soak(
        a.dir, _attack_spec_from_args(a), workers=a.workers,
        chaos=a.chaos, chaos_seed=a.chaos_seed,
        min_legit_success=a.min_legit_success, obs=a.obs,
        obs_profile=a.obs_profile))

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
    _add_power_cuts(wrun, "cuts per seeded schedule")
    wrun.add_argument("--schedules", type=int, default=5,
                      help="seeded cut schedules to replay")
    wrun.add_argument("--no-attack", action="store_true",
                      help="skip the field-cutting attack demo")
    wrun.set_defaults(run=lambda a: cmd_power_run(
        curve=a.curve, seed=a.seed, session=a.session, cuts=a.cuts,
        on_cycles=a.on_cycles, interval=a.interval,
        schedules=a.schedules, attack=not a.no_attack))

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
    _add_power_cuts(wsoak, "cuts per session")
    wsoak.add_argument("--max-power-cycles", type=int, default=64,
                       help="restarts before a session aborts typed")
    _add_workers(wsoak, in_process=True)
    wsoak.add_argument("--min-completed", type=float, default=1.0,
                       help="completion floor below which the soak "
                            "FAILS")
    _add_obs(wsoak)
    wsoak.set_defaults(run=lambda a: cmd_power_soak(
        a.dir, _power_soak_spec_from_args(a), workers=a.workers,
        min_completed=a.min_completed, obs=a.obs,
        obs_profile=a.obs_profile))
    return parser
