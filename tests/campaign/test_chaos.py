"""Chaos harness: seeded fault decisions and the full recovery matrix.

The headline test here is the acceptance criterion of the whole
fault-tolerance layer: a campaign run under seeded crashes, hangs and
post-write corruption must finish with shard files *byte-identical* to
a fault-free run — recovery that changes the data is not recovery.
"""

import os
import time

import pytest

from repro.adversary import AttackSpec, run_attack_soak
from repro.campaign import (
    CHAOS_CRASH_EXIT_CODE,
    DATA_INTEGRITY,
    DETERMINISTIC,
    TRANSIENT,
    AcquisitionEngine,
    CampaignSpec,
    ChaosConfig,
    ChaosInjectedError,
    CollectingReporter,
    Quarantine,
    RetryPolicy,
    TraceStore,
    acquire_shard,
)
from repro.campaign.chaos import run_attempt
from repro.server import EnrollmentSpec, SoakSpec, enroll_fleet, run_soak

SPEC = CampaignSpec(n_traces=4, shard_size=2, scenario="unprotected",
                    max_iterations=2, seed=31, noise_sigma=38.0)


class TestConfig:
    def test_parse(self):
        config = ChaosConfig.parse("crash=0.4, corrupt=0.25", seed=3,
                                   only_shards=(2, 0))
        assert config.crash_rate == 0.4
        assert config.corrupt_rate == 0.25
        assert config.error_rate == 0.0
        assert config.seed == 3
        assert config.only_shards == (0, 2)

    def test_parse_rejects_unknown_fault(self):
        with pytest.raises(ValueError, match="unknown chaos fault"):
            ChaosConfig.parse("explode=0.5")
        with pytest.raises(ValueError, match="fault=rate"):
            ChaosConfig.parse("crash")

    def test_rates_are_validated(self):
        with pytest.raises(ValueError):
            ChaosConfig(crash_rate=1.5)
        with pytest.raises(ValueError):
            ChaosConfig(error_rate=-0.1)

    def test_dict_roundtrip(self):
        config = ChaosConfig(seed=7, crash_rate=0.3, hang_rate=0.1,
                             slow_seconds=0.2, only_shards=(1,))
        assert ChaosConfig.from_dict(config.to_dict()) == config

    def test_needs_processes(self):
        assert ChaosConfig(crash_rate=0.1).needs_processes
        assert ChaosConfig(hang_rate=0.1).needs_processes
        assert not ChaosConfig(error_rate=1.0, corrupt_rate=1.0,
                               slow_rate=1.0).needs_processes


class TestDecisions:
    def test_decisions_are_deterministic(self):
        a = ChaosConfig(seed=5, error_rate=0.5, corrupt_rate=0.5)
        b = ChaosConfig(seed=5, error_rate=0.5, corrupt_rate=0.5)
        rolls = [(s, t) for s in range(4) for t in range(4)]
        assert [a.execution_fault(s, t) for s, t in rolls] == \
            [b.execution_fault(s, t) for s, t in rolls]
        assert [a.corrupts(s, t) for s, t in rolls] == \
            [b.corrupts(s, t) for s, t in rolls]

    def test_seed_changes_the_draws(self):
        a = ChaosConfig(seed=5, error_rate=0.5)
        b = ChaosConfig(seed=6, error_rate=0.5)
        rolls = [(s, t) for s in range(8) for t in range(8)]
        assert [a.execution_fault(s, t) for s, t in rolls] != \
            [b.execution_fault(s, t) for s, t in rolls]

    def test_attempt_changes_the_draws(self):
        # The whole point: a fault on attempt 0 generally clears later.
        config = ChaosConfig(seed=0, error_rate=0.5)
        draws = [config.execution_fault(0, t) is not None
                 for t in range(64)]
        assert any(draws) and not all(draws)

    def test_only_shards_scopes_all_faults(self):
        config = ChaosConfig(seed=1, error_rate=1.0, corrupt_rate=1.0,
                             only_shards=(2,))
        assert config.execution_fault(2, 0) == "error"
        assert config.corrupts(2, 0)
        assert config.execution_fault(0, 0) is None
        assert not config.corrupts(0, 0)

    def test_rate_extremes_shortcut_the_roll(self):
        always = ChaosConfig(error_rate=1.0)
        never = ChaosConfig()
        for attempt in range(8):
            assert always.execution_fault(0, attempt) == "error"
            assert never.execution_fault(0, attempt) is None

    def test_crash_takes_precedence(self):
        config = ChaosConfig(crash_rate=1.0, hang_rate=1.0,
                             error_rate=1.0, slow_rate=1.0)
        assert config.execution_fault(0, 0) == "crash"

    def test_error_fault_raises_inline(self, tmp_path):
        TraceStore(str(tmp_path)).initialize(SPEC)
        config = ChaosConfig(error_rate=1.0)
        with pytest.raises(ChaosInjectedError, match="shard 0"):
            run_attempt(acquire_shard, SPEC, str(tmp_path), 0, 0, config)


def _fault_path(config, shard, budget):
    """Faults a shard hits before completing: (sequence, done_attempt)."""
    sequence = []
    for attempt in range(budget):
        fault = config.execution_fault(shard, attempt)
        if fault is None and not config.corrupts(shard, attempt):
            return sequence, attempt
        sequence.append(fault if fault is not None else "corrupt")
    return sequence, None


def _find_chaos(shards, budget):
    """A seed whose injected faults cover the matrix but still let
    every shard complete within the retry budget (pure hashing — the
    search costs microseconds and is itself deterministic)."""
    for seed in range(2000):
        config = ChaosConfig(seed=seed, crash_rate=0.35, hang_rate=0.25,
                             error_rate=0.2, corrupt_rate=0.3,
                             hang_seconds=3600.0)
        paths = [_fault_path(config, s, budget) for s in range(shards)]
        if any(done is None for _, done in paths):
            continue
        # The deterministic-kind budget (2) must survive: at most one
        # injected `error` per shard.
        if any(sequence.count("error") >= 2 for sequence, _ in paths):
            continue
        hit = [fault for sequence, _ in paths for fault in sequence]
        if hit.count("hang") != 1:     # exactly one watchdog kill
            continue
        if "crash" in hit and "corrupt" in hit:
            return config, hit
    raise AssertionError("no covering chaos seed in range")


class TestRecoveryMatrix:
    """Process-mode supervision under crash + hang + corruption."""

    def test_chaos_run_is_byte_identical_to_clean_run(self, tmp_path):
        clean_dir = str(tmp_path / "clean")
        chaos_dir = str(tmp_path / "chaos")
        policy = RetryPolicy(max_attempts=6, base_delay=0.01,
                             max_delay=0.05, jitter=0.0)

        started = time.monotonic()
        clean = AcquisitionEngine(clean_dir, SPEC, workers=2).run()
        clean_wall = time.monotonic() - started
        clean_digests = {r.index: (r.samples_sha256, r.aux_sha256)
                         for r in clean.shard_records}

        # The watchdog must end the injected hang but never an honest
        # attempt: size it from this host's own clean run, which pays
        # the same interpreter start-up per spawned attempt.
        config, hit = _find_chaos(SPEC.n_shards, policy.max_attempts)
        reporter = CollectingReporter()
        engine = AcquisitionEngine(
            chaos_dir, SPEC, workers=2, reporter=reporter,
            shard_timeout=max(1.5, 4 * clean_wall), retry_policy=policy,
            chaos=config,
        )
        store = engine.run()

        assert engine.outcome == "clean"
        assert store.coverage().is_complete
        store.verify_all()
        assert {r.index: (r.samples_sha256, r.aux_sha256)
                for r in store.shard_records} == clean_digests

        # Every injected fault produced a classified, logged event.
        events = engine.failure_log.events()
        assert len(events) == len(hit)
        kinds = {e["kind"] for e in events}
        assert TRANSIENT in kinds           # crash and/or watchdog kill
        if "corrupt" in hit:
            assert DATA_INTEGRITY in kinds
        assert len(reporter.failures) == len(events)
        assert engine.metrics.retried_attempts == len(hit)

        # The crash left its signature exit code in the log...
        if "crash" in hit:
            assert any(str(CHAOS_CRASH_EXIT_CODE) in e["reason"]
                       for e in events)
        # ...and the watchdog reported the hang it killed.
        assert any("watchdog" in e["reason"] for e in events)

    def test_permanent_failure_degrades_not_dies(self, tmp_path):
        config = ChaosConfig(seed=1, error_rate=1.0, only_shards=(1,))
        policy = RetryPolicy(max_attempts=2, deterministic_attempts=2,
                             base_delay=0.0, jitter=0.0)
        engine = AcquisitionEngine(str(tmp_path), SPEC, workers=1,
                                   retry_policy=policy, chaos=config)
        store = engine.run()
        assert engine.outcome == "degraded"
        assert engine.metrics.quarantined_shards == [1]
        assert engine.quarantine.indices() == [1]
        coverage = store.coverage()
        assert not coverage.is_complete
        assert coverage.missing_shards == (1,)
        # The healthy shard still completed.
        assert [r.index for r in store.shard_records] == [0]

    def test_resume_skips_quarantined_shards(self, tmp_path):
        config = ChaosConfig(seed=1, error_rate=1.0, only_shards=(1,))
        policy = RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0)
        AcquisitionEngine(str(tmp_path), SPEC, workers=1,
                          retry_policy=policy, chaos=config).run()
        # A resumed run must not burn its budget on the known-bad
        # shard again: zero new failure events.
        engine = AcquisitionEngine(str(tmp_path), SPEC, workers=1,
                                   retry_policy=policy, chaos=config)
        before = len(engine.failure_log.events())
        engine.run()
        assert engine.outcome == "degraded"
        assert len(engine.failure_log.events()) == before
        # Released quarantine + healthy environment -> full recovery.
        engine.quarantine.clear()
        healed = AcquisitionEngine(str(tmp_path), SPEC, workers=1)
        store = healed.run()
        assert healed.outcome == "clean"
        assert store.coverage().is_complete

    def test_crash_debris_is_swept_on_resume(self, tmp_path):
        directory = str(tmp_path)
        store = TraceStore(directory)
        store.initialize(SPEC)
        stale = os.path.join(directory,
                             TraceStore.shard_filenames(0)[0] + ".tmp")
        with open(stale, "wb") as f:
            f.write(b"chaos: torn write")
        engine = AcquisitionEngine(directory, SPEC, workers=1)
        engine.run()
        assert not os.path.exists(stale)
        assert engine.outcome == "clean"


FLEET = EnrollmentSpec(tags=40, shard_size=20, seed=5)
INLINE = RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0)


def _acquire(directory, fleet_dir, chaos):
    AcquisitionEngine(directory, SPEC, workers=1, retry_policy=INLINE,
                      chaos=chaos).run()
    return TraceStore.shard_filenames(1)


def _enroll(directory, fleet_dir, chaos):
    enroll_fleet(directory, FLEET, workers=1, chaos=chaos, policy=INLINE)
    return (FLEET.shard_filename(1),)


def _server_soak(directory, fleet_dir, chaos):
    spec = SoakSpec(enrollment_digest=FLEET.digest(), store_dir=fleet_dir,
                    sessions=4, cohorts=2, seed=3)
    run_soak(directory, spec, workers=1, chaos=chaos, policy=INLINE)
    return ("cohort-00001.json",)


def _attack_soak(directory, fleet_dir, chaos):
    run_attack_soak(directory, AttackSpec(sessions=4, cohorts=2, seed=3),
                    workers=1, chaos=chaos, policy=INLINE)
    return ("cohort-00001.json",)


class TestOneInjector:
    """Every supervised family gets its faults from the supervisor's
    one injector, so one fault config means the same thing to all."""

    @pytest.fixture(scope="class")
    def fleet_dir(self, tmp_path_factory):
        directory = str(tmp_path_factory.mktemp("fleet"))
        assert enroll_fleet(directory, FLEET, workers=1).complete
        return directory

    @pytest.mark.parametrize("family", [_acquire, _enroll, _server_soak,
                                        _attack_soak],
                             ids=["acquire", "enroll", "server-soak",
                                  "attack-soak"])
    @pytest.mark.parametrize("fault,kind", [("error", DETERMINISTIC),
                                            ("corrupt", DATA_INTEGRITY)])
    def test_fault_quarantines_only_its_index(self, tmp_path, fleet_dir,
                                              family, fault, kind):
        clean_dir = str(tmp_path / "clean")
        chaos_dir = str(tmp_path / fault)
        family(clean_dir, fleet_dir, None)
        chaos = ChaosConfig(only_shards=(0,), **{f"{fault}_rate": 1.0})
        names = family(chaos_dir, fleet_dir, chaos)
        entries = Quarantine(chaos_dir).entries()
        assert {index: entry["kind"] for index, entry in entries.items()} \
            == {0: kind}
        for name in names:
            with open(os.path.join(chaos_dir, name), "rb") as chaotic, \
                    open(os.path.join(clean_dir, name), "rb") as clean:
                assert chaotic.read() == clean.read()
