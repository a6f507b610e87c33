"""Supervisor recovery matrix: retry, backoff, quarantine, logging.

Everything here runs the supervisor *inline* (workers=1) with injected
flaky tasks, so the retry/quarantine/logging policy is exercised
without spawning a single process; the process-mode half of the matrix
(crashes, hangs, watchdog kills) lives in ``test_chaos.py``.
"""

import hashlib
import json
import os
import time

import pytest

from repro.campaign import (
    DATA_INTEGRITY,
    DETERMINISTIC,
    TRANSIENT,
    AcquisitionEngine,
    CampaignError,
    CampaignSpec,
    ChaosConfig,
    FailureLog,
    PartialStoreError,
    Quarantine,
    RetryPolicy,
    ScheduleMismatchError,
    ShardSupervisor,
    TraceStore,
    classify_exception,
)
from repro.campaign.acquire import acquire_shard
from repro.campaign.supervisor import FailureEvent

SPEC = CampaignSpec(n_traces=4, shard_size=2, scenario="unprotected",
                    max_iterations=2, seed=21, noise_sigma=38.0)

FAST = RetryPolicy(base_delay=0.0, jitter=0.0)


class TestClassification:
    def test_environment_errors_are_transient(self):
        for name in ("OSError", "TimeoutError", "ConnectionResetError",
                     "BrokenPipeError", "MemoryError"):
            assert classify_exception(name) == TRANSIENT

    def test_task_errors_are_deterministic(self):
        for name in ("ValueError", "ChaosInjectedError", "KeyError", ""):
            assert classify_exception(name) == DETERMINISTIC


class TestCampaignError:
    def test_carries_shard_and_spec_context(self):
        err = CampaignError("boom", shard_index=3,
                            spec_digest="cafe0123", kind=DATA_INTEGRITY)
        assert "shard 3" in str(err)
        assert "cafe0123" in str(err)
        assert err.shard_index == 3
        assert err.kind == DATA_INTEGRITY

    def test_subclasses_are_campaign_errors(self):
        assert issubclass(ScheduleMismatchError, CampaignError)
        assert issubclass(PartialStoreError, CampaignError)
        assert issubclass(CampaignError, RuntimeError)


class TestRetryPolicy:
    def test_deterministic_budget_is_smaller(self):
        policy = RetryPolicy()
        assert policy.attempts_for(DETERMINISTIC) == 2
        assert policy.attempts_for(TRANSIENT) == 4
        assert policy.attempts_for(DATA_INTEGRITY) == 4

    def test_backoff_doubles_and_caps(self):
        policy = RetryPolicy(base_delay=1.0, max_delay=5.0, jitter=0.0)
        assert policy.delay(0) == 1.0
        assert policy.delay(1) == 2.0
        assert policy.delay(2) == 4.0
        assert policy.delay(3) == 5.0   # capped
        assert policy.delay(10) == 5.0

    def test_jitter_is_bounded_and_deterministic(self):
        policy = RetryPolicy(base_delay=1.0, jitter=0.25)
        first = policy.delay(1, shard_index=7, seed=9)
        again = policy.delay(1, shard_index=7, seed=9)
        assert first == again
        assert 2.0 * 0.75 <= first <= 2.0 * 1.25
        # Different shards desynchronize.
        assert first != policy.delay(1, shard_index=8, seed=9)

    def test_rejects_bad_budgets(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-1.0)


class TestFailureLog:
    def _event(self, **overrides):
        base = dict(shard_index=2, attempt=1, kind=TRANSIENT,
                    reason="synthetic", action="retry",
                    delay_seconds=0.5, wall_time=123.0,
                    spec_digest="abcd")
        base.update(overrides)
        return FailureEvent(**base)

    def test_events_roundtrip(self, tmp_path):
        log = FailureLog(str(tmp_path))
        log.append(self._event())
        log.append(self._event(attempt=3, action="quarantine",
                               kind=DETERMINISTIC))
        events = log.events()
        assert [e["attempt"] for e in events] == [1, 3]
        assert events[0]["shard"] == 2
        assert events[0]["spec_digest"] == "abcd"
        tally = log.tally()
        assert tally["retries"] == 1
        assert tally["quarantines"] == 1
        assert tally["by_kind"] == {TRANSIENT: 1, DETERMINISTIC: 1}

    def test_every_line_is_valid_json(self, tmp_path):
        log = FailureLog(str(tmp_path))
        for attempt in range(3):
            log.append(self._event(attempt=attempt))
        with open(log.path) as f:
            for line in f:
                json.loads(line)

    def test_tolerates_torn_final_line(self, tmp_path):
        log = FailureLog(str(tmp_path))
        log.append(self._event())
        with open(log.path, "a") as f:
            f.write('{"shard": 9, "attempt"')   # crashed mid-append
        assert len(log.events()) == 1
        assert log.tally()["retries"] == 1

    def test_event_after_a_torn_line_starts_a_fresh_line(self, tmp_path):
        log = FailureLog(str(tmp_path))
        with open(log.path, "w") as f:
            f.write('{"shard": 9, "attempt"')   # crashed mid-append
        log.append(self._event())
        log.append(self._event(attempt=2))
        assert [(e["shard"], e["attempt"]) for e in log.events()] == \
            [(2, 1), (2, 2)]
        with open(log.path) as f:
            assert f.read().count("\n") == 3

    def test_skips_an_undecodable_line_before_later_events(self, tmp_path):
        log = FailureLog(str(tmp_path))
        with open(log.path, "w") as f:
            f.write('{"shard": 9, "attempt"\n')
        log.append(self._event())
        assert [e["shard"] for e in log.events()] == [2]

    @pytest.mark.parametrize("line, problem", [
        ("5", "must be a JSON object, got int"),
        ("[1, 2]", "must be a JSON object, got list"),
        ('"retry"', "must be a JSON object, got str"),
        ("null", "must be a JSON object, got NoneType"),
        ('{"shard": 1}', "'attempt' must be int"),
        ('{"shard": "1", "attempt": 0, "kind": "transient", '
         '"reason": "r", "action": "retry"}', "'shard' must be int"),
        ('{"shard": 1, "attempt": 0, "kind": "transient", '
         '"reason": 7, "action": "retry"}', "'reason' must be str"),
    ], ids=["int", "list", "string", "null", "missing-attempt",
            "str-shard", "int-reason"])
    def test_non_event_line_raises_naming_the_line(self, tmp_path, line,
                                                   problem):
        log = FailureLog(str(tmp_path))
        log.append(self._event())
        with open(log.path, "a") as f:
            f.write(line + "\n")
        log.append(self._event())
        with pytest.raises(CampaignError) as info:
            log.events()
        assert f"{log.path} line 2" in str(info.value)
        assert problem in str(info.value)
        with pytest.raises(CampaignError):
            log.tally()


class TestQuarantine:
    def test_persists_across_instances(self, tmp_path):
        Quarantine(str(tmp_path)).add(4, kind=TRANSIENT,
                                      reason="kept failing", attempts=4)
        fresh = Quarantine(str(tmp_path))
        assert fresh.indices() == [4]
        entry = fresh.entries()[4]
        assert entry["kind"] == TRANSIENT
        assert entry["attempts"] == 4

    def test_clear_releases_and_removes_file(self, tmp_path):
        quarantine = Quarantine(str(tmp_path))
        quarantine.add(1, kind=DETERMINISTIC, reason="r", attempts=2)
        quarantine.add(3, kind=TRANSIENT, reason="r", attempts=4)
        assert quarantine.clear() == [1, 3]
        assert not os.path.exists(quarantine.path)
        assert Quarantine(str(tmp_path)).entries() == {}

    @pytest.mark.parametrize("text, problem", [
        ("[1]", "must hold a JSON object, got list"),
        ("5", "must hold a JSON object, got int"),
        ('{"shards": [1]}', "'shards' must be an object"),
        ('{"shards": 5}', "'shards' must be an object"),
        ('{"shards": {"x": {"kind": "transient", "reason": "r", '
         '"attempts": 1}}}', "shard key 'x' is not an index"),
        ('{"shards": {"1": 5}}', "shard 1 must be a JSON object, got int"),
        ('{"shards": {"1": {"kind": "transient", "reason": "r"}}}',
         "shard 1: 'attempts' must be int"),
        ('{"shards": {"1": {"kind": 3, "reason": "r", "attempts": 1}}}',
         "shard 1: 'kind' must be str"),
        ('{"shards": ', "quarantine.json: Expecting value"),
    ], ids=["list-root", "int-root", "list-shards", "int-shards", "str-key",
            "int-entry", "missing-attempts", "int-kind", "truncated"])
    def test_malformed_file_raises_naming_it(self, tmp_path, text, problem):
        quarantine = Quarantine(str(tmp_path))
        with open(quarantine.path, "w") as f:
            f.write(text)
        with pytest.raises(CampaignError) as info:
            quarantine.entries()
        assert quarantine.path in str(info.value)
        assert problem in str(info.value)
        with pytest.raises(CampaignError):
            quarantine.indices()


class TestInlineSupervision:
    def _run(self, tmp_path, task, policy=FAST, chaos=None):
        store = TraceStore(str(tmp_path))
        store.initialize(SPEC)
        records = []
        supervisor = ShardSupervisor(
            SPEC, str(tmp_path), task, workers=1, policy=policy,
            chaos=chaos, on_success=lambda record, attempt:
            records.append((record["index"], attempt)),
        )
        outcome = supervisor.run(store.missing_shards())
        return supervisor, outcome, records

    def test_inline_retry_waits_out_its_backoff(self, tmp_path):
        starts = {0: [], 1: []}

        def flaky(spec, directory, shard):
            starts[shard].append(time.monotonic())
            if shard == 0 and len(starts[0]) == 1:
                raise OSError("injected transient failure")
            return _honest_cell(spec, directory, shard)

        # Shard 1 is quick, so the loop runs out of ready work and
        # must sleep until shard 0's retry is due.
        policy = RetryPolicy(base_delay=0.05, jitter=0.0)
        _, outcome, _ = self._run(tmp_path, flaky, policy=policy)
        assert sorted(outcome.completed) == [0, 1]
        assert len(starts[0]) == 2
        assert starts[0][1] - starts[0][0] >= 0.05

    def test_transient_failure_is_retried_to_success(self, tmp_path):
        failed = []

        def flaky(spec, directory, shard):
            if shard == 1 and not failed:
                failed.append(shard)
                raise OSError("injected transient failure")
            return acquire_shard(spec, directory, shard)

        supervisor, outcome, records = self._run(tmp_path, flaky)
        assert sorted(outcome.completed) == [0, 1]
        assert outcome.quarantined == []
        assert outcome.retried_attempts == 1
        assert (1, 1) in records       # shard 1 succeeded on attempt 1
        events = supervisor.failure_log.events()
        assert len(events) == 1
        assert events[0]["kind"] == TRANSIENT
        assert events[0]["action"] == "retry"

    def test_persistent_deterministic_failure_quarantines(self, tmp_path):
        def broken(spec, directory, shard):
            if shard == 0:
                raise ValueError("this shard can never work")
            return acquire_shard(spec, directory, shard)

        supervisor, outcome, records = self._run(tmp_path, broken)
        assert outcome.completed == [1]
        assert outcome.quarantined == [0]
        # Deterministic budget: 2 attempts = 1 retry + 1 quarantine.
        actions = [e["action"] for e in supervisor.failure_log.events()]
        assert actions == ["retry", "quarantine"]
        assert supervisor.quarantine.indices() == [0]

    def test_cleared_quarantine_allows_recovery(self, tmp_path):
        state = {"healed": False}

        def healing(spec, directory, shard):
            if shard == 0 and not state["healed"]:
                raise ValueError("still broken")
            return acquire_shard(spec, directory, shard)

        supervisor, outcome, _ = self._run(tmp_path, healing)
        assert outcome.quarantined == [0]
        assert supervisor.quarantine.clear() == [0]
        state["healed"] = True
        supervisor, outcome, _ = self._run(tmp_path, healing)
        assert 0 in outcome.completed

    def test_clean_rerun_releases_the_quarantined_shard(self, tmp_path):
        def broken(spec, directory, shard):
            if shard == 0:
                raise ValueError("this shard can never work")
            return acquire_shard(spec, directory, shard)

        _, outcome, _ = self._run(tmp_path, broken)
        assert outcome.quarantined == [0]
        assert Quarantine(str(tmp_path)).indices() == [0]
        _, outcome, _ = self._run(tmp_path, acquire_shard)
        assert 0 in outcome.completed
        assert Quarantine(str(tmp_path)).indices() == []

    def test_corruption_is_caught_and_quarantined(self, tmp_path):
        # corrupt_rate=1.0 fires on every attempt: the worker's own
        # digests are computed before the flip, so only the
        # supervisor's independent re-hash can catch it.
        chaos = ChaosConfig(seed=1, corrupt_rate=1.0, only_shards=(0,))
        policy = RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0)
        supervisor, outcome, _ = self._run(tmp_path, acquire_shard,
                                           policy=policy, chaos=chaos)
        assert outcome.completed == [1]
        assert outcome.quarantined == [0]
        kinds = {e["kind"] for e in supervisor.failure_log.events()}
        assert kinds == {DATA_INTEGRITY}

    def test_crash_chaos_refuses_inline_mode(self, tmp_path):
        with pytest.raises(ValueError, match="worker processes"):
            ShardSupervisor(SPEC, str(tmp_path), acquire_shard, workers=1,
                            chaos=ChaosConfig(crash_rate=0.5))

    def test_events_reach_the_observer(self, tmp_path):
        seen = []
        tried = set()

        def flaky(spec, directory, shard):
            if shard not in tried:
                tried.add(shard)
                raise OSError("first attempt always fails")
            return acquire_shard(spec, directory, shard)

        store = TraceStore(str(tmp_path))
        store.initialize(SPEC)
        ShardSupervisor(SPEC, str(tmp_path), flaky, workers=1, policy=FAST,
                        on_event=seen.append).run([0, 1])
        assert len(seen) == 2
        assert all(isinstance(e, FailureEvent) for e in seen)
        assert all(e.action == "retry" for e in seen)


def _write_cell(directory, shard):
    relpath = os.path.join("cells", f"{shard}.json")
    payload = json.dumps({"cell": shard}).encode()
    path = os.path.join(directory, relpath)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "wb") as f:
        f.write(payload)
    return relpath, payload


def _honest_cell(spec, directory, shard):
    """A task that writes one cell and reports its true digest."""
    relpath, payload = _write_cell(directory, shard)
    return {"index": shard,
            "artifacts": [[relpath, hashlib.sha256(payload).hexdigest()]]}


class TestTmpSweep:
    """Each run sweeps the directory's top-level ``*.tmp`` débris
    before its first attempt and after its last."""

    def test_rerun_of_a_complete_campaign_clears_debris(self, tmp_path):
        AcquisitionEngine(str(tmp_path), SPEC, workers=1).run()
        stale = tmp_path / "shard-00000.samples.npy.tmp"
        stale.write_bytes(b"torn write debris")

        engine = AcquisitionEngine(str(tmp_path), SPEC, workers=1)
        engine.run()
        assert engine.metrics.acquired_shards == 0   # nothing pending
        assert not stale.exists()
        # The sweep touched only the débris; the store still verifies.
        TraceStore(str(tmp_path)).load().verify_all()

    def test_failed_inline_attempt_leaves_no_tmp(self, tmp_path):
        tried = []

        def torn(spec, directory, shard):
            tried.append(shard)
            if len(tried) == 1:
                (tmp_path / "x.tmp").write_bytes(b"torn write")
                raise OSError("killed mid-write")
            return _honest_cell(spec, directory, shard)

        outcome = ShardSupervisor(SPEC, str(tmp_path), torn, workers=1,
                                  policy=FAST).run([0])
        assert outcome.completed == [0]
        assert outcome.retried_attempts == 1
        assert list(tmp_path.glob("*.tmp")) == []


class TestExplicitArtifacts:
    """Every record lists its files as ``artifacts``; the supervisor
    re-hashes each one before it accepts the record, whatever task
    wrote it."""

    def _supervise(self, tmp_path, task):
        records = []
        supervisor = ShardSupervisor(
            SPEC, str(tmp_path), task, workers=1,
            policy=RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0),
            on_success=lambda record, attempt: records.append(record),
        )
        outcome = supervisor.run([0])
        return supervisor, outcome, records

    def test_honest_artifacts_are_accepted(self, tmp_path):
        _, outcome, records = self._supervise(tmp_path, _honest_cell)
        assert outcome.completed == [0]
        assert outcome.quarantined == []
        assert len(records) == 1

    def test_mismatched_digest_is_data_integrity(self, tmp_path):
        def lying(spec, directory, shard):
            relpath, _ = _write_cell(directory, shard)
            wrong = hashlib.sha256(b"not what was written").hexdigest()
            return {"index": shard, "artifacts": [[relpath, wrong]]}

        supervisor, outcome, records = self._supervise(tmp_path, lying)
        assert records == []
        assert outcome.quarantined == [0]
        events = supervisor.failure_log.events()
        assert all(e["kind"] == DATA_INTEGRITY for e in events)
        assert "does not match" in events[-1]["reason"]

    def test_vanished_artifact_is_data_integrity(self, tmp_path):
        def ghost(spec, directory, shard):
            digest = hashlib.sha256(b"never written").hexdigest()
            return {"index": shard,
                    "artifacts": [["cells/ghost.json", digest]]}

        supervisor, outcome, _ = self._supervise(tmp_path, ghost)
        assert outcome.quarantined == [0]
        events = supervisor.failure_log.events()
        assert all(e["kind"] == DATA_INTEGRITY for e in events)
        assert "vanished" in events[-1]["reason"]
