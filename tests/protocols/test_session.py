"""Tests for the resilient session layer over the lossy channel."""

import dataclasses
import random

import pytest

from repro.channel import LossProfile
from repro.ec.curves import TOY_B17
from repro.protocols import NonceConsumedError, NoncePendingError
from repro.protocols.fleet import FleetSpec, run_fleet
from repro.protocols.session import (
    MutualAuthAdapter,
    PROTOCOL_NAMES,
    PeetersHermansAdapter,
    RetransmissionPolicy,
    make_adapter,
    run_resilient_session,
)

LOSSY = LossProfile(frame_loss=0.15, duplicate_rate=0.1, reorder_rate=0.1,
                    bit_error_rate=2e-4)


def run_one(protocol="peeters-hermans", profile=None, seed=0, index=0,
            policy=None):
    adapter = make_adapter(protocol, TOY_B17, seed=seed,
                          session_index=index)
    return adapter, run_resilient_session(
        adapter, profile if profile is not None else LossProfile(),
        policy, seed=seed, session_index=index)


class TestLosslessBaseline:
    @pytest.mark.parametrize("protocol", PROTOCOL_NAMES)
    def test_three_frames_one_epoch(self, protocol):
        __, result = run_one(protocol)
        assert result.completed and result.accepted
        assert result.epochs_used == 1
        assert result.frames_sent == 3
        assert result.retransmissions == 0
        assert result.rounds_completed == 3

    def test_identity_recovered(self):
        __, result = run_one("peeters-hermans", index=4)
        assert result.identity == 5  # make_adapter registers index + 1

    def test_every_bit_is_charged(self):
        adapter, result = run_one("peeters-hermans")
        assert result.initiator_ops.tx_bits == \
            result.channel_stats.bits_sent - result.responder_ops.tx_bits
        assert result.initiator_ops.tx_bits > 0
        assert result.responder_ops.rx_bits > 0
        assert result.initiator_energy.total_j > 0

    def test_paper_workload_preserved(self):
        """The loss layer must not change the tag's crypto workload
        when nothing is lost: two PM, one modmul (Section 4)."""
        adapter, result = run_one("peeters-hermans")
        assert result.initiator_ops.point_multiplications == 2
        assert result.initiator_ops.modular_multiplications == 1


class TestDeterminism:
    def test_identical_runs_are_byte_identical(self):
        results = []
        for _ in range(2):
            __, result = run_one(profile=LOSSY, seed=31, index=9)
            results.append(result)
        first, second = results
        assert first.transcript_digest == second.transcript_digest
        assert first.events == second.events
        assert first.frames_sent == second.frames_sent
        assert first.initiator_energy == second.initiator_energy
        assert first.elapsed_s == second.elapsed_s

    def test_seed_changes_the_run(self):
        __, a = run_one(profile=LOSSY, seed=1, index=0)
        __, b = run_one(profile=LOSSY, seed=2, index=0)
        assert a.transcript_digest != b.transcript_digest


class TestRetransmissionAndNonces:
    def test_loss_forces_fresh_epochs_never_nonce_reuse(self):
        """Under heavy loss the session retries with fresh commits;
        the tag's s is emitted at most once per epoch."""
        found_retry = False
        for index in range(30):
            adapter, result = run_one(
                profile=LossProfile(frame_loss=0.4), seed=17, index=index)
            responses = [e for e in result.events if "tx tag s " in e]
            epochs_with_s = {e.split("epoch=")[1].split()[0]
                             for e in responses}
            # one response frame per epoch, never two
            assert len(responses) == len(epochs_with_s)
            if result.epochs_used > 1:
                found_retry = True
        assert found_retry

    def test_second_respond_raises_nonce_consumed(self):
        adapter = make_adapter("peeters-hermans", TOY_B17, seed=3)
        rng = random.Random(0)
        adapter.tag.commit(rng)
        adapter.tag.respond(5, rng)
        with pytest.raises(NonceConsumedError):
            adapter.tag.respond(5, rng)

    def test_commit_over_pending_nonce_raises(self):
        adapter = make_adapter("peeters-hermans", TOY_B17, seed=3)
        rng = random.Random(0)
        adapter.tag.commit(rng)
        with pytest.raises(NoncePendingError):
            adapter.tag.commit(rng)
        adapter.tag.abort()
        adapter.tag.commit(rng)  # abort() makes a fresh commit legal

    def test_duplicates_counted_as_replays(self):
        profile = LossProfile(duplicate_rate=1.0)
        __, result = run_one(profile=profile, seed=5)
        assert result.accepted
        assert result.replay_rejections + result.stale_rejections > 0

    def test_corrupt_frames_counted(self):
        # ~14% of 19-byte frames take a bit error at this BER: enough
        # corruption to observe, not enough to exhaust the epoch budget
        profile = LossProfile(bit_error_rate=1e-3)
        saw_corruption = False
        for index in range(10):
            __, result = run_one(profile=profile, seed=23, index=index)
            assert result.accepted
            if result.corrupt_rejections:
                saw_corruption = True
        assert saw_corruption


class TestAbort:
    def test_abort_reports_progress(self):
        """A hopeless channel aborts gracefully with the phase."""
        policy = RetransmissionPolicy(max_epochs=2)
        profile = LossProfile(frame_loss=0.97)
        __, result = run_one(profile=profile, policy=policy, seed=40)
        assert not result.completed and not result.accepted
        assert result.aborted_phase is not None
        assert result.epochs_used == 2
        assert result.rounds_completed < 3
        # the tag paid for every doomed transmission
        assert result.initiator_ops.tx_bits > 0

    def test_impostor_server_concludes_not_retries(self):
        """Mutual auth: a wrong-key server is a *conclusion* (early
        abort per the paper), not a channel failure to retry."""
        key = bytes(range(16))
        from repro.protocols import SymmetricDevice, SymmetricServer

        adapter = MutualAuthAdapter(SymmetricDevice(key),
                                    SymmetricServer(key),
                                    server_is_impostor=True)
        result = run_resilient_session(adapter, LossProfile(), seed=8)
        assert result.completed
        assert not result.accepted
        assert "server authentication failed" in result.detail
        assert result.epochs_used == 1  # no pointless retries


class TestPolicyValidation:
    def test_bad_policies_rejected(self):
        with pytest.raises(ValueError):
            RetransmissionPolicy(max_epochs=0)
        with pytest.raises(ValueError):
            RetransmissionPolicy(max_epochs=256)
        with pytest.raises(ValueError):
            RetransmissionPolicy(round_deadline_s=0)
        with pytest.raises(ValueError):
            RetransmissionPolicy(max_frame_attempts=0)

    def test_backoff_is_capped_and_jittered(self):
        policy = RetransmissionPolicy(backoff_base_s=0.01,
                                      backoff_cap_s=0.05)
        delays = [policy.epoch_backoff(1, 2, epoch) for epoch in range(10)]
        assert all(d <= 0.05 for d in delays)
        assert len(set(delays)) > 1  # jitter varies per epoch

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError):
            make_adapter("rot13", TOY_B17)
        with pytest.raises(ValueError):
            make_adapter("schnorr", None)

    def test_fleet_spec_validation(self):
        with pytest.raises(ValueError):
            FleetSpec(protocol="rot13")
        with pytest.raises(ValueError):
            FleetSpec(sessions=0)
        with pytest.raises(ValueError):
            FleetSpec(sweep=())
        with pytest.raises(ValueError):
            FleetSpec(sweep=(1.0,))
        # Points are keyed by loss rate: a repeated rate would run and
        # count every session twice.
        with pytest.raises(ValueError, match="repeats a loss rate"):
            FleetSpec(sessions=3, sweep=(0.1, 0.1))


class TestEnergyAccounting:
    def test_retries_cost_microjoules(self):
        """The same session under loss costs strictly more tag energy."""
        __, clean = run_one(seed=77, index=1)
        adapter = make_adapter("peeters-hermans", TOY_B17, seed=77,
                               session_index=1)
        lossy = run_resilient_session(
            adapter, LossProfile(frame_loss=0.5), seed=77, session_index=1)
        if lossy.frames_sent > clean.frames_sent:
            assert lossy.initiator_energy.total_j > \
                clean.initiator_energy.total_j

    def test_fleet_energy_monotone_in_loss(self):
        spec = FleetSpec(sessions=40, seed=2013, max_epochs=20,
                         sweep=(0.0, 0.1, 0.2))
        report = run_fleet(spec, workers=0)
        assert report.fully_available
        assert report.energy_monotone
        assert report.total_sessions == 120

    def test_fleet_report_is_deterministic_across_worker_counts(self):
        spec = FleetSpec(sessions=16, seed=5, sweep=(0.0, 0.2))
        serial = run_fleet(spec, workers=0)
        parallel = run_fleet(spec, workers=2)
        assert [p.digest() for p in serial.points] == \
            [p.digest() for p in parallel.points]
        assert serial.summary() == parallel.summary()


@pytest.mark.slow
class TestSoak:
    def test_thousand_sessions_at_ten_percent_loss(self):
        """The ISSUE acceptance: >= 1000 seeded sessions at 10% frame
        loss all eventually identify."""
        spec = FleetSpec(sessions=1000, seed=2013, sweep=(0.10,))
        report = run_fleet(spec)
        point = report.points[0]
        assert point.sessions == 1000
        assert point.availability == 1.0
        assert point.total_retransmissions > 0

    def test_sweep_energy_strictly_increases(self):
        spec = FleetSpec(sessions=300, seed=2013)
        report = run_fleet(spec)
        assert report.energy_monotone
