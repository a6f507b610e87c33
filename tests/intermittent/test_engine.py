"""Tests for the resume engine: byte-identical outcomes across cuts."""

import pytest

from repro.intermittent import (
    IntermittentSpec,
    PowerCutSchedule,
    PowerSupply,
    ResumeExhaustedError,
    count_nonce_reuse,
    run_intermittent_session,
    run_with_schedule,
)


SPEC = IntermittentSpec(curve="TOY-B17", seed=2013)


def baseline(spec=SPEC, session_index=0):
    """The uninterrupted run every cut schedule must reproduce."""
    return run_with_schedule(spec, session_index, PowerCutSchedule())


class TestStablePower:
    def test_session_accepts(self):
        result = baseline()
        assert result.completed and result.accepted
        assert result.identity == 1
        assert result.power_cycles == 0
        assert result.torn_discards == 0

    def test_energy_decomposition_is_exact(self):
        result = baseline()
        assert result.total_uj == pytest.approx(
            result.checkpoint_uj + result.compute_uj + result.radio_uj)
        assert result.checkpoint_uj > 0
        assert result.compute_uj > 0
        assert result.radio_uj > 0

    def test_naive_tag_pays_no_checkpoint_energy(self):
        result = run_intermittent_session(
            SPEC, supply=PowerSupply(windows=()), durable=False)
        assert result.completed and result.accepted
        assert result.checkpoint_uj == 0.0
        assert result.checkpoints_committed == 0

    def test_naive_tag_draws_its_nonce_once(self):
        """Uninterrupted, the naive tag computes exactly what the
        checkpointing tag does: one nonce draw per power-on."""
        naive = run_intermittent_session(
            SPEC, supply=PowerSupply(windows=()), durable=False)
        assert naive.compute_uj == baseline().compute_uj

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            IntermittentSpec(checkpoint_interval=0)
        with pytest.raises(ValueError):
            IntermittentSpec(max_power_cycles=-1)
        with pytest.raises(KeyError):
            IntermittentSpec(curve="NO-SUCH-CURVE")


class TestResume:
    def test_cut_mid_ladder_resumes_identically(self):
        reference = baseline()
        # One cut landing inside the R ladder, then stable power.
        result = run_with_schedule(SPEC, 0,
                                   PowerCutSchedule.single_cut(2_000))
        assert result.completed and result.accepted
        assert result.power_cycles == 1
        assert result.outcome_digest == reference.outcome_digest
        assert result.steps_wasted > 0

    def test_checkpoint_interval_bounds_reexecution(self):
        fine = IntermittentSpec(checkpoint_interval=1)
        result = run_with_schedule(fine, 0,
                                   PowerCutSchedule.single_cut(4_000))
        assert result.completed
        # With a checkpoint every step at most one step re-executes
        # per cut (plus the step the brownout interrupted).
        assert result.steps_wasted <= 2 * (result.power_cycles + 1)

    def test_power_cycle_budget_aborts_typed(self):
        tiny = IntermittentSpec(max_power_cycles=2)
        # Windows too short to ever reach the first checkpoint.
        schedule = PowerCutSchedule(windows=(600, 600, 600, 600))
        result = run_with_schedule(tiny, 0, schedule)
        assert not result.completed
        assert not result.accepted
        assert "power-cycle budget" in result.abort_reason
        assert result.power_cycles == 3

    def test_abort_reason_matches_typed_error(self):
        with pytest.raises(ResumeExhaustedError):
            raise ResumeExhaustedError("x", power_cycles=3)


class TestOutcomeDigest:
    def test_digest_ignores_duplicate_frames(self):
        """A resumed tag re-sends R; the digest keys on final payloads,
        so retransmissions cannot change it."""
        reference = baseline()
        # Cut right after R-sent: R goes on the wire twice.
        timeline = dict((label, cycle)
                        for cycle, label in reference.timeline)
        cut = PowerCutSchedule.single_cut(timeline["R-sent"] + 1)
        result = run_with_schedule(SPEC, 0, cut)
        assert result.completed
        assert len(result.wire_payloads("R")) >= 1
        assert result.outcome_digest == reference.outcome_digest

    def test_digest_differs_across_sessions(self):
        assert baseline(session_index=0).outcome_digest != \
            baseline(session_index=1).outcome_digest


class TestCountNonceReuse:
    """The ``nonce_reuse`` telemetry counter, on synthetic wires.

    A reuse is one epoch nonce answering two *different* challenges —
    more than one distinct ``s`` payload under one epoch.  Duplicate
    retransmissions of the identical payload are not reuse."""

    def test_two_distinct_s_payloads_same_epoch_is_one_reuse(self):
        wire = [("tag", 3, "s", b"\x01\x02"),
                ("tag", 3, "s", b"\x03\x04")]
        assert count_nonce_reuse(wire) == 1

    def test_byte_identical_retransmission_is_not_reuse(self):
        wire = [("tag", 3, "s", b"\x01\x02"),
                ("tag", 3, "s", b"\x01\x02"),
                ("tag", 3, "s", b"\x01\x02")]
        assert count_nonce_reuse(wire) == 0

    def test_distinct_epochs_are_independent(self):
        wire = [("tag", 3, "s", b"\x01\x02"),
                ("tag", 4, "s", b"\x03\x04")]
        assert count_nonce_reuse(wire) == 0

    def test_non_s_labels_are_ignored(self):
        wire = [("reader", 3, "c", b"\x01"),
                ("reader", 3, "c", b"\x02"),
                ("tag", 3, "R", b"\x03"),
                ("tag", 3, "R", b"\x04")]
        assert count_nonce_reuse(wire) == 0

    def test_real_session_wire_is_clean(self):
        assert count_nonce_reuse(baseline().wire) == 0
