"""Tests for the attack engine: each adversary, each defense, and the
ISSUE's acceptance criterion (undefended drain vs defended service)."""

import pytest

from repro.adversary import (
    ADVERSARY_NAMES,
    AdversaryError,
    EnergyBudget,
    defense_config,
    run_attack_session,
)
from repro.adversary.engine import _AttackSession
from repro.channel import BodyAreaChannel, Frame, LossProfile, int_to_bytes
from repro.protocols.session import RetransmissionPolicy

SEED = 7
LOSSY = LossProfile(frame_loss=0.1)


def run(kind, defense="none", *, session_index=3, profile=None, **kwargs):
    return run_attack_session(
        kind, defense=defense_config(defense),
        profile=profile if profile is not None else LOSSY,
        seed=SEED, session_index=session_index, **kwargs)


class TestDeterminism:
    @pytest.mark.parametrize("kind", ADVERSARY_NAMES + ("legit",))
    def test_same_inputs_same_result(self, kind):
        a = run(kind, "full")
        b = run(kind, "full")
        assert a == b

    def test_session_index_decorrelates(self):
        assert run("amplification").tag_uj != \
            run("amplification", session_index=4).tag_uj


class TestAdversaries:
    def test_unknown_kind(self):
        with pytest.raises(AdversaryError, match="unknown session kind"):
            run("evil-twin")

    def test_bogus_flood_never_earns_a_response(self):
        result = run("bogus-flood")
        assert result.responses_emitted == 0
        assert result.outcome == "aborted"
        assert result.tag_uj > 0  # commits still cost the tag

    def test_replay_flood_is_rejected_not_answered(self):
        result = run("replay-flood")
        # Every exact replay into the live epoch bounced off the
        # nonce-single-use rule; the stale captures bounced as stale.
        assert result.replay_rejections > 0
        assert result.stale_rejections > 0
        # At most one response per epoch: no nonce ever answered twice.
        assert result.responses_emitted <= result.epochs_used

    def test_amplification_burns_epochs(self):
        result = run("amplification")
        assert result.epochs_used > 1
        assert result.responses_emitted >= 1
        assert result.amplification > 1.0

    def test_abandonment_strands_the_tag(self):
        result = run("abandonment")
        assert result.outcome == "aborted"
        assert result.responses_emitted <= 1

    def test_legit_session_completes(self):
        result = run("legit")
        assert result.outcome == "accepted"
        assert result.epochs_used >= 1


class TestDefenses:
    def test_wake_gating_refuses_before_protocol_work(self):
        undefended = run("amplification")
        gated = run("amplification", "wake-gating")
        assert gated.outcome == "refused"
        assert gated.wake_refusals > 0
        assert gated.responses_emitted == 0
        # The refused flood cost the tag only wake-receiver listens.
        assert gated.tag_uj < undefended.tag_uj / 100
        assert gated.tag_uj < gated.adversary_uj

    def test_legit_passes_the_wake_gate(self):
        result = run("legit", "wake-gating")
        assert result.outcome == "accepted"
        assert result.wake_refusals == 0

    def test_backoff_caps_epochs(self):
        cfg = defense_config("backoff")
        result = run("amplification", "backoff")
        assert result.epochs_used <= cfg.max_session_epochs
        assert result.epochs_used < run("amplification").epochs_used

    def test_budget_cap_bounds_the_window(self):
        cfg = defense_config("budget-cap")
        budget = EnergyBudget(cfg.budget_cap_uj, cfg.budget_window_s)
        result = run_attack_session(
            "amplification", defense=cfg, profile=LossProfile(),
            seed=SEED, session_index=3, budget=budget)
        assert result.outcome == "budget_exhausted"
        assert result.budget_refusals > 0
        assert budget.peak_window_uj <= cfg.budget_cap_uj
        assert result.tag_uj <= cfg.budget_cap_uj * 1.01


class TestChallengeValidation:
    def test_bad_challenge_is_rejected_before_any_charge(self):
        """A challenge outside [1, n) is a payload rejection that costs
        the tag nothing: the respond() charge is never made, so the
        budget's peak never records energy that was not spent."""
        cfg = defense_config("budget-cap")
        budget = cfg.budget()
        engine = _AttackSession(
            "bogus-flood", cfg, BodyAreaChannel(LossProfile(), seed=SEED,
                                                session=3),
            RetransmissionPolicy(), SEED, 3, budget=budget)
        engine._start_epoch()  # powered up: commit R sent, awaiting e

        def challenge(e):
            engine._initiator_frame(Frame(
                engine.session_id, engine.epoch, 1, 0, 1, "e",
                int_to_bytes(e, engine._scalar_width)))

        spent = (engine.tag_uj, budget.window_spent_uj,
                 budget.peak_window_uj)
        for e in (0, engine.domain.scalar_ring.n):
            challenge(e)
        assert engine.payload_rejected == 2
        assert engine.responses_emitted == 0
        assert (engine.tag_uj, budget.window_spent_uj,
                budget.peak_window_uj) == spent
        # The nonce is still live: an in-range challenge is answered.
        challenge(1)
        assert engine.responses_emitted == 1
        assert budget.peak_window_uj == budget.window_spent_uj > spent[1]


class TestAcceptanceCriterion:
    """ISSUE: under a seeded replay+amplification flood the undefended
    tag drains past the budget; the defended tag refuses the flood and
    still completes legitimate sessions with bounded spend."""

    def test_undefended_drains_defended_serves(self):
        cap_uj = defense_config("budget-cap").budget_cap_uj
        undefended = 0.0
        for index, kind in enumerate(
                ("replay-flood", "amplification", "replay-flood",
                 "amplification")):
            undefended += run(kind, session_index=index).tag_uj
        assert undefended > 2 * cap_uj

        cfg = defense_config("full")
        budget = EnergyBudget(cfg.budget_cap_uj, cfg.budget_window_s)
        flood_uj = 0.0
        for index, kind in enumerate(
                ("replay-flood", "amplification", "replay-flood",
                 "amplification")):
            result = run_attack_session(
                kind, defense=cfg, profile=LOSSY, seed=SEED,
                session_index=index, budget=budget)
            assert result.outcome == "refused"
            flood_uj += result.tag_uj
        legit = run_attack_session(
            "legit", defense=cfg, profile=LOSSY, seed=SEED,
            session_index=9, budget=budget)
        assert legit.outcome == "accepted"
        assert flood_uj < cap_uj / 10
        assert budget.peak_window_uj <= cfg.budget_cap_uj
