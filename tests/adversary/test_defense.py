"""Tests for the defense layer: budget, wake gating, named postures."""

import pytest

from repro.adversary import (
    DEFENSE_SETS,
    BudgetExhaustedError,
    DefenseConfig,
    DefenseConfigError,
    EnergyBudget,
    WakeUpRadio,
    defense_config,
)


class TestDefenseConfig:
    def test_named_sets_all_resolve(self):
        for name in DEFENSE_SETS:
            cfg = defense_config(name)
            assert cfg.name == name
            assert DefenseConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_name(self):
        with pytest.raises(DefenseConfigError, match="unknown defense"):
            defense_config("belt-and-braces")

    def test_overrides(self):
        cfg = defense_config("budget-cap", budget_cap_uj=42.0)
        assert cfg.budget_cap_uj == 42.0
        assert cfg.budget_window_s == \
            DEFENSE_SETS["budget-cap"]["budget_window_s"]

    def test_validation(self):
        with pytest.raises(DefenseConfigError):
            DefenseConfig(budget_cap_uj=-1.0)
        with pytest.raises(DefenseConfigError):
            DefenseConfig(budget_window_s=0.0)
        with pytest.raises(DefenseConfigError):
            DefenseConfig(restart_backoff_scale=0.5)
        with pytest.raises(DefenseConfigError):
            DefenseConfig(max_session_epochs=-1)

    def test_budget_factory(self):
        assert defense_config("none").budget() is None
        budget = defense_config("budget-cap").budget()
        assert budget is not None
        assert budget.cap_uj == DEFENSE_SETS["budget-cap"]["budget_cap_uj"]


class TestEnergyBudget:
    def test_charges_accumulate_within_cap(self):
        budget = EnergyBudget(cap_uj=10.0, window_s=1.0)
        budget.charge(4.0, now=0.0)
        budget.charge(5.0, now=0.5)
        assert budget.window_spent_uj == pytest.approx(9.0)
        assert budget.total_spent_uj == pytest.approx(9.0)
        assert budget.peak_window_uj == pytest.approx(9.0)

    def test_refusal_is_all_or_nothing(self):
        budget = EnergyBudget(cap_uj=10.0, window_s=1.0)
        budget.charge(9.0, now=0.0)
        with pytest.raises(BudgetExhaustedError) as excinfo:
            budget.charge(2.0, now=0.1)
        # The refused charge spent nothing.
        assert budget.window_spent_uj == pytest.approx(9.0)
        assert budget.total_spent_uj == pytest.approx(9.0)
        assert budget.refusals == 1
        assert excinfo.value.cap_uj == 10.0
        assert excinfo.value.spent_uj == pytest.approx(9.0)

    def test_window_roll_resets_spend(self):
        budget = EnergyBudget(cap_uj=10.0, window_s=1.0)
        budget.charge(9.0, now=0.0)
        budget.charge(9.0, now=1.5)  # next window
        assert budget.window_spent_uj == pytest.approx(9.0)
        assert budget.total_spent_uj == pytest.approx(18.0)

    def test_rejects_bad_values(self):
        with pytest.raises(DefenseConfigError):
            EnergyBudget(cap_uj=0.0)
        budget = EnergyBudget(cap_uj=1.0)
        with pytest.raises(DefenseConfigError):
            budget.charge(-0.1, now=0.0)

    def test_spend_exactly_at_cap_succeeds(self):
        budget = EnergyBudget(cap_uj=10.0, window_s=1.0)
        budget.charge(10.0, now=0.0)
        assert budget.window_spent_uj == pytest.approx(10.0)
        assert budget.refusals == 0

    def test_exact_remaining_after_float_accumulation(self):
        # 100 charges of 0.1 then the exact remainder: the running sum
        # is one ulp off 10.0, which must not refuse the final spend.
        budget = EnergyBudget(cap_uj=15.0, window_s=1.0)
        for _ in range(100):
            budget.charge(0.1, now=0.0)
        budget.charge(15.0 - budget.window_spent_uj, now=0.0)
        assert budget.refusals == 0
        # ...but any real overshoot beyond the tolerance still refuses.
        with pytest.raises(BudgetExhaustedError):
            budget.charge(0.001, now=0.0)

    def test_window_boundary_is_exact(self):
        # 0.3 / 0.1 rounds to 2.999...96; a clock sitting exactly on a
        # window boundary must open the new window, not extend the old.
        budget = EnergyBudget(cap_uj=1.0, window_s=0.1)
        budget.charge(1.0, now=0.2)
        budget.charge(1.0, now=0.3)  # exact boundary: fresh budget
        assert budget.total_spent_uj == pytest.approx(2.0)
        assert budget.refusals == 0


class TestWakeUpRadio:
    def test_token_is_deterministic(self):
        radio = WakeUpRadio(WakeUpRadio.derive_key(7))
        assert radio.token(3) == radio.token(3)
        assert radio.token(3) != radio.token(4)

    def test_keys_differ_per_seed_and_tag(self):
        assert WakeUpRadio.derive_key(7, 0) != WakeUpRadio.derive_key(7, 1)
        assert WakeUpRadio.derive_key(7, 0) != WakeUpRadio.derive_key(8, 0)

    def test_verify_counts(self):
        radio = WakeUpRadio(WakeUpRadio.derive_key(7))
        forged = WakeUpRadio(b"not-the-key")
        assert radio.verify(5, radio.token(5))
        assert not radio.verify(5, forged.token(5))
        assert not radio.verify(6, radio.token(5))
        assert radio.accepted == 1
        assert radio.rejected == 2

    def test_empty_key_rejected(self):
        with pytest.raises(DefenseConfigError):
            WakeUpRadio(b"")
