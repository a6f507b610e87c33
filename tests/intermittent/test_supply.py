"""Tests for the seeded supply trajectories and the brownout meter."""

import pytest

from repro.intermittent import (
    SUPPLY_PROFILES,
    PowerLossError,
    PowerSupply,
    SupplyModel,
    SupplySpec,
    SupplySpecError,
    derive_supply_value,
)


class TestDerivation:
    def test_stable_across_calls(self):
        assert derive_supply_value(1, "window/battery", 2, 3) == \
            derive_supply_value(1, "window/battery", 2, 3)

    def test_every_coordinate_matters(self):
        base = derive_supply_value(1, "s", 2, 3)
        assert base != derive_supply_value(2, "s", 2, 3)
        assert base != derive_supply_value(1, "t", 2, 3)
        assert base != derive_supply_value(1, "s", 3, 3)
        assert base != derive_supply_value(1, "s", 2, 4)


class TestSupplySpec:
    def test_validation(self):
        with pytest.raises(SupplySpecError):
            SupplySpec(profile="mains")
        with pytest.raises(SupplySpecError):
            SupplySpec(brownout_fraction=1.0)
        with pytest.raises(SupplySpecError):
            SupplySpec(mean_on_cycles=0)
        with pytest.raises(SupplySpecError):
            SupplySpec(jitter=1.0)
        with pytest.raises(SupplySpecError):
            SupplySpec(cuts=-1)

    def test_brownout_voltage_below_nominal(self):
        spec = SupplySpec()
        assert spec.brownout_vdd < spec.nominal_vdd


class TestSupplyModel:
    def test_stable_profile_has_no_windows(self):
        assert SupplyModel(SupplySpec(profile="stable")).windows() == ()

    @pytest.mark.parametrize("profile", [p for p in SUPPLY_PROFILES
                                         if p != "stable"])
    def test_windows_are_deterministic(self, profile):
        spec = SupplySpec(profile=profile, seed=9, cuts=4)
        assert SupplyModel(spec, 3).windows() == \
            SupplyModel(spec, 3).windows()
        assert SupplyModel(spec, 3).windows() != \
            SupplyModel(spec, 4).windows()

    def test_battery_windows_shrink_on_average(self):
        spec = SupplySpec(profile="battery", battery_decay=0.5,
                          jitter=0.1, cuts=6, seed=1)
        windows = SupplyModel(spec).windows()
        assert windows[-1] < windows[0]


class TestPowerSupply:
    def test_brownout_at_exact_cycle(self):
        supply = PowerSupply(windows=(100,))
        supply.spend(99)
        with pytest.raises(PowerLossError) as excinfo:
            supply.spend(1)
        assert excinfo.value.cycle == 100
        assert supply.cycle == 100

    def test_restart_opens_next_window(self):
        supply = PowerSupply(windows=(10, 20))
        with pytest.raises(PowerLossError):
            supply.spend(10)
        supply.restart()
        assert supply.power_cycles == 1
        supply.spend(19)
        with pytest.raises(PowerLossError):
            supply.spend(5)
        supply.restart()
        assert supply.exhausted
        supply.spend(10 ** 6)  # stable forever after the schedule

    def test_survivable_leaves_one_cycle(self):
        supply = PowerSupply(windows=(10,))
        assert supply.survivable(100) == 9
        assert supply.survivable(4) == 4
        supply.restart()
        assert supply.survivable(100) == 100

    def test_vdd_sags_toward_brownout(self):
        supply = PowerSupply(windows=(100,), nominal_vdd=1.2,
                             brownout_vdd=0.84)
        assert supply.vdd() == pytest.approx(1.2)
        supply.spend(50)
        assert 0.84 < supply.vdd() < 1.2
        supply.restart()
        assert supply.vdd() == pytest.approx(1.2)
