"""Tests for the supply derivation stream and the brownout meter."""

import pytest

from repro.intermittent import (
    PowerLossError,
    PowerSupply,
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
