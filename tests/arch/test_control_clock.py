"""Tests for mux-control encodings (Figure 3) and the clock-tree model."""

import pytest

from repro.arch import (
    BalancedEncoding,
    ClockGatingPolicy,
    ClockTreeModel,
    DEFAULT_MUX_FANOUT,
    UnbalancedEncoding,
)


class TestUnbalancedEncoding:
    def test_weight_on_transition_only(self):
        enc = UnbalancedEncoding()
        assert enc.transition_weight(0, 0) == 0.0
        assert enc.transition_weight(1, 1) == 0.0
        assert enc.transition_weight(0, 1) == DEFAULT_MUX_FANOUT
        assert enc.transition_weight(1, 0) == DEFAULT_MUX_FANOUT

    def test_bad_fanout(self):
        with pytest.raises(ValueError):
            UnbalancedEncoding(fanout=0)


class TestBalancedEncoding:
    def test_constant_weight_without_mismatch(self):
        enc = BalancedEncoding()
        weights = {
            enc.transition_weight(a, b) for a in (0, 1) for b in (0, 1)
        }
        assert weights == {float(DEFAULT_MUX_FANOUT)}

    def test_layout_mismatch_leaks_current_bit(self):
        enc = BalancedEncoding(fanout=100, layout_mismatch=0.05)
        w_one = enc.transition_weight(0, 1)
        w_zero = enc.transition_weight(0, 0)
        assert w_one == pytest.approx(105.0)
        assert w_zero == pytest.approx(100.0)
        # The leak depends on the *current* bit, not the transition.
        assert enc.transition_weight(1, 1) == w_one

    def test_negative_mismatch_rejected(self):
        with pytest.raises(ValueError):
            BalancedEncoding(layout_mismatch=-0.1)


class TestClockTree:
    def test_always_on_is_constant(self):
        tree = ClockTreeModel(ClockGatingPolicy.ALWAYS_ON, 6)
        assert tree.cycle_contribution([]) == tree.cycle_contribution([0, 1])

    def test_data_dependent_varies_with_writes(self):
        tree = ClockTreeModel(ClockGatingPolicy.DATA_DEPENDENT, 6)
        assert tree.cycle_contribution([]) == 0.0
        assert tree.cycle_contribution([0]) > 0.0

    def test_gating_saves_power(self):
        """The temptation of Section 6: gating lowers average power."""
        on = ClockTreeModel(ClockGatingPolicy.ALWAYS_ON, 6)
        gated = ClockTreeModel(ClockGatingPolicy.DATA_DEPENDENT, 6)
        assert gated.cycle_contribution([2]) < on.cycle_contribution([2])

    def test_branch_mismatch_distinguishes_registers(self):
        """...and why it leaks: different branches weigh differently."""
        tree = ClockTreeModel(ClockGatingPolicy.DATA_DEPENDENT, 6,
                              branch_mismatch=0.2)
        assert tree.cycle_contribution([0]) != tree.cycle_contribution([5])

    def test_zero_mismatch_makes_branches_equal(self):
        tree = ClockTreeModel(ClockGatingPolicy.DATA_DEPENDENT, 6,
                              branch_mismatch=0.0)
        assert tree.cycle_contribution([0]) == tree.cycle_contribution([5])

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            ClockTreeModel(ClockGatingPolicy.ALWAYS_ON, 0)
        with pytest.raises(ValueError):
            ClockTreeModel(ClockGatingPolicy.ALWAYS_ON, 6, branch_mismatch=-1)
