"""Clock-tree and clock-gating model.

Section 6: "clock gating may be a tempting solution to reduce dynamic
power, however ... if different registers are enabled depending on the
secret key, different parts of the clock tree will be activated.  The
corresponding difference in power consumption will result in a clearly
visible pattern in the power trace, thereby enabling an SPA."

In the ladder, the destination register of the differential addition
(X1/Z1 vs X2/Z2) is selected by the key bit, so a design that gates
each register's clock individually activates key-dependent clock-tree
branches.  The branches never match exactly after layout, which is
what this model's per-branch weights capture.
"""

from __future__ import annotations

import enum

__all__ = ["ClockGatingPolicy", "ClockTreeModel"]


class ClockGatingPolicy(enum.Enum):
    """How register clocks are managed."""

    ALWAYS_ON = "always_on"          # every register clocked every cycle
    DATA_DEPENDENT = "data_dependent"  # only written registers clocked


class ClockTreeModel:
    """Per-cycle clock-tree switching contribution.

    Parameters
    ----------
    policy:
        The gating policy.
    register_count:
        Number of leaf branches (one per register).
    branch_mismatch:
        Relative capacitance spread between branches after layout;
        branch ``i`` weighs ``leaf_load * (1 + branch_mismatch * i)``.
        With ALWAYS_ON the total is constant so mismatch is invisible;
        with DATA_DEPENDENT the mismatch makes *which* register was
        clocked readable from the trace.
    leaf_load:
        Toggle weight of one branch at nominal mismatch — physically
        the clock pins of one register bank plus its buffers, so it
        scales with the register width (the coprocessor passes the
        field degree).
    """

    def __init__(
        self,
        policy: ClockGatingPolicy,
        register_count: int,
        branch_mismatch: float = 0.1,
        leaf_load: float = 1.0,
    ):
        if register_count < 1:
            raise ValueError("need at least one register branch")
        if branch_mismatch < 0:
            raise ValueError("branch mismatch must be non-negative")
        if leaf_load <= 0:
            raise ValueError("leaf load must be positive")
        self.policy = policy
        self.register_count = register_count
        self.branch_weights = [
            leaf_load * (1.0 + branch_mismatch * i)
            for i in range(register_count)
        ]

    def cycle_contribution(self, written_registers: list) -> float:
        """Clock switching activity for one cycle.

        ``written_registers`` lists the register indices whose write
        enable is asserted this cycle (usually empty or a singleton).
        """
        if self.policy is ClockGatingPolicy.ALWAYS_ON:
            return sum(self.branch_weights)
        return sum(self.branch_weights[r] for r in written_registers)
