"""Intermittent power: cut survival, the field-cutting attack and the
checkpoint-interval table.

In ``tests/cli/test_power_cli.py``: the exhausted power-cycle budget
(``TestPowerSoak::test_completion_floor_fails``) and the waived floor
(``TestPowerSoak::test_exhausted_budget_degrades``).
"""


def test_power_run_narrates_cut_survival_and_the_attack(repro):
    out = repro("power run --seed 2013").stdout
    assert "naive tag BROKEN" in out
    assert "checkpointing tag held" in out
    assert "DIVERGED" not in out


def test_checkpoint_interval_bench_holds_the_trade(bench):
    bench("i1_checkpoint_interval")
