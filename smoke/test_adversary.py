"""The adversary lab: the flood narrative and the battery-drain table.

In ``tests/cli/test_attack_cli.py``: the unreachable legit floor
(``TestAttackSoak::test_legit_floor_fails_the_soak``), the
always-crashing cohort (``TestAttackSoak::test_chaos_quarantine_degrades``)
and the unknown adversary (``TestAttackRun::test_unknown_adversary_fails``).
"""


def test_attack_run_narrates_the_defense_matrix(repro):
    out = repro("attack run --adversary amplification --sessions 3 "
                "--seed 7").stdout
    assert "refused 3" in out


def test_battery_drain_bench_holds_the_budget_line(bench):
    bench("a3_battery_drain")
