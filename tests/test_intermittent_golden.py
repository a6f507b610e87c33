"""Golden outcomes of the intermittent engine and the field-cut attack.

Recorded from the engine that computed the tag's arithmetic itself,
before it drove :class:`~repro.protocols.peeters_hermans.PeetersHermansTag`.
Every schedule ``power run`` replays is covered: stable power, the
five seeded cut schedules, and a cut aimed at every adversarial event
of the probe timeline.

* The checkpointing tag is pinned in full: the ``repr`` of each
  :class:`~repro.intermittent.IntermittentResult`, so every cycle,
  timeline mark, event line and µJ figure is fixed.
* The naive tag is pinned on its outcome only (verdict, power cycles,
  outcome digest and the distinct wire entries): its cycle and µJ
  figures drop when it stops drawing its RAM nonce twice.
* The field-cut attack is pinned on what it recovers.
"""

import dataclasses
import hashlib

import pytest

from repro.adversary.fieldcut import FieldCutOutcome, run_fieldcut_attack
from repro.intermittent import (
    IntermittentSpec,
    PowerCutSchedule,
    adversarial_schedules,
    probe_timeline,
    run_with_schedule,
)

CASES = [(session, interval) for session in (0, 3) for interval in (1, 8)]

GOLDEN_DURABLE = {
    (0, 1):
        "8d02a96b72c7202ba4b468d5a908a483c8bc0cd2ec35c0b4b47ad441ce608336",
    (0, 8):
        "e933926ac99ba0f52541a0b898de96c695b9da49fe2005c4d6185bd24ac91b52",
    (3, 1):
        "504d8ec86e82673cee1c2fa7ffd9a14aecb1a9d0c489d73e4ec3b1867b8f859a",
    (3, 8):
        "57ca8082493cd05671a8db886d74819e12da58b7a631b6c336e37b33fa215576",
}

GOLDEN_NAIVE = {
    (0, 1):
        "aa4c43044e1f85647f1e4fef8a0b451e8ab8405ae1947be68f304ca738556414",
    (0, 8):
        "ad58247698ba88461a0628cab347d991ba68f0dfe2daf4842ab42f6bbe28fa06",
    (3, 1):
        "c02ad7c164b502bf336c0a531f8270c71eef2b8360bc31b2c2babcd907b21eb3",
    (3, 8):
        "adea58a3e036afde8353f7d4968f74155dda67cb2770188e4214722d65cd472a",
}


def _spec(interval):
    return IntermittentSpec(curve="TOY-B17", seed=2013,
                            checkpoint_interval=interval)


def _schedules(spec, session):
    """The schedules ``power run`` replays, in a fixed order."""
    yield "stable", PowerCutSchedule()
    for index in range(5):
        yield f"seeded-{index}", PowerCutSchedule.seeded(
            index, session, 3, mean_on_cycles=8000)
    aimed = adversarial_schedules(probe_timeline(spec, session))
    for label in sorted(aimed):
        yield f"aimed-{label}", aimed[label]


def _digest(lines):
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\x00")
    return h.hexdigest()


def _durable_lines(session, interval):
    spec = _spec(interval)
    for name, schedule in _schedules(spec, session):
        result = run_with_schedule(spec, session, schedule)
        yield f"{name}: {result!r}"


def _naive_lines(session, interval):
    spec = _spec(interval)
    for name, schedule in _schedules(spec, session):
        r = run_with_schedule(spec, session, schedule, durable=False)
        wire = sorted({(epoch, label, payload)
                       for _sender, epoch, label, payload in r.wire})
        yield (f"{name}: {r.completed} {r.accepted} {r.identity} "
               f"{r.power_cycles} {r.outcome_digest} {wire!r}")


@pytest.mark.parametrize("session,interval", CASES)
def test_checkpointing_tag_is_byte_identical(session, interval):
    digest = _digest(_durable_lines(session, interval))
    assert digest == GOLDEN_DURABLE[(session, interval)]


@pytest.mark.parametrize("session,interval", CASES)
def test_naive_tag_outcome_is_unchanged(session, interval):
    digest = _digest(_naive_lines(session, interval))
    assert digest == GOLDEN_NAIVE[(session, interval)]


def test_fieldcut_attack_recovers_the_same_key():
    naive, checkpointing = run_fieldcut_attack(
        IntermittentSpec(curve="TOY-B17", seed=2013))
    assert checkpointing == FieldCutOutcome(
        target="checkpointing", cut_cycle=26847, responses_harvested=1,
        key_recovered=False, recovered_r=None, recovered_x=None,
        secret_x=7343)
    assert dataclasses.replace(naive, cut_cycle=None) == FieldCutOutcome(
        target="naive", cut_cycle=None, responses_harvested=2,
        key_recovered=True, recovered_r=13400, recovered_x=7343,
        secret_x=7343)
