"""Golden outputs of the fault injector's Montgomery ladder.

``faulty_ladder_golden.json`` holds ``faulty_montgomery_ladder``'s
``(x, y, is_infinity)`` for every case below, as hex, hex and a bool.
It was recorded from the injector that ran its own copy of the ladder
loop, before it drove the suspendable ladder.

Cases: several scalars on TOY-B17 and two on K-163, each with no
fault, then at iterations 0, 1, 3, 7 and 99 a bit flip (bits 0, 7 and
m − 1) and a stuck-at-zero on each of X1, Z1, X2 and Z2, and a skip.
Iteration 99 lies past the last iteration of every scalar but the
full-size K-163 one.  Key format: ``curve|k|kind|target|iteration|bit``.
"""

import json
from pathlib import Path

import pytest

from repro.ec.curves import get_curve
from repro.fault import FaultKind, FaultSpec, faulty_montgomery_ladder

GOLDEN = json.loads(
    (Path(__file__).parent / "faulty_ladder_golden.json").read_text())

SCALARS = {
    "TOY-B17": (0b101, 0x55, 0x1234, 0xBEEF, 0x10032),
    "K-163": (0xABCDE, 0x19595F31BE8659DE27504CEE29F0AFD608A9A8BC3),
}
ITERATIONS = (0, 1, 3, 7, 99)
TARGETS = ("X1", "Z1", "X2", "Z2")

CASES = [(name, k) for name, ks in SCALARS.items() for k in ks]


def faults(m):
    yield None
    for iteration in ITERATIONS:
        for target in TARGETS:
            for bit in (0, 7, m - 1):
                yield FaultSpec(iteration, target, bit)
            yield FaultSpec(iteration, target, kind=FaultKind.STUCK_AT_ZERO)
        yield FaultSpec(iteration, kind=FaultKind.SKIP)


def key(name, k, fault):
    if fault is None:
        return f"{name}|{k:x}|none"
    return (f"{name}|{k:x}|{fault.kind.value}|{fault.target}|"
            f"{fault.iteration}|{fault.bit}")


def outcomes(name, k):
    """Each fault's key and the injector's ``[x, y, is_infinity]``."""
    domain = get_curve(name)
    for fault in faults(domain.field.m):
        point = faulty_montgomery_ladder(domain.curve, k, domain.generator,
                                         fault)
        yield key(name, k, fault), \
            [format(point.x, "x"), format(point.y, "x"), point.is_infinity]


def test_golden_covers_every_case():
    expected = {key(name, k, fault) for name, k in CASES
                for fault in faults(get_curve(name).field.m)}
    assert expected == GOLDEN.keys()


@pytest.mark.parametrize("name, k", CASES,
                         ids=[f"{name}-{k:x}" for name, k in CASES])
def test_faulty_ladder_matches_golden(name, k):
    got = dict(outcomes(name, k))
    assert got == {key: GOLDEN[key] for key in got}
