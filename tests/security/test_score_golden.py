"""Golden score table: every posture combination, pinned byte for byte.

``golden_scores.json`` holds ``SecurityScore.to_dict()`` for the cross
product of protected/unprotected configs, nominal and 0.9 V, every
named defense set (or none), three checkpoint postures and three
session postures, recorded before the subsystem terms became
:class:`~repro.security.pyramid.Posture` records.  Key format:
``config|vdd|defense|checkpoint|session``.
"""

import itertools
import json
from pathlib import Path

import pytest

from repro.adversary.defense import DEFENSE_SETS, defense_config
from repro.arch import CoprocessorConfig, UnbalancedEncoding
from repro.security import (
    checkpoint_posture,
    defense_posture,
    score_design,
    session_posture,
)

GOLDEN = json.loads(
    (Path(__file__).parent / "golden_scores.json").read_text())

CONFIGS = {
    "protected": CoprocessorConfig(),
    "unprotected": CoprocessorConfig(randomize_z=False,
                                     mux_encoding=UnbalancedEncoding()),
}
VDDS = (None, 0.9)
DEFENSES = {"None": None,
            **{name: defense_posture(defense_config(name))
               for name in DEFENSE_SETS}}
CHECKPOINTS = {"None": None,
               "durable-8": checkpoint_posture(8),
               "non-durable": checkpoint_posture(8, durable=False)}
SESSIONS = {"None": None,
            "epoch-16": session_posture(16),
            "unbounded-public": session_posture(
                None, private_identification=False)}

CASES = list(itertools.product(CONFIGS, VDDS, DEFENSES, CHECKPOINTS,
                               SESSIONS))


def test_table_covers_the_cross_product():
    assert sorted("|".join(map(str, case)) for case in CASES) \
        == sorted(GOLDEN)


@pytest.mark.parametrize("case", CASES,
                         ids=["|".join(map(str, c)) for c in CASES])
def test_score_matches_golden(case):
    config, vdd, defense, checkpoint, session = case
    postures = [p for p in (DEFENSES[defense], CHECKPOINTS[checkpoint],
                            SESSIONS[session]) if p is not None]
    score = score_design(CONFIGS[config], vdd=vdd, postures=postures)
    assert score.to_dict() == GOLDEN["|".join(map(str, case))]
