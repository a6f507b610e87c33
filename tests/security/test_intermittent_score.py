"""Scoring the intermittent-power posture.

Plain score rows (durable and naive tags, alone and with other
postures) are pinned in ``test_score_golden.py``; these tests name the
rules.
"""

import pytest

from repro.arch.coprocessor import CoprocessorConfig
from repro.ec.curves import get_curve
from repro.security import (
    AbstractionLevel,
    POWER_INTERRUPTION_THREAT,
    checkpoint_posture,
    defense_posture,
    pyramid_for_config,
    score_design,
)
from repro.security.pyramid import PAPER_THREATS


@pytest.fixture(scope="module")
def config():
    return CoprocessorConfig(domain=get_curve("K-163"), digit_size=4)


class TestBackCompat:
    def test_no_checkpoint_keeps_the_eight_threat_score(self, config):
        """No posture is the paper's original account — power
        interruption not even mentioned."""
        score = score_design(config)
        assert score.total == len(PAPER_THREATS) == 8
        assert score.value == 1.0
        assert POWER_INTERRUPTION_THREAT.name not in score.closed
        assert POWER_INTERRUPTION_THREAT.name not in score.open_doors


class TestCheckpointScoring:
    def test_durable_posture_closes_the_door(self, config):
        score = score_design(config, postures=[checkpoint_posture(8)])
        assert score.total == 9
        assert POWER_INTERRUPTION_THREAT.name in score.closed
        assert score.value == 1.0

    def test_naive_tag_leaves_the_door_open(self, config):
        score = score_design(
            config, postures=[checkpoint_posture(8, durable=False)])
        assert score.total == 9
        assert score.open_doors == (POWER_INTERRUPTION_THREAT.name,)
        assert score.value == pytest.approx(8 / 9)

    def test_composes_with_defenses(self, config):
        from repro.adversary import defense_config

        score = score_design(config, postures=[
            defense_posture(defense_config("none")),
            checkpoint_posture(0, durable=False)])
        assert score.total == 10
        assert set(score.open_doors) == \
            {"battery-depletion", POWER_INTERRUPTION_THREAT.name}


class TestPyramidWithIntermittent:
    def test_extends_the_pyramid(self, config):
        pyramid = pyramid_for_config(config, [checkpoint_posture(8)])
        names = [t.name for t in pyramid.threats]
        assert POWER_INTERRUPTION_THREAT.name in names
        assert pyramid.uncovered_threats() == []
        assert "commit-before-use" in pyramid.report()

    def test_countermeasure_levels(self):
        measures = checkpoint_posture(8).countermeasures
        by_name = {cm.name: cm for cm in measures}
        assert len(measures) == 3
        vault = by_name["commit-before-use nonce checkpointing"]
        commit = by_name["two-phase atomic NVM commit"]
        ladder = by_name["periodic ladder-state checkpointing"]
        assert vault.level is AbstractionLevel.PROTOCOL and vault.primary
        assert commit.level is AbstractionLevel.ARCHITECTURE \
            and commit.primary
        assert ladder.level is AbstractionLevel.ALGORITHM \
            and not ladder.primary

    def test_ladder_checkpointing_alone_is_not_primary(self, config):
        measures = checkpoint_posture(8, durable=False).countermeasures
        assert measures and not any(cm.primary for cm in measures)
