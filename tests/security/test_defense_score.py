"""Scoring the battery-depletion posture.

Plain score rows (each defense set, alone and with other postures)
are pinned in ``test_score_golden.py``; these tests name the rules.
"""

import pytest

from repro.adversary import defense_config
from repro.arch.coprocessor import CoprocessorConfig
from repro.ec.curves import get_curve
from repro.security import (
    AbstractionLevel,
    BATTERY_DEPLETION_THREAT,
    defense_posture,
    pyramid_for_config,
    score_design,
)
from repro.security.pyramid import PAPER_THREATS


@pytest.fixture(scope="module")
def config():
    return CoprocessorConfig(domain=get_curve("K-163"), digit_size=4)


def score(config, name, **kwargs):
    return score_design(
        config, postures=[defense_posture(defense_config(name))], **kwargs)


class TestBackCompat:
    def test_no_defenses_keeps_the_eight_threat_score(self, config):
        """No posture is the paper's original account — battery
        depletion not even mentioned."""
        result = score_design(config)
        assert result.total == len(PAPER_THREATS) == 8
        assert result.value == 1.0
        assert BATTERY_DEPLETION_THREAT.name not in result.closed
        assert BATTERY_DEPLETION_THREAT.name not in result.open_doors


class TestDefenseScoring:
    def test_primary_defense_closes_the_door(self, config):
        for name in ("budget-cap", "wake-gating", "full"):
            result = score(config, name)
            assert result.total == 9
            assert BATTERY_DEPLETION_THREAT.name in result.closed, name

    def test_no_defense_opens_the_door(self, config):
        result = score(config, "none")
        assert result.total == 9
        assert result.open_doors == (BATTERY_DEPLETION_THREAT.name,)
        assert result.value == pytest.approx(8 / 9)

    def test_backoff_alone_is_supporting_not_primary(self, config):
        """Throttling slows the bleed but bounds nothing — the door
        stays open, exactly like circuit-level hygiene elsewhere."""
        assert BATTERY_DEPLETION_THREAT.name in \
            score(config, "backoff").open_doors

    def test_composes_with_vdd_and_findings(self, config):
        result = score(config, "none", vdd=0.9)
        assert set(result.open_doors) == \
            {"fault-attack", BATTERY_DEPLETION_THREAT.name}


class TestPyramidWithDefenses:
    def test_extends_the_pyramid(self, config):
        pyramid = pyramid_for_config(
            config, [defense_posture(defense_config("full"))])
        names = [t.name for t in pyramid.threats]
        assert BATTERY_DEPLETION_THREAT.name in names
        assert pyramid.uncovered_threats() == []
        assert "wake-up radio gating" in pyramid.report()

    def test_countermeasure_levels(self):
        posture = defense_posture(defense_config("full"))
        assert posture.threat is BATTERY_DEPLETION_THREAT
        measures = posture.countermeasures
        by_name = {cm.name: cm for cm in measures}
        assert len(measures) == 3
        gating = by_name["authenticated wake-up radio gating"]
        budget = by_name["per-window energy budget cap"]
        backoff = by_name["bounded restart backoff / epoch throttling"]
        assert gating.level is AbstractionLevel.PROTOCOL and gating.primary
        assert budget.level is AbstractionLevel.ARCHITECTURE \
            and budget.primary
        assert not backoff.primary
