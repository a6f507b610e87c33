"""The opt-in key-compromise threat term of ``score_design``.

Session amortization adds a threat to the paper's pyramid: a captured
session key exposes its forward-secrecy window.  The term is strictly
opt-in — a caller that passes no session posture gets the exact score
it always got (pinned in ``test_score_golden.py``) — and an
AmortizedSpec carries the knobs a posture is built from.
"""

import pytest

from repro.arch import CoprocessorConfig, BalancedEncoding
from repro.protocols import AmortizedSpec
from repro.security import (
    KEY_COMPROMISE_THREAT,
    checkpoint_posture,
    defense_posture,
    score_design,
    session_posture,
)


def make_config(**overrides):
    kwargs = dict(digit_size=4, randomize_z=True,
                  mux_encoding=BalancedEncoding())
    kwargs.update(overrides)
    return CoprocessorConfig(**kwargs)


def score(*postures):
    return score_design(make_config(), postures=postures)


def spec_posture(spec):
    return session_posture(spec.rekey_epoch, spec.private_identification,
                           spec.erase_keys)


class TestOptIn:
    def test_absent_session_is_byte_identical(self):
        base = score_design(make_config())
        assert base == score()
        assert KEY_COMPROMISE_THREAT.name not in base.closed
        assert KEY_COMPROMISE_THREAT.name not in base.open_doors

    def test_finite_epoch_closes_the_door(self):
        result = score(session_posture(16))
        assert KEY_COMPROMISE_THREAT.name in result.closed
        assert "tracking" not in result.open_doors

    def test_unbounded_window_opens_the_door(self):
        result = score(session_posture(None))
        assert KEY_COMPROMISE_THREAT.name in result.open_doors

    def test_symmetric_identity_opens_tracking(self):
        result = score(session_posture(None, private_identification=False))
        assert "tracking" in result.open_doors
        assert KEY_COMPROMISE_THREAT.name in result.open_doors

    def test_session_term_moves_the_score_value(self):
        base = score()
        closed = score(session_posture(1))
        opened = score(session_posture(None))
        # One more threat scored: closing it keeps the perfect score,
        # leaving it open drops below the base.
        assert closed.value == pytest.approx(base.value)
        assert opened.value < base.value


class TestPostures:
    def test_amortized_spec_is_a_posture(self):
        result = score(spec_posture(AmortizedSpec(epoch_messages=8)))
        assert KEY_COMPROMISE_THREAT.name in result.closed
        assert "tracking" not in result.open_doors

    def test_schnorr_spec_opens_tracking(self):
        result = score(spec_posture(AmortizedSpec(protocol="schnorr")))
        assert "tracking" in result.open_doors

    def test_erasure_is_supporting_only(self):
        # Erasing retired keys cannot bound a live key's window.
        posture = session_posture(None, erase_keys=True)
        assert posture.countermeasures and \
            all(not cm.primary for cm in posture.countermeasures)
        assert KEY_COMPROMISE_THREAT.name in score(posture).open_doors

    def test_bool_epoch_is_not_a_window(self):
        # True is an int in Python; a boolean must not read as a
        # one-message epoch.
        assert session_posture(True).countermeasures == ()


class TestComposition:
    def test_all_three_optional_terms_stack(self):
        from repro.adversary import defense_config

        result = score(defense_posture(defense_config("full")),
                       checkpoint_posture(8), session_posture(16))
        assert "battery-depletion" in result.closed
        assert "power-interruption" in result.closed
        assert KEY_COMPROMISE_THREAT.name in result.closed
