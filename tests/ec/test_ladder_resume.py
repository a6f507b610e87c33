"""The suspendable ladder: bit-identical to the full run, any split.

Agreement with the oracle at random splits, with a checkpoint round
trip at each, is in ``tests/test_scalar_mult_oracle.py``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ec.curves import get_curve
from repro.ec.ladder import (
    LadderState,
    LadderStateError,
    ladder_suspend_advance,
    ladder_suspend_init,
    ladder_suspend_result,
    montgomery_ladder_full,
)

DOMAIN = get_curve("TOY-B17")


class TestEquivalence:
    def test_registers_match_uninterrupted_run_exactly(self):
        """Not just the result point: the frozen registers after N
        steps equal the full ladder's N-th iteration registers."""
        k, z0 = 0x1234 % DOMAIN.order, 7
        full = montgomery_ladder_full(DOMAIN.curve, k, DOMAIN.generator,
                                      initial_z=z0)
        state = ladder_suspend_init(DOMAIN.curve, k, DOMAIN.generator, z0)
        for iteration in full.iterations:
            state = ladder_suspend_advance(DOMAIN.curve, state, 1)
            assert (state.x1, state.z1, state.x2, state.z2) == \
                (iteration.X1, iteration.Z1, iteration.X2, iteration.Z2)

    def test_advance_is_pure(self):
        state = ladder_suspend_init(DOMAIN.curve, 0x55 % DOMAIN.order,
                                    DOMAIN.generator, 3)
        before = state.to_dict()
        ladder_suspend_advance(DOMAIN.curve, state, 5)
        assert state.to_dict() == before

    def test_overshooting_steps_is_harmless(self):
        k = 0x31 % DOMAIN.order
        expected = montgomery_ladder_full(DOMAIN.curve, k,
                                          DOMAIN.generator,
                                          initial_z=1).result
        state = ladder_suspend_init(DOMAIN.curve, k, DOMAIN.generator, 1)
        state = ladder_suspend_advance(DOMAIN.curve, state, 10_000)
        assert state.finished
        assert ladder_suspend_result(DOMAIN.curve, state) == expected


class TestStateAccounting:
    def test_progress_counters(self):
        k = 0b1011  # 4 bits -> 3 iterations
        state = ladder_suspend_init(DOMAIN.curve, k, DOMAIN.generator, 1)
        assert state.steps_total == 3
        assert state.steps_done == 0
        state = ladder_suspend_advance(DOMAIN.curve, state, 2)
        assert state.steps_done == 2
        assert not state.finished

    def test_checkpoint_dict_round_trip(self):
        state = ladder_suspend_init(DOMAIN.curve, 0x19 % DOMAIN.order,
                                    DOMAIN.generator, 5)
        state = ladder_suspend_advance(DOMAIN.curve, state, 2)
        assert LadderState.from_dict(state.to_dict()) == state


def checkpoint(**changes):
    """The payload of k = 0x55, Z = 3 after two steps, with ``changes``
    applied (a value of ``None`` deletes the key)."""
    state = ladder_suspend_init(DOMAIN.curve, 0x55, DOMAIN.generator, 3)
    payload = ladder_suspend_advance(DOMAIN.curve, state, 2).to_dict()
    payload.update(changes)
    return {key: value for key, value in payload.items()
            if value is not None}


def spellings(value):
    """``value`` as ``to_dict`` writes it, and near misses."""
    text = format(value, "x")
    return st.sampled_from([text, text.upper(), "0x" + text, "0" + text,
                            " " + text, "-" + text, format(value, "_x")])


#: Values a fuzzed payload may put under any key (``None`` deletes it).
JUNK = st.one_of(
    st.none(), st.booleans(), st.floats(allow_nan=False),
    st.integers(min_value=-200, max_value=200),
    st.integers(min_value=0, max_value=1 << 20).flatmap(spellings),
    st.text(max_size=6), st.lists(st.integers(), max_size=2))


UNRESUMABLE = {
    "bit past k": checkpoint(bit=40),  # steps_done would be -35
    "bit below finished": checkpoint(bit=-7),
    "bit bool": checkpoint(bit=True),
    "bit str": checkpoint(bit="3"),
    "bit float": checkpoint(bit=3.0),
    "k negative": checkpoint(k="-55"),
    "k zero": checkpoint(k="0"),
    "z0 zero": checkpoint(z0="0"),
    "z0 negative": checkpoint(z0="-3"),
    "register uppercase": checkpoint(x1="AB"),
    "register prefixed": checkpoint(x1="0x55"),
    "register leading zero": checkpoint(x1="055"),
    "register not hex": checkpoint(x1="zz"),
    "register empty": checkpoint(x1=""),
    "register int": checkpoint(x1=0x55),
    "key missing": checkpoint(z2=None),
    "key unknown": checkpoint(extra="1"),
    "list": [("k", "55")],
    "str": "k=55",
    "None": None,
}


class TestCheckpointDecoding:
    """``LadderState.from_dict`` decodes the intermittent engine's NVM
    ladder record; a payload it cannot resume correctly is refused."""

    @pytest.mark.parametrize("payload", UNRESUMABLE.values(),
                             ids=list(UNRESUMABLE))
    def test_unresumable_payloads_rejected(self, payload):
        with pytest.raises(LadderStateError):
            LadderState.from_dict(payload)

    def test_error_is_a_value_error(self):
        assert issubclass(LadderStateError, ValueError)

    def test_last_bit_and_finished_marker_accepted(self):
        for bit in ((0x55).bit_length() - 2, -1):
            assert LadderState.from_dict(checkpoint(bit=bit)).bit_index == bit

    @given(changes=st.dictionaries(
        st.sampled_from(["k", "bx", "by", "z0", "bit", "x1", "z1", "x2",
                         "z2", "extra"]), JUNK, max_size=3))
    @settings(max_examples=300, deadline=None)
    def test_fuzzed_payloads_round_trip_or_raise(self, changes):
        payload = checkpoint(**changes)
        try:
            state = LadderState.from_dict(payload)
        except LadderStateError:
            return
        assert state.to_dict() == payload
        assert 0 <= state.steps_done <= state.steps_total


class TestContract:
    def test_degenerate_inputs_rejected(self):
        from repro.ec.point import AffinePoint

        with pytest.raises(ValueError):
            ladder_suspend_init(DOMAIN.curve, 0, DOMAIN.generator, 1)
        with pytest.raises(ValueError):
            ladder_suspend_init(DOMAIN.curve, 5,
                                AffinePoint.infinity(), 1)
        with pytest.raises(ValueError):
            ladder_suspend_init(DOMAIN.curve, 5, DOMAIN.generator, 0)

    def test_result_before_finish_rejected(self):
        state = ladder_suspend_init(DOMAIN.curve, 0x55 % DOMAIN.order,
                                    DOMAIN.generator, 1)
        with pytest.raises(ValueError, match="iterations to run"):
            ladder_suspend_result(DOMAIN.curve, state)

    def test_negative_advance_rejected(self):
        state = ladder_suspend_init(DOMAIN.curve, 3, DOMAIN.generator, 1)
        with pytest.raises(ValueError):
            ladder_suspend_advance(DOMAIN.curve, state, -1)
