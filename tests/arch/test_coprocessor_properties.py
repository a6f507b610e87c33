"""Property-based tests: the coprocessor against the golden model.

Hypothesis drives the device with arbitrary scalars and randomization
values; every property the constant-time, mux-routed, randomized
design promises must hold for all of them.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import CoprocessorConfig, EccCoprocessor
from repro.ec import NIST_K163

COP = EccCoprocessor(CoprocessorConfig())
GOLDEN = NIST_K163.curve.multiply_naive
G = NIST_K163.generator

scalars = st.integers(min_value=1, max_value=NIST_K163.order - 1)
z_values = st.integers(min_value=1, max_value=(1 << 163) - 1)


class TestCoprocessorProperties:
    @given(scalars, z_values)
    @settings(max_examples=8, deadline=None)
    def test_correct_for_any_scalar_and_randomization(self, k, z0):
        trace = COP.point_multiply(k, G, initial_z=z0)
        assert trace.result == GOLDEN(k, G)

    @given(scalars)
    @settings(max_examples=6, deadline=None)
    def test_cycles_and_schedule_constant(self, k):
        trace = COP.point_multiply(k, G, initial_z=1)
        reference = COP.point_multiply(1, G, initial_z=1)
        assert trace.cycles == reference.cycles
        assert [i.opcode for i in trace.instructions] == \
            [i.opcode for i in reference.instructions]

    @given(scalars, z_values, z_values)
    @settings(max_examples=5, deadline=None)
    def test_randomization_never_changes_result(self, k, z1, z2):
        a = COP.point_multiply(k, G, initial_z=z1, recover_y=False)
        b = COP.point_multiply(k, G, initial_z=z2, recover_y=False)
        assert a.result_x_only == b.result_x_only

    @given(scalars)
    @settings(max_examples=5, deadline=None)
    def test_recoding_congruence(self, k):
        padded = COP.recode_scalar(k)
        assert padded % NIST_K163.order == k
        assert padded.bit_length() == NIST_K163.order.bit_length() + 1

    @given(scalars)
    @settings(max_examples=4, deadline=None)
    def test_x_only_agrees_with_full_recovery(self, k):
        full = COP.point_multiply(k, G, initial_z=1, recover_y=True)
        x_only = COP.point_multiply(k, G, initial_z=1, recover_y=False)
        assert full.result.x == x_only.result_x_only


class TestCrossAlgorithmAgreement:
    """The chip must agree with the golden model.  Agreement of every
    k·P implementation with it is in ``tests/test_scalar_mult_oracle.py``."""

    @given(st.integers(min_value=1, max_value=1 << 40),
           st.integers(min_value=1, max_value=1 << 40))
    @settings(max_examples=4, deadline=None)
    def test_homomorphism_through_the_chip(self, j, k):
        """(j + k)G computed on-chip equals jG + kG off-chip."""
        curve = NIST_K163.curve
        combined = COP.point_multiply(j + k, G, initial_z=1).result
        split = curve.add(GOLDEN(j, G), GOLDEN(k, G))
        assert combined == split


class TestProtocolRoundtripProperty:
    @given(st.integers(min_value=1, max_value=NIST_K163.order - 1))
    @settings(max_examples=3, deadline=None)
    def test_identification_accepts_for_any_tag_secret(self, x):
        from repro.protocols import (
            PeetersHermansReader,
            PeetersHermansTag,
            run_identification,
        )

        rng = random.Random(x & 0xFFFF)
        reader = PeetersHermansReader(
            NIST_K163, NIST_K163.scalar_ring.random_scalar(rng)
        )
        tag = PeetersHermansTag(NIST_K163, x, reader.public)
        reader.register(0, tag.identity_point)
        assert run_identification(tag, reader, rng).accepted
