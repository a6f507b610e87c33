"""Tests for the cycle-level ECC coprocessor."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import (
    BalancedEncoding,
    ClockGatingPolicy,
    CoprocessorConfig,
    EccCoprocessor,
    InvalidDigitSizeError,
    Opcode,
    UnbalancedEncoding,
)
from repro.arch.batch import BatchCoprocessor
from repro.campaign import random_protocol_point
from repro.ec import AffinePoint, NIST_B163, NIST_K163, montgomery_ladder
from repro.gf2m.limbs import from_limbs

#: Cycles of one K-163 point multiplication at the paper's defaults
#: (d = 4, Z randomized, y recovered): 847.5 kHz / 85 698 = 9.89 PM/s.
PAPER_CYCLES = 85_698


@pytest.fixture(scope="module")
def cop():
    return EccCoprocessor(CoprocessorConfig())


class TestCorrectness:
    def test_matches_reference_small_scalar(self, cop):
        g = cop.domain.generator
        trace = cop.point_multiply(0x1234, g, initial_z=1)
        assert trace.result == cop.domain.curve.multiply_naive(0x1234, g)

    def test_matches_reference_large_scalar(self, cop):
        rng = random.Random(5)
        g = cop.domain.generator
        k = cop.domain.scalar_ring.random_scalar(rng)
        trace = cop.point_multiply(k, g, rng=rng)
        assert trace.result == montgomery_ladder(
            cop.domain.curve, k, g, randomize_z=False
        )

    def test_randomization_does_not_change_result(self, cop):
        rng = random.Random(6)
        g = cop.domain.generator
        k = 0xDEADBEEF
        expected = cop.domain.curve.multiply_naive(k, g)
        for _ in range(3):
            assert cop.point_multiply(k, g, rng=rng).result == expected

    def test_arbitrary_subgroup_point(self, cop):
        rng = random.Random(7)
        curve = cop.domain.curve
        p = curve.double(curve.random_point(rng))  # clear the cofactor
        k = 0xABCDEF12345
        trace = cop.point_multiply(k, p, rng=rng)
        assert trace.result == curve.multiply_naive(k, p)

    def test_k_equals_order_minus_one(self, cop):
        g = cop.domain.generator
        trace = cop.point_multiply(cop.domain.order - 1, g, initial_z=1)
        assert trace.result == cop.domain.curve.negate(g)

    def test_x_only_mode(self, cop):
        g = cop.domain.generator
        trace = cop.point_multiply(0x777, g, initial_z=1, recover_y=False)
        expected = cop.domain.curve.multiply_naive(0x777, g)
        assert trace.result is None
        assert trace.result_x_only == expected.x

    def test_non_koblitz_curve_b163(self):
        cop_b = EccCoprocessor(CoprocessorConfig(domain=NIST_B163))
        assert cop_b.config.core_register_count == 7
        g = NIST_B163.generator
        trace = cop_b.point_multiply(0x5555, g, initial_z=1)
        assert trace.result == NIST_B163.curve.multiply_naive(0x5555, g)


class TestInputValidation:
    def test_scalar_out_of_range(self, cop):
        g = cop.domain.generator
        with pytest.raises(ValueError):
            cop.point_multiply(0, g, initial_z=1)
        with pytest.raises(ValueError):
            cop.point_multiply(cop.domain.order, g, initial_z=1)

    def test_degenerate_points_rejected(self, cop):
        with pytest.raises(ValueError):
            cop.point_multiply(5, AffinePoint.infinity(), initial_z=1)
        two_torsion = cop.domain.curve.lift_x(0)
        with pytest.raises(ValueError):
            cop.point_multiply(5, two_torsion, initial_z=1)

    def test_missing_rng(self, cop):
        with pytest.raises(ValueError):
            cop.point_multiply(5, cop.domain.generator)

    def test_bad_initial_z(self, cop):
        with pytest.raises(ValueError):
            cop.point_multiply(5, cop.domain.generator, initial_z=0)


class TestDigitSizeValidation:
    """Digit sizes are checked at construction, with a typed error,
    so a design-space sweep fails on the bad axis value — not deep
    inside a simulation."""

    def test_valid_range_accepted(self):
        for d in (1, 4, 163):
            assert CoprocessorConfig(digit_size=d).digit_size == d

    @pytest.mark.parametrize("bad", [0, -1, -4])
    def test_sub_one_rejected(self, bad):
        with pytest.raises(InvalidDigitSizeError, match="at least 1"):
            CoprocessorConfig(digit_size=bad)

    def test_exceeding_field_degree_rejected(self):
        with pytest.raises(InvalidDigitSizeError, match="exceeds"):
            CoprocessorConfig(digit_size=164)

    @pytest.mark.parametrize("bad", [4.0, "4", None, True])
    def test_non_integers_rejected(self, bad):
        with pytest.raises(InvalidDigitSizeError, match="integer"):
            CoprocessorConfig(digit_size=bad)

    def test_error_is_a_value_error(self):
        # Callers that predate the typed error still catch it.
        with pytest.raises(ValueError):
            CoprocessorConfig(digit_size=0)


class TestScalarRecoding:
    def test_fixed_length(self, cop):
        n = cop.domain.order
        target = n.bit_length() + 1
        for k in (1, 2, n // 2, n - 1):
            assert cop.recode_scalar(k).bit_length() == target

    def test_recoded_scalar_is_congruent(self, cop):
        n = cop.domain.order
        for k in (1, 12345, n - 2):
            assert cop.recode_scalar(k) % n == k


class TestConstantTime:
    @given(k=st.integers(min_value=1, max_value=NIST_K163.order - 1),
           point_seed=st.integers(min_value=0, max_value=2**32 - 1),
           z_seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_cycle_count_independent_of_key(self, cop, k, point_seed,
                                            z_seed):
        """Every scalar, base point and random Z takes the paper's
        operating point's cycle count."""
        point = random_protocol_point(cop.domain, random.Random(point_seed))
        trace = cop.point_multiply(k, point, rng=random.Random(z_seed))
        assert trace.cycles == PAPER_CYCLES

    def test_iteration_count_constant(self, cop):
        g = cop.domain.generator
        t1 = cop.point_multiply(1, g, initial_z=1)
        t2 = cop.point_multiply(cop.domain.order - 2, g, initial_z=1)
        assert len(t1.iterations) == len(t2.iterations)
        assert len(t1.iterations) == cop.iterations_per_multiplication

    def test_instruction_sequence_key_independent(self, cop):
        """Same opcodes in the same order for any key — only the mux
        routing (operand fields) differs."""
        g = cop.domain.generator
        t1 = cop.point_multiply(0x3A7, g, initial_z=1)
        t2 = cop.point_multiply(0x111, g, initial_z=1)
        ops1 = [i.opcode for i in t1.instructions]
        ops2 = [i.opcode for i in t2.instructions]
        assert ops1 == ops2

    def test_cycles_match_paper_operating_point(self, cop):
        """~85.7k cycles -> 9.89 PM/s at 847.5 kHz (paper: 9.8)."""
        cycles = cop.cycles_per_point_multiplication()
        assert cycles == PAPER_CYCLES
        throughput = 847_500 / cycles
        assert abs(throughput - 9.8) / 9.8 < 0.05


class TestExecutionTrace:
    def test_channels_consistent(self, cop):
        trace = cop.point_multiply(0x99, cop.domain.generator, initial_z=1)
        trace.check_consistency()
        assert trace.cycles == len(trace.register)

    def test_key_bits_recorded(self, cop):
        k = 0x1357
        trace = cop.point_multiply(k, cop.domain.generator, initial_z=1)
        padded = cop.recode_scalar(k)
        expected = [int(c) for c in bin(padded)[3:]]
        assert trace.key_bits == expected

    def test_max_iterations_truncates(self, cop):
        trace = cop.point_multiply(
            0x1357, cop.domain.generator, initial_z=1, max_iterations=5
        )
        assert len(trace.iterations) == 5
        assert trace.result is None
        assert trace.result_x_only is None

    def test_replay_matches_point_multiply(self, cop):
        g = cop.domain.generator
        k = 0xBEEF
        padded = cop.recode_scalar(k)
        direct = cop.point_multiply(k, g, initial_z=7, max_iterations=4)
        replay = cop.replay_padded(padded, g, initial_z=7, max_iterations=4)
        assert replay.datapath == direct.datapath
        assert replay.register == direct.register
        assert replay.key_bits == direct.key_bits

    def test_replay_rejects_tiny_scalar(self, cop):
        with pytest.raises(ValueError):
            cop.replay_padded(1, cop.domain.generator, initial_z=1)

    @pytest.mark.parametrize("encoding", [BalancedEncoding,
                                          UnbalancedEncoding])
    @pytest.mark.parametrize("split", [0, 1, 3])
    def test_resumed_ladder_equals_the_uninterrupted_window(self, encoding,
                                                            split):
        """The batch executor's resume against one direct scalar run."""
        config = CoprocessorConfig(
            mux_encoding=encoding(), input_isolation=False,
            glitch_factor=0.3,
            clock_gating=ClockGatingPolicy.DATA_DEPENDENT)
        whole, part = EccCoprocessor(config), BatchCoprocessor(config)
        g = whole.domain.generator
        padded = whole.recode_scalar(0x5A5A5)
        full = whole.replay_padded(padded, g, initial_z=9, max_iterations=5)
        part.run(padded, [g], [9], max_iterations=split)
        previous = full.key_bits[split - 1] if split else 1
        rest = part.resume_ladder(part.registers.snapshot(), previous,
                                  full.key_bits[split:])
        start = full.iterations[split].start
        for channel in ("datapath", "register", "control", "clock"):
            assert getattr(rest, channel)[0].tolist() == \
                getattr(full, channel)[start:]
        assert rest.key_bits == full.key_bits[split:]
        assert [(s.start + start, s.end + start) for s in rest.iterations] \
            == full.iteration_slices()[split:]
        assert from_limbs(part.registers.snapshot()[:, :, 0].T) \
            == whole.registers.snapshot()
        assert rest.result is None and rest.result_x_only is None


class TestCountermeasureConfiguration:
    def test_control_channel_reflects_encoding(self):
        k = 0b110010101  # transitions exist
        cop_u = EccCoprocessor(
            CoprocessorConfig(mux_encoding=UnbalancedEncoding(),
                              randomize_z=False)
        )
        cop_b = EccCoprocessor(
            CoprocessorConfig(mux_encoding=BalancedEncoding(),
                              randomize_z=False)
        )
        g = cop_u.domain.generator
        tr_u = cop_u.point_multiply(k, g, max_iterations=10)
        tr_b = cop_b.point_multiply(k, g, max_iterations=10)
        ctrl_u = [c for c in tr_u.control if c > 0]
        ctrl_b = [c for c in tr_b.control if c > 0]
        # Unbalanced: spikes only on transitions; balanced: every iteration.
        assert len(ctrl_u) < len(ctrl_b)
        assert len(set(ctrl_b)) == 1

    def test_clock_gating_changes_clock_channel(self):
        base = CoprocessorConfig(randomize_z=False)
        gated = CoprocessorConfig(
            randomize_z=False, clock_gating=ClockGatingPolicy.DATA_DEPENDENT
        )
        g = NIST_K163.generator
        tr_on = EccCoprocessor(base).point_multiply(5, g, max_iterations=2)
        tr_gated = EccCoprocessor(gated).point_multiply(5, g, max_iterations=2)
        assert len(set(tr_on.clock)) == 1      # constant
        assert len(set(tr_gated.clock)) > 1    # varies with writes
        assert sum(tr_gated.clock) < sum(tr_on.clock)  # saves power

    def test_input_isolation_reduces_datapath_activity(self):
        iso = CoprocessorConfig(randomize_z=False, input_isolation=True)
        leaky = CoprocessorConfig(randomize_z=False, input_isolation=False)
        g = NIST_K163.generator
        tr_iso = EccCoprocessor(iso).point_multiply(0x55, g, max_iterations=3)
        tr_leaky = EccCoprocessor(leaky).point_multiply(0x55, g, max_iterations=3)
        assert sum(tr_leaky.datapath) > sum(tr_iso.datapath)

    def test_glitch_factor_increases_activity(self):
        quiet = CoprocessorConfig(randomize_z=False, glitch_factor=0.0)
        glitchy = CoprocessorConfig(randomize_z=False, glitch_factor=0.5)
        g = NIST_K163.generator
        tr_q = EccCoprocessor(quiet).point_multiply(0x55, g, max_iterations=3)
        tr_g = EccCoprocessor(glitchy).point_multiply(0x55, g, max_iterations=3)
        assert sum(tr_g.datapath) > sum(tr_q.datapath)

    def test_dedicated_squarer_saves_cycles(self):
        slow = EccCoprocessor(CoprocessorConfig(randomize_z=False))
        fast = EccCoprocessor(
            CoprocessorConfig(randomize_z=False, dedicated_squarer=True)
        )
        g = NIST_K163.generator
        assert (
            fast.point_multiply(5, g, max_iterations=3).cycles
            < slow.point_multiply(5, g, max_iterations=3).cycles
        )

    def test_six_core_registers_on_koblitz(self):
        assert CoprocessorConfig().core_register_count == 6
