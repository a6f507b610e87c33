"""Tests for the double-and-add baseline and its operation sequence."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ec import NIST_K163, double_and_add

small_scalars = st.integers(min_value=1, max_value=100_000)


class TestAlgorithmsAgree:
    @given(small_scalars)
    @settings(max_examples=10, deadline=None)
    def test_all_algorithms_match_reference(self, k):
        curve, g = NIST_K163.curve, NIST_K163.generator
        expected = curve.multiply_naive(k, g)
        assert double_and_add(curve, k, g) == expected

    def test_zero_and_negative(self):
        curve, g = NIST_K163.curve, NIST_K163.generator
        assert double_and_add(curve, 0, g).is_infinity
        minus = curve.negate(curve.multiply_naive(9, g))
        assert double_and_add(curve, -9, g) == minus


class TestOperationSequences:
    """The algorithm-level side-channel profiles (Section 4)."""

    def test_double_and_add_leaks_hamming_weight(self):
        curve, g = NIST_K163.curve, NIST_K163.generator
        k = 0b1011010111
        ops = []
        double_and_add(curve, k, g, operations=ops)
        assert ops.count("A") == bin(k).count("1") - 1
        assert ops.count("D") == k.bit_length() - 1

    def test_double_and_add_sequence_reveals_key(self):
        """An SPA adversary reading D/DA patterns recovers every bit."""
        curve, g = NIST_K163.curve, NIST_K163.generator
        k = 0b110100111011
        ops = []
        double_and_add(curve, k, g, operations=ops)
        recovered_bits = [1]
        i = 0
        while i < len(ops):
            assert ops[i] == "D"
            if i + 1 < len(ops) and ops[i + 1] == "A":
                recovered_bits.append(1)
                i += 2
            else:
                recovered_bits.append(0)
                i += 1
        recovered = int("".join(map(str, recovered_bits)), 2)
        assert recovered == k
