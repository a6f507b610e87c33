"""Tests for the gate-count area model."""

import pytest

from repro.arch import (
    AES_ENC_GATES,
    ECC_CORE_GATES_REFERENCE,
    PRESENT80_GATES,
    SHA1_GATES,
    ecc_core_area,
)


class TestAreaModel:
    def test_default_matches_paper_12k(self):
        """The paper: 'an ECC core uses about 12k gates' [10]."""
        area = ecc_core_area()
        assert abs(area.total - ECC_CORE_GATES_REFERENCE) / ECC_CORE_GATES_REFERENCE < 0.10

    def test_breakdown_sums_to_total(self):
        area = ecc_core_area()
        parts = area.as_dict()
        total = parts.pop("total")
        assert sum(parts.values()) == pytest.approx(total)

    def test_registers_dominate(self):
        """Six 163-bit registers are the largest single block."""
        area = ecc_core_area()
        assert area.registers > area.multiplier
        assert area.registers > 0.4 * area.total

    def test_area_grows_with_digit_size(self):
        areas = [ecc_core_area(digit_size=d).total for d in (1, 2, 4, 8, 16)]
        assert areas == sorted(areas)

    def test_dedicated_squarer_costs_area(self):
        base = ecc_core_area(dedicated_squarer=False)
        with_squarer = ecc_core_area(dedicated_squarer=True)
        assert with_squarer.total > base.total
        assert with_squarer.squarer > 0
        assert base.squarer == 0

    def test_extra_register_costs_about_one_kge(self):
        """The 7th (sqrt b) register on non-Koblitz curves ~ 1 kGE."""
        six = ecc_core_area(register_count=6).total
        seven = ecc_core_area(register_count=7).total
        assert 900 < seven - six < 1100

    def test_larger_field_costs_more(self):
        assert ecc_core_area(m=233).total > ecc_core_area(m=163).total

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ecc_core_area(digit_size=0)
        with pytest.raises(ValueError):
            ecc_core_area(m=4, digit_size=8)
        with pytest.raises(ValueError):
            ecc_core_area(register_count=0)

    def test_reference_constants(self):
        """The published anchors of the Section 4 discussion."""
        assert SHA1_GATES == 5527
        assert AES_ENC_GATES < SHA1_GATES < ECC_CORE_GATES_REFERENCE

    def test_hash_cheaper_than_ecc_but_not_free(self):
        """Section 4: hashes are NOT negligibly cheap vs an ECC core —
        SHA-1 is nearly half the ECC core's size."""
        assert SHA1_GATES > 0.4 * ecc_core_area().total

    def test_present_is_the_smallest(self):
        """The Section 4 budget ladder: PRESENT << AES < SHA-1 << ECC."""
        assert PRESENT80_GATES < AES_ENC_GATES < SHA1_GATES

    def test_present_fraction_of_ecc(self):
        assert PRESENT80_GATES < 0.15 * ecc_core_area().total

    def test_digit_size_growth_is_the_multiplier(self):
        """Doubling d grows the digit-serial multiplier; the register
        file and control do not depend on the digit size."""
        sweep = [ecc_core_area(digit_size=d) for d in (1, 2, 4, 8, 16)]
        multipliers = [a.multiplier for a in sweep]
        assert multipliers == sorted(multipliers)
        assert multipliers[0] < multipliers[-1]
        for a, b in zip(sweep, sweep[1:]):
            assert b.registers == a.registers
            assert b.total - a.total == pytest.approx(
                b.multiplier - a.multiplier)

    def test_papers_choice_anchors_the_12_kge_core(self):
        """The d = 4 configuration is what the '~12k gates' reference
        describes; no smaller digit size reaches the anchor."""
        d4 = ecc_core_area(digit_size=4).total
        assert d4 == pytest.approx(ECC_CORE_GATES_REFERENCE, rel=0.10)
        assert ecc_core_area(digit_size=1).total < d4
