"""E8 — implementation-size budget (Section 4).

Paper: "protocol designers tend to believe that hash functions are
very cheap in hardware ...  For the most recent generation of hash
functions, this is no longer true.  The smallest SHA-1 implementation
[12] uses 5527 gates, while an ECC core uses about 12k gates [10]."

The bench regenerates the gate-count comparison from the parametric
area model and prints the ECC core breakdown.
"""

from _helpers import write_report

from repro.arch import (
    AES_ENC_GATES,
    ECC_CORE_GATES_REFERENCE,
    PRESENT80_GATES,
    SHA1_GATES,
    ecc_core_area,
)


def run_experiment():
    ecc = ecc_core_area()  # K-163, d = 4, six registers
    ecc_b163 = ecc_core_area(register_count=7)  # non-Koblitz needs sqrt(b)
    ecc_233 = ecc_core_area(m=233, register_count=6)
    return ecc, ecc_b163, ecc_233


def test_e8_area(benchmark):
    ecc, ecc_b163, ecc_233 = benchmark.pedantic(run_experiment, rounds=1,
                                                iterations=1)
    lines = [
        "E8  Hardware size budget (Section 4, refs [10][12])",
        "-" * 62,
        f"{'core':<34}{'gates (GE)':>14}",
        f"{'PRESENT-80 (Bogdanov et al.)':<34}{PRESENT80_GATES:>14}",
        f"{'AES-128 encryption (Feldhofer)':<34}{AES_ENC_GATES:>14}",
        f"{'SHA-1 (O-Neill, paper ref [12])':<34}{SHA1_GATES:>14}",
        f"{'ECC K-163 core (model, d=4)':<34}{ecc.total:>14.0f}",
        f"{'ECC core, paper ref [10]':<34}{ECC_CORE_GATES_REFERENCE:>14}",
        f"{'ECC B-163 (7 registers)':<34}{ecc_b163.total:>14.0f}",
        f"{'ECC K-233 (next security level)':<34}{ecc_233.total:>14.0f}",
        "-" * 62,
        "K-163 core breakdown:",
    ]
    for block, gates in ecc.as_dict().items():
        lines.append(f"  {block:<22}{gates:>10.0f} GE")
    ratio = SHA1_GATES / ecc.total
    lines.append("-" * 62)
    lines.append(
        f"SHA-1 is {ratio:.0%} of the ECC core — hashes are NOT "
        "negligibly cheap (the paper's protocol-design caveat)."
    )
    write_report("e8_area", lines)

    assert abs(ecc.total - ECC_CORE_GATES_REFERENCE) < 0.1 * ECC_CORE_GATES_REFERENCE
    assert PRESENT80_GATES < AES_ENC_GATES < SHA1_GATES < ecc.total
    assert 0.35 < ratio < 0.60
    assert ecc_b163.total > ecc.total        # the sqrt(b) register costs
    assert ecc_233.total > ecc.total         # security scaling costs area
