"""Gate-count area model (in NAND2-equivalent gate equivalents, GE).

Section 4's implementation-size discussion anchors on two published
numbers: the smallest SHA-1 core is 5 527 gates [12] and "an ECC core
uses about 12k gates" [10].  This model reproduces the ECC number from
a parametric breakdown (multiplier, registers, control) so the digit-
size sweep of E2 has a defensible area axis, and exposes the reference
constants for the E8 budget bench.

GE costs per cell are conventional standard-cell figures (NAND2 = 1).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "GateCosts",
    "AreaBreakdown",
    "ecc_core_area",
    "SHA1_GATES",
    "AES_ENC_GATES",
    "PRESENT80_GATES",
    "ECC_CORE_GATES_REFERENCE",
]

#: O'Neill 2008 — smallest SHA-1 for RFID tags (paper reference [12]).
SHA1_GATES = 5527

#: Feldhofer et al. — compact AES-128 encryption core, for comparison.
AES_ENC_GATES = 3400

#: Bogdanov et al. (CHES 2007) — the original PRESENT-80 implementation.
PRESENT80_GATES = 1570

#: The paper's quoted ECC core size (reference [10]).
ECC_CORE_GATES_REFERENCE = 12_000


@dataclass(frozen=True)
class GateCosts:
    """GE cost of each standard cell used by the model."""

    and2: float = 1.5
    xor2: float = 2.5
    mux2: float = 2.5
    dff: float = 6.0


@dataclass(frozen=True)
class AreaBreakdown:
    """Per-block gate counts of one coprocessor configuration."""

    multiplier: float
    squarer: float
    registers: float
    control: float
    mux_network: float
    io_interface: float

    @property
    def total(self) -> float:
        """Total core area in GE."""
        return (
            self.multiplier
            + self.squarer
            + self.registers
            + self.control
            + self.mux_network
            + self.io_interface
        )

    def as_dict(self) -> dict:
        """Breakdown as a plain dict (for report printing)."""
        return {
            "multiplier": self.multiplier,
            "squarer": self.squarer,
            "registers": self.registers,
            "control": self.control,
            "mux_network": self.mux_network,
            "io_interface": self.io_interface,
            "total": self.total,
        }


def ecc_core_area(
    m: int = 163,
    digit_size: int = 4,
    register_count: int = 6,
    modulus_weight: int = 5,
    mux_fanout: int = 164,
    dedicated_squarer: bool = False,
    costs: GateCosts = GateCosts(),
) -> AreaBreakdown:
    """Parametric gate count of the ECC coprocessor core.

    Model:

    * digit-serial multiplier — ``m * d`` partial-product ANDs, an
      ``m * d`` XOR accumulation tree, ``(w - 2) * d`` reduction XORs
      for a weight-``w`` modulus, and an ``m``-bit accumulator register;
    * optional dedicated squarer — a combinational spread/reduce XOR
      network of about ``1.5 m`` XORs;
    * register file — ``count * m`` flip-flops;
    * control — microcode sequencer, loop counter and decoder
      (constant), plus the key-bit multiplexer network of ``fanout``
      2:1 muxes (Figure 3);
    * I/O — bus interface and the two host-buffer slots.

    With the defaults (K-163, d = 4, six registers) the total lands
    within a few percent of the paper's quoted 12 k gates.
    """
    if m < 1 or digit_size < 1 or digit_size > m:
        raise ValueError("invalid field degree / digit size")
    if register_count < 1:
        raise ValueError("need at least one register")
    multiplier = (
        m * digit_size * costs.and2
        + m * digit_size * costs.xor2
        + (modulus_weight - 2) * digit_size * costs.xor2
        + m * costs.dff  # accumulator
    )
    squarer = 1.5 * m * costs.xor2 if dedicated_squarer else 0.0
    registers = register_count * m * costs.dff
    control = 1500.0 + 64 * costs.dff  # sequencer + counters
    mux_network = mux_fanout * costs.mux2
    io_interface = 500.0
    return AreaBreakdown(
        multiplier=multiplier,
        squarer=squarer,
        registers=registers,
        control=control,
        mux_network=mux_network,
        io_interface=io_interface,
    )
