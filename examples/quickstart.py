"""Quickstart: the library in five minutes.

Walks the stack bottom-up: field arithmetic, curve points, the
side-channel-hardened Montgomery ladder, the cycle-accurate coprocessor
and the calibrated energy model reproducing the paper's headline
numbers (50.4 uW, 5.1 uJ per point multiplication, 9.8 PM/s).

Run:  python examples/quickstart.py
"""

import random

from repro.arch import CoprocessorConfig, EccCoprocessor
from repro.ec import NIST_K163, generate_keypair, montgomery_ladder
from repro.gf2m import BinaryField, reduction_polynomial
from repro.power import calibrate_energy_model


def main() -> None:
    rng = random.Random(2013)

    # ---------------------------------------------------------------- field
    print("=== GF(2^163), the paper's field ===")
    field = BinaryField(163, reduction_polynomial(163))
    a = field.random_element(rng)
    b = field.random_element(rng)
    product = a * b
    print(f"a * b            = {hex(product.value)[:20]}...")
    print(f"a * a^-1         = {hex((a * a.inverse()).value)} (must be 0x1)")
    print(f"sqrt(a^2) == a   : {a.square().sqrt() == a}")

    # ---------------------------------------------------------------- curve
    print("\n=== NIST K-163, the paper's Koblitz curve ===")
    curve, G, n = NIST_K163.curve, NIST_K163.generator, NIST_K163.order
    print(f"curve: {curve}")
    print(f"group order (prime): {hex(n)[:24]}... ({n.bit_length()} bits)")
    k = NIST_K163.scalar_ring.random_scalar(rng)
    Q = montgomery_ladder(curve, k, G, rng=rng)  # randomized-Z ladder
    print(f"k*G on curve     : {curve.is_on_curve(Q)}")
    print(f"matches reference: {Q == curve.multiply_naive(k, G)}")

    keypair = generate_keypair(NIST_K163, rng)
    print(f"generated key pair: {keypair}")

    # ---------------------------------------------------------- coprocessor
    print("\n=== The coprocessor (cycle-accurate, full countermeasures) ===")
    coprocessor = EccCoprocessor(CoprocessorConfig())
    trace = coprocessor.point_multiply(k, G, rng=rng)
    print(f"result matches the pure-algorithm ladder: {trace.result == Q}")
    print(f"cycles per point multiplication: {trace.cycles}")
    print(f"ladder iterations (constant for every key): "
          f"{len(trace.iterations)}")
    print(f"secure-zone registers: "
          f"{coprocessor.config.core_register_count} x 163 bits")

    # --------------------------------------------------------------- energy
    print("\n=== Energy at the paper's operating point ===")
    model = calibrate_energy_model(coprocessor)
    report = model.report(trace)
    print(report)
    print("paper:  50.4 uW, 5.10 uJ, 9.80 op/s  (UMC 0.13um, 847.5 kHz, 1 V)")


if __name__ == "__main__":
    main()
