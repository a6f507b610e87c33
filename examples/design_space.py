"""Scenario: the designer's walk through the security pyramid.

The paper's methodology as an interactive script, now answered by the
:mod:`repro.dse` engine: explore the paper-aligned design space (digit
size x Vdd x frequency x countermeasures), read the digit-size
trade-off out of the evaluated grid, ask the constrained Pareto query
the paper's Section 5 answers with d = 4, then inspect the
threat-vs-countermeasure coverage and run the white-box evaluation
battery on design points to see which "open doors" the attacks
actually walk through.

Run:  python examples/design_space.py    (about 8 s cold
on one core; re-runs hit the measurement cache under results/dse and
take about 3 s)
"""

import pathlib

from repro.arch import CoprocessorConfig, UnbalancedEncoding
from repro.dse import DesignSpaceSpec, ExplorationEngine
from repro.security import WhiteBoxEvaluation, pyramid_for_config

RESULTS = pathlib.Path(__file__).resolve().parent.parent / "results"


def main() -> None:
    # ------------------------------------------------ explore the space
    print("=== The paper's design space as a Pareto query (Section 5) ===")
    spec = DesignSpaceSpec()       # the paper-aligned defaults
    directory = RESULTS / "dse" / f"example-{spec.digest()}"
    result = ExplorationEngine(str(directory), spec).run()
    print(f"{len(result.rows)} operating points from "
          f"{result.evaluated + result.cached} measurements "
          f"({result.cached} cached)\n")

    print("--- the digit-size trade-off at 847.5 kHz / 1.0 V, protected ---")
    print(f"{'d':>4}{'area (GE)':>12}{'latency':>12}{'power':>12}"
          f"{'energy/PM':>12}")
    for row in result.rows:
        if (row["vdd"] != 1.0 or row["frequency_hz"] != 847.5e3
                or row["countermeasures"] != "full"):
            continue
        marker = "  <- paper's choice" if row["digit_size"] == 4 else ""
        print(f"{row['digit_size']:>4}{row['area_ge']:>12.0f}"
              f"{row['latency_s'] * 1e3:>9.1f} ms"
              f"{row['power_uw']:>9.1f} uW"
              f"{row['energy_uj']:>9.2f} uJ{marker}")

    print("\n--- Pareto-optimal under the 105 ms + full-security "
          "constraints ---")
    for row in result.front:
        print(f"  {row['id']}: {row['area_ge']:.0f} GE, "
              f"{row['latency_s'] * 1e3:.1f} ms, {row['power_uw']:.1f} uW, "
              f"{row['energy_uj']:.2f} uJ, security {row['security']:.2f}")
    print("(the paper's d = 4 / 1.0 V / 847.5 kHz design, recovered as the "
          "unique constrained optimum)")

    # -------------------------------------------------------- the pyramid
    print("\n=== The security pyramid for the full design (Figure 1) ===")
    full = pyramid_for_config(CoprocessorConfig())
    print(full.report())

    print("\n=== ...and for a cost-cut variant ===")
    cheap = CoprocessorConfig(randomize_z=False,
                              mux_encoding=UnbalancedEncoding())
    print(pyramid_for_config(cheap).report())

    # ------------------------------------------------- white-box evaluation
    print("\n=== White-box evaluation of the cost-cut variant (Figure 4) ===")
    report = WhiteBoxEvaluation(cheap, n_traces=60, n_bits=2, seed=99).run()
    print(report.render())
    print("\nThe pyramid predicted the open doors; the lab confirmed them.")


if __name__ == "__main__":
    main()
