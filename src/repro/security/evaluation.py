"""The white-box security evaluation harness (Section 7 / Figure 4).

"A security evaluation typically starts with a white-box evaluation of
a prototype chip": the evaluator knows every implementation detail,
controls the randomness, and runs the full attack battery.  This
harness does exactly that against any coprocessor configuration:

1. timing — cycle counts over many keys (constant?),
2. SPA — single-trace clustering on the control channel,
3. DPA — difference-of-means in the unprotected / known-randomness /
   protected scenarios,
4. TVLA — fixed-vs-random t-test screen over the iteration windows.

The verdict strings mirror the paper's findings for the protected
default configuration: timing-immune, SPA-resistant (modulo the
profiled residual), DPA-resistant with randomization on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dataclass_field
from typing import Optional

import numpy as np

from ..arch.coprocessor import CoprocessorConfig, EccCoprocessor
from ..campaign.acquire import acquire_in_memory, random_protocol_point
from ..campaign.streaming import StreamingDpa
from ..ec.ladder import choose_z
from ..power.simulator import PowerTraceSimulator
from ..sca.spa import transition_spa
from ..sca.timing import coprocessor_timing_report
from ..sca.ttest import tvla_fixed_vs_random
from .pyramid import pyramid_for_config

__all__ = ["AttackFinding", "EvaluationReport", "WhiteBoxEvaluation"]


@dataclass(frozen=True)
class AttackFinding:
    """One attack's outcome against the device under evaluation."""

    attack: str
    resistant: bool
    detail: str


@dataclass
class EvaluationReport:
    """Full white-box evaluation outcome."""

    configuration: str
    findings: list = dataclass_field(default_factory=list)

    @property
    def all_resistant(self) -> bool:
        """True when no attack succeeded."""
        return all(f.resistant for f in self.findings)

    def finding(self, attack: str) -> AttackFinding:
        """Look up one attack's finding."""
        for f in self.findings:
            if f.attack == attack:
                return f
        raise KeyError(f"no finding for attack {attack!r}")

    def render(self) -> str:
        """Human-readable report."""
        lines = [f"White-box evaluation: {self.configuration}", "=" * 64]
        for f in self.findings:
            verdict = "RESISTANT " if f.resistant else "VULNERABLE"
            lines.append(f"  [{verdict}] {f.attack}: {f.detail}")
        lines.append("=" * 64)
        lines.append(
            "overall: " + ("all attacks defeated" if self.all_resistant
                           else "open attack paths remain")
        )
        return "\n".join(lines)


class WhiteBoxEvaluation:
    """Runs the attack battery against one coprocessor configuration.

    Parameters
    ----------
    config:
        The design point to evaluate.
    noise_sigma:
        Measurement noise of the virtual oscilloscope.
    n_traces:
        DPA/TVLA campaign size (the unit-scale default keeps the
        harness fast; benches crank it up to paper scale).
    n_bits:
        Key bits targeted by the DPA stage.
    seed:
        Master seed; the whole evaluation is reproducible.
    """

    def __init__(self, config: Optional[CoprocessorConfig] = None,
                 noise_sigma: float = 38.0, n_traces: int = 120,
                 n_bits: int = 2, seed: int = 2013):
        self.config = config or CoprocessorConfig()
        self.coprocessor = EccCoprocessor(self.config)
        self.noise_sigma = noise_sigma
        self.n_traces = n_traces
        self.n_bits = n_bits
        self.seed = seed

    # ------------------------------------------------------------------

    def evaluate_timing(self) -> AttackFinding:
        """Cycle-count constancy over random keys."""
        rng = random.Random(self.seed)
        ring = self.coprocessor.domain.scalar_ring
        keys = [ring.random_scalar(rng) for _ in range(4)] + [1]
        report = coprocessor_timing_report(self.coprocessor, keys)
        return AttackFinding(
            attack="timing",
            resistant=report.is_constant_time,
            detail=(
                f"cycle counts over {len(keys)} keys: "
                f"{sorted(set(report.cycle_counts))}"
            ),
        )

    def evaluate_spa(self) -> AttackFinding:
        """Single-trace clustering SPA on the control channel."""
        rng = random.Random(self.seed + 1)
        sim = PowerTraceSimulator(noise_sigma=self.noise_sigma,
                                  seed=self.seed + 1)
        domain = self.coprocessor.domain
        key = domain.scalar_ring.random_scalar(rng)
        execution = self.coprocessor.point_multiply(
            key, domain.generator,
            initial_z=choose_z(domain.field, rng, True, None),
        )
        result = transition_spa(sim.measure(execution),
                                execution.iteration_slices(),
                                execution.key_bits)
        error_rate = result.bit_errors / len(result.true_bits)
        return AttackFinding(
            attack="spa",
            resistant=error_rate > 0.25,
            detail=f"single-trace clustering bit error rate {error_rate:.0%}",
        )

    def evaluate_dpa(self) -> AttackFinding:
        """DPA in the configuration's own randomization scenario."""
        rng = random.Random(self.seed + 2)
        sim = PowerTraceSimulator(noise_sigma=self.noise_sigma,
                                  seed=self.seed + 2)
        domain = self.coprocessor.domain
        key = domain.scalar_ring.random_scalar(rng)
        points = [random_protocol_point(domain, rng)
                  for _ in range(self.n_traces)]
        scenario = "protected" if self.config.randomize_z else "unprotected"
        traces = acquire_in_memory(self.coprocessor, sim, key, points,
                                   rng=rng, scenario=scenario,
                                   max_iterations=self.n_bits + 1)
        result = StreamingDpa(traces).recover_bits(self.n_bits)
        # The DoM statistic is Welch-normalized, so the TVLA 4.5
        # threshold applies: a "successful" recovery whose peaks sit at
        # the max-over-cycles noise floor is a coin flip, not a break.
        peaks = [float(p) for p in result.peak_statistics]
        return AttackFinding(
            attack="dpa",
            resistant=not result.significant_success(4.5),
            detail=(
                f"{scenario} scenario, {self.n_traces} traces: "
                f"{result.num_correct}/{self.n_bits} bits recovered, "
                f"peak statistics {[round(p, 1) for p in peaks]}"
            ),
        )

    def _secret_dependent_cycle_mask(self, n_cycles: int) -> np.ndarray:
        """Cycles whose activity may carry *secret*-dependent data.

        A white-box evaluator knows the (constant) instruction
        schedule, so it excludes the cycles where the datapath is
        driven directly by the public base point (operand loads and
        multiplications reading the XB register) — their trivially
        input-dependent activity would otherwise drown the assessment.
        """
        from ..arch.coprocessor import XB
        from ..arch.isa import Opcode

        reference = self.coprocessor.point_multiply(
            3, self.coprocessor.domain.generator, initial_z=1,
            max_iterations=2,
        )
        mask = np.ones(n_cycles, dtype=bool)
        for instr in reference.instructions:
            public = instr.opcode is Opcode.LDI or XB in (instr.ra, instr.rb)
            if public:
                end = min(instr.start_cycle + instr.cycles, n_cycles)
                mask[instr.start_cycle:end] = False
        return mask

    def evaluate_tvla(self) -> AttackFinding:
        """Fixed-vs-random-input t-test over secret-dependent cycles.

        With the Z-randomization off, the ladder intermediates are a
        deterministic function of the input, so the fixed-input
        population's mean activity deviates measurably from the
        random-input population's — the test flags the DPA channel.
        With the countermeasure on, the intermediates are masked by
        the random Z in *both* populations and the test comes back
        clean.  Cycles carrying the raw public operand are excluded
        (see :meth:`_secret_dependent_cycle_mask`).
        """
        rng = random.Random(self.seed + 3)
        sim = PowerTraceSimulator(noise_sigma=self.noise_sigma,
                                  seed=self.seed + 3)
        domain = self.coprocessor.domain
        key = domain.scalar_ring.random_scalar(rng)
        half = max(10, self.n_traces // 2)
        fixed_point = random_protocol_point(domain, rng)
        scenario = "protected" if self.config.randomize_z else "unprotected"
        fixed = acquire_in_memory(self.coprocessor, sim, key,
                                  [fixed_point] * half, rng=rng,
                                  scenario=scenario, max_iterations=2)
        random_points = [random_protocol_point(domain, rng)
                         for _ in range(half)]
        randoms = acquire_in_memory(self.coprocessor, sim, key,
                                    random_points, rng=rng,
                                    scenario=scenario, max_iterations=2)
        mask = self._secret_dependent_cycle_mask(fixed.samples.shape[1])
        report = tvla_fixed_vs_random(fixed.samples[:, mask],
                                      randoms.samples[:, mask])
        return AttackFinding(
            attack="tvla",
            resistant=not report.leaks,
            detail="fixed vs random input (secret-dependent cycles): "
                   + str(report),
        )

    def run(self) -> EvaluationReport:
        """Full battery, in the Figure 4 order."""
        pyramid = pyramid_for_config(self.config)
        open_doors = ", ".join(t.name for t in pyramid.uncovered_threats()) \
            or "none"
        report = EvaluationReport(
            configuration=(
                f"{self.coprocessor.domain.name}, d={self.config.digit_size}, "
                f"randomize_z={self.config.randomize_z}, "
                f"pyramid open doors: {open_doors}"
            )
        )
        report.findings.append(self.evaluate_timing())
        report.findings.append(self.evaluate_spa())
        report.findings.append(self.evaluate_dpa())
        report.findings.append(self.evaluate_tvla())
        return report
