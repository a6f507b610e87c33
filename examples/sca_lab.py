"""Scenario: the side-channel lab of Figure 4, on your desk.

Recreates the paper's white-box evaluation workflow against two builds
of the coprocessor: the unprotected strawman and the full design.

* SPA: read the whole key from ONE power trace of the strawman;
  watch the balanced encoding shut the channel.
* DPA: run a *campaign* through the ``repro.campaign`` engine — a
  worker pool acquires sharded, digest-verified traces to disk and the
  streaming DPA consumes them shard by shard; watch the countermeasure
  push the statistics to the noise floor.

Run:  python examples/sca_lab.py       (about 5 s)
"""

import random
import shutil
import tempfile

from repro.arch import (
    BalancedEncoding,
    CoprocessorConfig,
    EccCoprocessor,
    UnbalancedEncoding,
)
from repro.campaign import (
    AcquisitionEngine,
    CampaignSpec,
    ConsoleReporter,
    StreamingDpa,
)
from repro.power import PowerTraceSimulator
from repro.sca import transition_spa

NOISE_SIGMA = 38.0
WORKERS = 2


def main() -> None:
    rng = random.Random(1)

    # ------------------------------------------------------------------ SPA
    print("=== SPA: one trace, whole key (unbalanced mux encoding) ===")
    strawman = EccCoprocessor(CoprocessorConfig(
        mux_encoding=UnbalancedEncoding(), randomize_z=True,
    ))
    secret = strawman.domain.scalar_ring.random_scalar(rng)
    scope = PowerTraceSimulator(noise_sigma=NOISE_SIGMA, seed=7)
    execution = strawman.point_multiply(secret, strawman.domain.generator,
                                        rng=rng)
    spa = transition_spa(scope.measure(execution),
                         execution.iteration_slices(), execution.key_bits)
    print(f"recovered {len(spa.recovered_bits)} ladder bits with "
          f"{spa.bit_errors} errors from a single trace")

    print("\n=== Same attack vs the balanced encoding ===")
    hardened = EccCoprocessor(CoprocessorConfig(
        mux_encoding=BalancedEncoding(), randomize_z=True,
    ))
    execution = hardened.point_multiply(secret, hardened.domain.generator,
                                        rng=rng)
    spa = transition_spa(scope.measure(execution),
                         execution.iteration_slices(), execution.key_bits)
    print(f"bit errors: {spa.bit_errors}/{len(spa.true_bits)} "
          "(~50% = the attacker is guessing)")

    # ------------------------------------------------------------------ DPA
    # The DPA part runs through the campaign engine: a worker pool writes
    # sharded traces to disk, and the streaming attack reads them back one
    # shard (one iteration window) at a time.
    workspace = tempfile.mkdtemp(prefix="sca-lab-")
    try:
        print(f"\n=== DPA campaign: countermeasure OFF "
              f"({WORKERS} workers, disk-backed) ===")
        spec = CampaignSpec(n_traces=120, shard_size=30,
                            scenario="unprotected", key=secret,
                            max_iterations=3, noise_sigma=NOISE_SIGMA, seed=1)
        store = AcquisitionEngine(f"{workspace}/unprotected", spec,
                                  workers=WORKERS,
                                  reporter=ConsoleReporter()).run()
        result = StreamingDpa(store).recover_bits(2)
        print(f"first 2 ladder bits recovered: {result.recovered_bits} "
              f"(truth {result.true_bits})")
        peaks = [round(p, 1) for p in result.peak_statistics]
        print(f"peak statistics: {peaks} (> 4.5 = significant)")

        print("\n=== DPA campaign: countermeasure ON (randomized Z) ===")
        spec = CampaignSpec(n_traces=120, shard_size=30,
                            scenario="protected", key=secret,
                            max_iterations=3, noise_sigma=NOISE_SIGMA, seed=1)
        store = AcquisitionEngine(f"{workspace}/protected", spec,
                                  workers=WORKERS,
                                  reporter=ConsoleReporter()).run()
        result = StreamingDpa(store).recover_bits(2)
        peaks = [round(p, 1) for p in result.peak_statistics]
        print(f"peak statistics: {peaks} "
              "(noise floor — the attack has nothing to grab)")
        print(f"significant success: {result.significant_success()}")
    finally:
        shutil.rmtree(workspace, ignore_errors=True)
    print("\nThis is Section 7 in miniature: DPA succeeds without the "
          "randomized projective coordinates and collapses with them.")


if __name__ == "__main__":
    main()
