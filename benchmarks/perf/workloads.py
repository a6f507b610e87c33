"""The benchmark's workloads: seeded inputs, one timed step, output checks.

Every workload is a closed loop with one client: the next step starts
when the previous one has returned, in one process, with no worker
pools (``AcquisitionEngine(workers=1)`` runs shards inline and
``run_fleet(workers=0)`` runs sessions in-process).  A step's inputs
depend only on ``(seed, workload, step index)``, so step ``i`` computes
the same outputs in every run, traced or not.

A workload object is built once (that is the set-up the benchmark
times) and then offers:

* ``step(i)`` -> ``(latencies_s, output)``: one unit of work, with the
  host time of each operation in it;
* ``check(output)`` -> ``(ok, digest)``: the seed-independent checks
  and a digest of the simulated outputs, run outside the timed window;
* ``ops_per_step``: operations per step (what ``attempted`` counts);
* ``trace_steps`` / ``pin_steps``: steps of a traced run (sized by
  steps, not time, so its counts repeat exactly) and steps whose
  digests ``expected.json`` pins;
* ``overheads()``: host time the campaign engine or the fleet spends
  outside the operations themselves, for the per-layer report.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import random
import shutil
from time import perf_counter

__all__ = ["WORKLOADS", "derive_seed", "K163_POINT_MULT_CYCLES"]

#: Cycles of every K-163 point multiplication at the paper's defaults
#: (the constant-time property: independent of scalar and base point).
K163_POINT_MULT_CYCLES = 85_698


def derive_seed(seed: int, workload: str, index: int) -> int:
    """A 64-bit seed for one step of one workload."""
    message = f"perfbench/{seed}/{workload}/{index}".encode()
    return int.from_bytes(hashlib.sha256(message).digest()[:8], "big")


def _digest(*parts) -> str:
    return hashlib.sha256("|".join(map(str, parts)).encode()).hexdigest()


class Workload:
    """Defaults shared by the workloads."""

    ops_per_step = 1
    trace_steps = pin_steps = 1

    def session_timer(self):
        return contextlib.nullcontext()

    def overheads(self) -> dict:
        return {"engine_overhead_s": 0.0, "fleet_overhead_s": 0.0}

    def close(self) -> None:
        pass


class PointMult(Workload):
    """Priced K-163 point multiplications on the cycle-level coprocessor
    at the paper's defaults (d=4, randomized Z, y-recovery)."""

    name = "pointmult-k163"
    trace_steps, pin_steps = 4, 8

    def __init__(self, seed: int, workdir: str):
        from repro.arch import CoprocessorConfig, EccCoprocessor
        from repro.campaign import random_protocol_point
        from repro.ec.ladder import montgomery_ladder
        from repro.power import calibrate_energy_model

        self.seed = seed
        self.coprocessor = EccCoprocessor(CoprocessorConfig())
        self.energy = calibrate_energy_model(self.coprocessor)
        self._random_point = random_protocol_point
        self._reference = montgomery_ladder

    def step(self, index: int):
        domain = self.coprocessor.domain
        rng = random.Random(derive_seed(self.seed, self.name, index))
        k = domain.scalar_ring.random_scalar(rng)
        point = self._random_point(domain, rng)
        t0 = perf_counter()
        trace = self.coprocessor.point_multiply(k, point, rng=rng)
        report = self.energy.report(trace)
        latency = perf_counter() - t0
        return [latency], (k, point, trace.result, trace.cycles,
                           report.energy_joules * 1e6)

    def check(self, output):
        k, point, result, cycles, uj = output
        expected = self._reference(self.coprocessor.domain.curve, k, point,
                                   randomize_z=False)
        ok = result == expected and cycles == K163_POINT_MULT_CYCLES
        # 12 significant digits: the pinned µJ survives a last-bit
        # difference in the floating-point sum, not a model change.
        return ok, _digest(f"{result.x:x}", f"{result.y:x}", cycles,
                           f"{uj:.12g}")


class DpaCampaign(Workload):
    """A whole unprotected DPA campaign per step: acquire a fresh
    disk-backed store, then attack its leading key bits (paper §7)."""

    name = "dpa-campaign-k163"
    pin_steps = 3
    n_traces, shard_size, n_bits, noise_sigma = 128, 64, 2, 38.0

    def __init__(self, seed: int, workdir: str):
        from repro.campaign import AcquisitionEngine, CampaignSpec, \
            StreamingDpa

        self.seed = seed
        self.workdir = workdir
        self._engine = AcquisitionEngine
        self._spec = CampaignSpec
        self._attack = StreamingDpa
        self._runs = 0
        #: AcquisitionEngine.run wall minus the shards' own wall time
        self.engine_overhead_s = 0.0
        os.makedirs(workdir, exist_ok=True)

    def step(self, index: int):
        spec = self._spec(
            n_traces=self.n_traces, shard_size=self.shard_size,
            scenario="unprotected", max_iterations=self.n_bits,
            noise_sigma=self.noise_sigma,
            seed=derive_seed(self.seed, self.name, index),
        )
        # A fresh directory per run: a reused one would resume, not acquire.
        directory = os.path.join(self.workdir, f"campaign-{self._runs:05d}")
        self._runs += 1
        t0 = perf_counter()
        engine = self._engine(directory, spec, workers=1)
        t1 = perf_counter()
        store = engine.run()
        t2 = perf_counter()
        result = self._attack(store).recover_bits(self.n_bits)
        latency = perf_counter() - t0
        self.engine_overhead_s += (t2 - t1) - sum(
            r.wall_seconds for r in store.shard_records)
        return [latency], (store, result)

    def check(self, output):
        store, result = output
        coverage = store.coverage(verify_digests=True)
        bits = [d.chosen for d in result.decisions]
        ok = coverage.is_complete and all(
            d.chosen == d.true_bit for d in result.decisions)
        shards = [(r.samples_sha256, r.aux_sha256) for r in store.shard_records]
        return ok, _digest(shards, bits)

    def overheads(self) -> dict:
        return {"engine_overhead_s": self.engine_overhead_s,
                "fleet_overhead_s": 0.0}

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


class _Soak(Workload):
    """Rounds of resilient Peeters–Hermans sessions over the lossy
    body-area channel, one ``run_fleet`` call per round."""

    protocol = "peeters-hermans"
    curve = sessions = sweep = None

    def __init__(self, seed: int, workdir: str):
        from repro.protocols import fleet

        self.seed = seed
        self.fleet = fleet
        self.session_times: list = []
        self.fleet_wall_s = 0.0
        self.ops_per_step = self.sessions * len(self.sweep)

    def spec(self, index: int):
        return self.fleet.FleetSpec(
            protocol=self.protocol, curve=self.curve, sessions=self.sessions,
            sweep=self.sweep, seed=derive_seed(self.seed, self.name, index))

    @contextlib.contextmanager
    def session_timer(self):
        """Time every session: one thin wrapper on the fleet's binding of
        ``run_resilient_session``, removed on exit."""
        original = self.fleet.run_resilient_session
        times = self.session_times

        def timed(*args, **kwargs):
            t0 = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                times.append(perf_counter() - t0)

        self.fleet.run_resilient_session = timed
        try:
            yield
        finally:
            self.fleet.run_resilient_session = original

    def step(self, index: int):
        spec = self.spec(index)
        first = len(self.session_times)
        t0 = perf_counter()
        report = self.fleet.run_fleet(spec, workers=0)
        self.fleet_wall_s += perf_counter() - t0
        return self.session_times[first:], report

    def check(self, report):
        ok = (sorted(p.frame_loss for p in report.points)
              == sorted(self.sweep)
              and all(p.sessions == self.sessions for p in report.points))
        return ok, _digest(*(p.digest() for p in report.points))

    def overheads(self) -> dict:
        return {"engine_overhead_s": 0.0,
                "fleet_overhead_s": self.fleet_wall_s - sum(self.session_times)}


class ToySoak(_Soak):
    name = "protocol-soak-toy"
    pin_steps = 4
    curve = "TOY-B17"
    sessions = 50
    sweep = (0.0, 0.1, 0.2)


class K163Soak(_Soak):
    name = "protocol-soak-k163"
    pin_steps = 3
    curve = "K-163"
    sessions = 2
    sweep = (0.0, 0.2)


WORKLOADS = {w.name: w for w in (PointMult, DpaCampaign, ToySoak, K163Soak)}
