"""The activity predictor's carried register files against full replays.

``ActivityPredictor`` resumes each prediction from the batch register
file it kept after the known prefix (``BatchCoprocessor.resume_ladder``)
instead of replaying the coprocessor from the prologue.  Every
prediction row must still equal, sample for sample, the window of a
full scalar ``replay_padded`` run under ``[1] + prefix + [hypothesis]``,
whatever order the predictions are asked for in.  Most requests below
are one-point shards, so each trace's prefix and hypothesis vary on
their own.  The attacks built on the predictor must reach the
decisions recorded with the full-replay predictor
(``attack_decisions_golden.json``), statistics included.
"""

import json
import random
import tempfile
from pathlib import Path

import numpy as np
import pytest

from repro.arch import CoprocessorConfig, EccCoprocessor
from repro.arch.batch import BatchCoprocessor
from repro.arch.control import BalancedEncoding, UnbalancedEncoding
from repro.campaign import (AcquisitionEngine, CampaignSpec, StreamingCpa,
                            StreamingDpa, random_protocol_point)
from repro.ec.curves import get_curve
from repro.sca import ActivityPredictor, bits_to_int

from . import batch_oracle

BITS = 4
ENCODINGS = {"balanced": BalancedEncoding, "unbalanced": UnbalancedEncoding}
CONFIGS = ([("TOY-B17", d, mux) for d in (1, 4, 17) for mux in ENCODINGS]
           + [("K-163", 4, mux) for mux in ENCODINGS])
GOLDEN = json.loads(
    (Path(__file__).with_name("attack_decisions_golden.json")).read_text())


def build(curve, digit_size, mux, **options):
    return EccCoprocessor(CoprocessorConfig(
        domain=get_curve(curve), digit_size=digit_size,
        mux_encoding=ENCODINGS[mux](), **options))


def full_replay(cop, point, prefix, hypothesis, z0):
    """The prediction as a replay from the prologue computes it."""
    bits = [1, *prefix, hypothesis]
    padded = cop.domain.order.bit_length() + 1
    scalar = bits_to_int(bits) << (padded - len(bits))
    replay = cop.replay_padded(scalar, point, initial_z=z0,
                               max_iterations=len(prefix) + 1)
    span = replay.iterations[len(prefix)]
    return (np.asarray(replay.datapath[span.start:span.end])
            + np.asarray(replay.register[span.start:span.end]))


def predict(predictor, point, prefix, hypothesis, z0):
    """One trace's prediction: a one-point shard's only row."""
    return predictor.prediction_matrix([point], list(prefix), hypothesis,
                                       len(prefix), [z0])[0]


def requests(n_points, rng):
    """(point index, prefix, hypothesis) for bits 0..BITS-1: every
    hypothesis under each point's own prefix and under a wrong one."""
    keys = [[rng.getrandbits(1) for _ in range(BITS)]
            for _ in range(n_points)]
    wanted = []
    for index, key in enumerate(keys):
        for bit in range(BITS):
            wrong = key[:bit - 1] + [1 - key[bit - 1]] if bit else []
            for prefix in (key[:bit], wrong):
                for hypothesis in (0, 1):
                    wanted.append((index, tuple(prefix), hypothesis))
    return wanted


@pytest.mark.parametrize("stored_z", [True, False], ids=["stored-z", "z1"])
@pytest.mark.parametrize("curve, d, mux", CONFIGS,
                         ids=[f"{c}-d{d}-{m}" for c, d, m in CONFIGS])
def test_resumed_predictions_equal_full_replays(curve, d, mux, stored_z):
    rng = random.Random(f"{curve}/{d}/{mux}/{stored_z}")
    reference = build(curve, d, mux)
    field = reference.domain.field
    n_points = 2 if curve == "K-163" else 4
    points = [random_protocol_point(reference.domain, rng)
              for _ in range(n_points)]
    z = [field.random_element(rng).value or 1 if stored_z else 1
         for _ in points]
    wanted = requests(n_points, rng)
    expected = {(i, prefix, h): full_replay(reference, points[i], prefix,
                                            h, z[i])
                for i, prefix, h in wanted}

    # In bit order (the attacks' order), then shuffled.
    orders = [sorted(wanted, key=lambda r: len(r[1])), list(wanted)]
    rng.shuffle(orders[1])
    for order in orders:
        predictor = ActivityPredictor(build(curve, d, mux))
        for i, prefix, h in order:
            got = predict(predictor, points[i], prefix, h, z[i])
            assert np.array_equal(got, expected[(i, prefix, h)]), \
                (i, prefix, h)


@pytest.mark.parametrize("curve, d", [("TOY-B17", 4), ("K-163", 4)])
def test_a_deep_first_call_rebuilds_its_prefix(curve, d):
    rng = random.Random(5)
    reference = build(curve, d, "balanced")
    point = random_protocol_point(reference.domain, rng)
    prefix = [1, 0, 1]
    predictor = ActivityPredictor(build(curve, d, "balanced"))
    for h in (1, 0):
        got = predict(predictor, point, prefix, h, 7)
        assert np.array_equal(got, full_replay(reference, point, prefix,
                                               h, 7))
    # Then back to the first bit, and on from there.
    for bit in range(BITS):
        got = predict(predictor, point, prefix[:bit], 0, 7)
        assert np.array_equal(got, full_replay(reference, point,
                                               prefix[:bit], 0, 7))


def test_leaky_options_and_a_non_koblitz_curve():
    """Input isolation off and glitches on, and B-163's extra sqrt(b)
    register, resume like the defaults."""
    rng = random.Random(11)
    for curve, options in (
            ("TOY-B17", {"input_isolation": False, "glitch_factor": 0.4,
                         "dedicated_squarer": True}),
            ("B-163", {})):
        reference = build(curve, 17 if curve == "TOY-B17" else 163,
                          "unbalanced", **options)
        predictor = ActivityPredictor(build(
            curve, reference.config.digit_size, "unbalanced", **options))
        point = random_protocol_point(reference.domain, rng)
        for i, prefix, h in requests(1, rng):
            got = predict(predictor, point, prefix, h, 3)
            assert np.array_equal(got, full_replay(reference, point,
                                                   prefix, h, 3))


def test_shard_predictions_are_its_traces_predictions():
    """A many-point shard's rows equal the traces' own full replays."""
    rng = random.Random(4)
    reference = build("TOY-B17", 4, "unbalanced")
    points = [random_protocol_point(reference.domain, rng) for _ in range(5)]
    z = [rng.randrange(1, 1 << 17) for _ in points]
    predictor = ActivityPredictor(build("TOY-B17", 4, "unbalanced"))
    for prefix in ([], [1], [1, 0]):
        for h in (0, 1):
            got = predictor.prediction_matrix(points, prefix, h,
                                              len(prefix), z)
            want = [full_replay(reference, p, tuple(prefix), h, z0)
                    for p, z0 in zip(points, z)]
            assert np.array_equal(got, np.vstack(want))


def test_one_prologue_and_two_iterations_per_bit_and_trace():
    rng = random.Random(8)
    predictor = ActivityPredictor(build("TOY-B17", 4, "balanced"))
    cop = predictor.coprocessor
    points = [random_protocol_point(cop.domain, rng) for _ in range(6)]
    z = [rng.randrange(2, 1 << 17) for _ in points]
    simulated = {"prologues": 0, "iterations": 0}
    run, resume = cop.run, cop.resume_ladder

    def counted_run(k_padded, shard, z_values, max_iterations=None):
        trace = run(k_padded, shard, z_values, max_iterations)
        simulated["prologues"] += len(shard)
        simulated["iterations"] += len(shard) * len(trace.iterations)
        return trace

    def counted_resume(registers, previous_bit, bits):
        simulated["iterations"] += registers.shape[2] * len(bits)
        return resume(registers, previous_bit, bits)

    cop.run, cop.resume_ladder = counted_run, counted_resume
    prefix = []
    for bit in range(BITS):
        for h in (0, 1):
            predictor.prediction_matrix(points, prefix, h, bit, z)
        prefix.append(1)
    assert simulated == {"prologues": len(points),
                         "iterations": 2 * BITS * len(points)}


def test_files_of_two_depths_at_most():
    rng = random.Random(3)
    cop = build("TOY-B17", 4, "balanced")
    predictor = ActivityPredictor(cop)
    points = [random_protocol_point(cop.domain, rng) for _ in range(5)]
    prefix = []
    for bit in range(6):
        predictor.prediction_matrix(points, prefix, 0, bit)
        predictor.prediction_matrix(points, prefix, 1, bit)
        assert sorted(predictor._files) == [bit, bit + 1]
        # One file per hypothesis, each covering the whole shard.
        files = predictor._files[bit + 1]
        assert len(files) == 2
        assert all(f.shape[2] == len(points) for f in files.values())
        prefix.append(bit % 2)


def test_bad_requests_are_refused():
    cop = build("TOY-B17", 4, "balanced")
    predictor = ActivityPredictor(cop)
    point = random_protocol_point(cop.domain, random.Random(1))
    with pytest.raises(ValueError):
        predictor.prediction_matrix([point], [1], 0, 2, [1])
    with pytest.raises(ValueError):
        predictor.prediction_matrix([point], [], 2, 0, [1])
    with pytest.raises(ValueError):
        predictor.prediction_matrix([point], [], 0, 0, [0])


def test_resume_refuses_a_foreign_register_file():
    cop = BatchCoprocessor(build("TOY-B17", 4, "balanced").config)
    count, limbs = cop.registers.count, 1
    with pytest.raises(ValueError):
        cop.resume_ladder(np.zeros((3, limbs, 1), np.uint64), 1, [0])
    with pytest.raises(ValueError):
        cop.resume_ladder(np.full((count, limbs, 1), 1 << 17, np.uint64),
                          1, [0])
    with pytest.raises(ValueError):
        cop.resume_ladder(np.zeros((count, limbs, 1), np.uint64), 2, [0])


def _decisions(result):
    return [[d.bit_index, d.chosen, d.statistic_zero.hex(),
             d.statistic_one.hex(), d.true_bit] for d in result.decisions]


@pytest.mark.parametrize("scenario, mux", [("known_randomness", "balanced"),
                                           ("unprotected", "unbalanced")])
def test_attack_decisions_equal_the_full_replay_record(scenario, mux):
    spec = CampaignSpec(n_traces=36, shard_size=16, scenario=scenario,
                        seed=2031, max_iterations=BITS, noise_sigma=2.0,
                        curve="TOY-B17", mux_encoding=mux)
    with tempfile.TemporaryDirectory() as directory:
        store = AcquisitionEngine(directory, spec, workers=1).run()
        traces = batch_oracle.load_trace_set(store)
        z = traces.known_randomness
        got = {}
        for name, distinguisher in (
                ("LadderDpa", batch_oracle.difference_of_means),
                ("LadderCpa", batch_oracle.correlation)):
            got[name] = _decisions(batch_oracle.recover_bits(
                traces, BITS, distinguisher, z))
            got[name + "/z1"] = _decisions(batch_oracle.recover_bits(
                traces, BITS, distinguisher))
        for name, cls in (("StreamingDpa", StreamingDpa),
                          ("StreamingCpa", StreamingCpa)):
            attack = cls(store, use_stored_randomness=z is not None)
            got[name] = _decisions(attack.recover_bits(BITS))
            got[name + "/20"] = _decisions(attack.recover_bits(
                3, max_traces=20))
    assert got == GOLDEN[f"{scenario}/{mux}"]
