"""Epoch-bounded session amortization: determinism, energy honesty.

The contract under test: one amortized session is a pure function of
``(spec, frame_loss, session_index)``; the soak's summary facts are
byte-identical across worker counts; the traced span tree decomposes
the microjoules exactly; and the battery-life extension anchors at
1.0 when the epoch is one message (the design *is* the
handshake-per-message baseline there).
"""

import os

import pytest

from repro.obs import runtime as obs_runtime
from repro.obs.report import load_spans
from repro.protocols import (
    AmortizedSpec,
    derive_session_key,
    run_amortized_session,
    run_amortized_soak,
)

SPEC = AmortizedSpec(curve="TOY-B17", seed=2013, epoch_messages=4,
                     messages=12, sessions=2, sweep=(0.0, 0.2))


class TestSpec:
    def test_validation(self):
        with pytest.raises(ValueError, match="epoch_messages"):
            AmortizedSpec(epoch_messages=0)
        with pytest.raises(ValueError, match="protocol"):
            AmortizedSpec(protocol="dtls")
        with pytest.raises(ValueError, match="backend"):
            AmortizedSpec(backend="aes-gcm")
        with pytest.raises(ValueError):
            AmortizedSpec(sweep=(1.0,))
        with pytest.raises(ValueError, match="repeats a loss rate"):
            AmortizedSpec(sweep=(0.1, 0.1))
        with pytest.raises(ValueError, match="share the label 0.1"):
            AmortizedSpec(sweep=(0.1000001, 0.1))

    def test_score_design_posture_duck_typing(self):
        # The spec *is* a session posture: a finite epoch and the
        # Peeters-Hermans private handshake.
        assert SPEC.rekey_epoch == SPEC.epoch_messages
        assert SPEC.private_identification is True
        assert AmortizedSpec(
            protocol="schnorr").private_identification is False

    def test_handshake_count(self):
        assert SPEC.handshakes == 3  # ceil(12 / 4)
        assert AmortizedSpec(epoch_messages=100,
                             messages=12).handshakes == 1


class TestSessionKeys:
    def test_deterministic_and_distinct_per_epoch(self):
        a = derive_session_key(2013, 0, 0, "t" * 40, 8)
        assert a == derive_session_key(2013, 0, 0, "t" * 40, 8)
        assert len(a) == 8
        assert a != derive_session_key(2013, 0, 1, "t" * 40, 8)
        assert a != derive_session_key(2013, 1, 0, "t" * 40, 8)
        assert a != derive_session_key(2014, 0, 0, "t" * 40, 8)

    def test_transcript_binds_the_key(self):
        assert derive_session_key(2013, 0, 0, "a" * 40, 8) != \
            derive_session_key(2013, 0, 0, "b" * 40, 8)


class TestSessionDeterminism:
    def test_record_is_a_pure_function(self):
        a = run_amortized_session(SPEC, 0.2, 1)
        b = run_amortized_session(SPEC, 0.2, 1)
        assert a == b
        assert a.delivered + a.failed == SPEC.messages
        assert a.keys_used > 0
        assert a.total_uj == pytest.approx(
            a.handshake_uj + a.message_compute_uj + a.message_radio_uj)

    def test_loss_rates_get_independent_streams(self):
        clean = run_amortized_session(SPEC, 0.0, 0)
        lossy = run_amortized_session(SPEC, 0.2, 0)
        assert clean.transcript_digest != lossy.transcript_digest
        assert lossy.attempts >= clean.attempts

    def test_forward_secrecy_window_is_bounded(self):
        record = run_amortized_session(SPEC, 0.0, 0)
        assert 0 < record.worst_key_window <= SPEC.epoch_messages


class TestSoak:
    def test_worker_count_cannot_change_the_answer(self):
        inline = run_amortized_soak(SPEC, workers=0)
        fanned = run_amortized_soak(SPEC, workers=2)
        assert inline.summary_payload() == fanned.summary_payload()
        for a, b in zip(inline.points, fanned.points):
            assert a.digest() == b.digest()

    def test_epoch_one_is_the_baseline(self):
        spec = AmortizedSpec(curve="TOY-B17", seed=2013,
                             epoch_messages=1, messages=8, sessions=2,
                             sweep=(0.0,))
        report = run_amortized_soak(spec, workers=0)
        point = report.points[0]
        # Every message pays a fresh handshake: the "extension" over
        # the handshake-per-message design is exactly 1 when every
        # message delivers on its session key.
        assert point.extension_factor == pytest.approx(1.0, abs=0.05)

    def test_amortization_pays_at_larger_epochs(self):
        report = run_amortized_soak(SPEC, workers=0)
        assert report.fully_delivered or report.min_delivery_rate > 0.9
        assert report.amortization_pays
        for point in report.points:
            assert point.extension_factor > 1.0


class TestObservability:
    @pytest.fixture(scope="class")
    def traced(self, tmp_path_factory):
        obs_dir = os.path.join(
            str(tmp_path_factory.mktemp("obs-amortized")),
            obs_runtime.OBS_DIRNAME)
        with obs_runtime.session(obs_dir, kind="amortized",
                                 seed=SPEC.seed):
            record = run_amortized_session(SPEC, 0.0, 0)
        return {"obs_dir": obs_dir, "record": record}

    def test_epoch_spans_partition_the_energy_exactly(self, traced):
        spans = load_spans(traced["obs_dir"])
        epochs = [s for s in spans if s["name"] == "session.epoch"]
        assert len(epochs) == SPEC.handshakes
        total = sum(s["uj"] for s in epochs)
        assert total == pytest.approx(traced["record"].total_uj,
                                      rel=1e-9)

    def test_span_tree_shape(self, traced):
        spans = load_spans(traced["obs_dir"])
        by_id = {s["span"]: s for s in spans}
        handshakes = [s for s in spans if s["name"] == "handshake"]
        messages = [s for s in spans if s["name"] == "message"]
        assert len(handshakes) >= SPEC.handshakes
        assert len(messages) == SPEC.messages
        for span in handshakes + messages:
            parent = by_id[span["parent"]]
            assert parent["name"] == "session.epoch"

    def test_message_spans_carry_delivery(self, traced):
        spans = load_spans(traced["obs_dir"])
        messages = [s for s in spans if s["name"] == "message"]
        delivered = sum(1 for s in messages
                        if s["attrs"]["delivered"])
        assert delivered == traced["record"].delivered


class TestMetricsReadback:
    """The exported ``repro_backends_*`` families agree with the
    report the summary table renders."""

    def test_soak_records_the_registry(self, tmp_path):
        obs_dir = os.path.join(str(tmp_path),
                               obs_runtime.OBS_DIRNAME)
        with obs_runtime.session(obs_dir, kind="amortized",
                                 seed=SPEC.seed) as rt:
            report = run_amortized_soak(SPEC, workers=0)
        registry = rt.registry
        messages = registry.get("repro_backends_messages_total")
        handshakes = registry.get("repro_backends_handshakes_total")
        energy = registry.get("repro_backends_energy_uj_total")
        for point in report.points:
            loss = f"{point.frame_loss:g}"
            records = point.records
            assert registry.get("repro_backends_sessions_total").value(
                loss=loss) == point.sessions
            delivered = messages.value(loss=loss, outcome="delivered")
            assert delivered == point.delivered
            assert delivered + messages.value(loss=loss, outcome="failed") \
                == point.messages
            assert registry.get("repro_backends_delivery_rate").value(
                loss=loss) == point.delivery_rate
            assert handshakes.value(loss=loss, outcome="keyed") \
                == point.keys_used
            assert handshakes.value(loss=loss, outcome="failed") == sum(
                r.handshakes_failed for r in records)
            uj = {component: energy.value(loss=loss, component=component)
                  for component in ("handshake", "message_compute",
                                    "message_radio")}
            for component, value in uj.items():
                assert value == sum(getattr(r, f"{component}_uj")
                                    for r in records)
            message_uj = uj["message_compute"] + uj["message_radio"]
            assert (uj["handshake"] + message_uj) / delivered == \
                pytest.approx(point.mean_uj_per_message, rel=1e-12)
            baseline = uj["handshake"] / point.keys_used \
                + message_uj / delivered
            assert baseline * delivered / (uj["handshake"] + message_uj) \
                == pytest.approx(point.extension_factor, rel=1e-12)
        text = report.summary()
        assert "forward-secrecy window" in text
