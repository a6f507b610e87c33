"""Span identity, context propagation, detail gating, persistence."""

import json

import pytest

from repro.obs.tracing import (
    SpanWriter,
    Tracer,
    derive_span_id,
    derive_trace_id,
)


@pytest.fixture
def tracer(tmp_path):
    writer = SpanWriter(str(tmp_path / "spans.jsonl"), batch_size=1)
    t = Tracer(derive_trace_id(7, "cfg"), writer, detail=2)
    yield t
    t.close()


def read_records(tracer):
    tracer.flush()
    with open(tracer.writer.path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


class TestIdentity:
    def test_ids_are_pure_functions_of_inputs(self):
        tid = derive_trace_id(7, "cfg")
        assert tid == derive_trace_id(7, "cfg")
        assert tid != derive_trace_id(8, "cfg")
        assert tid != derive_trace_id(7, "other")
        sid = derive_span_id(tid, None, "shard", 3)
        assert sid == derive_span_id(tid, None, "shard", 3)
        assert sid != derive_span_id(tid, None, "shard", 4)
        assert sid != derive_span_id(tid, sid, "shard", 3)
        assert len(tid) == len(sid) == 16

    def test_worker_rederives_coordinator_root_id(self, tracer, tmp_path):
        """The cross-process contract: a worker derives its parent id
        from (trace_id, None, 'campaign.acquire', 0) with no IPC."""
        with tracer.span("campaign.acquire", key=0) as root:
            pass
        other = Tracer(tracer.trace_id,
                       SpanWriter(str(tmp_path / "w.jsonl")))
        derived = derive_span_id(other.trace_id, None,
                                 "campaign.acquire", 0)
        assert derived == root.span_id
        other.close()


class TestPropagation:
    def test_nesting_links_parent_ids(self, tracer):
        with tracer.span("outer", key=0) as outer:
            with tracer.span("inner", key=1) as inner:
                assert inner.parent_id == outer.span_id
        with tracer.span("after", key=2) as after:
            assert after.parent_id is None
        records = {r["name"]: r for r in read_records(tracer)}
        assert records["inner"]["parent"] == records["outer"]["span"]
        assert records["outer"]["parent"] is None

    def test_auto_keys_count_children(self, tracer):
        with tracer.span("outer", key=0):
            ids = [tracer.event("child") for _ in range(3)]
        assert len(set(ids)) == 3
        keys = [r["key"] for r in read_records(tracer)
                if r["name"] == "child"]
        assert sorted(keys) == ["0", "1", "2"]

    def test_explicit_parent_id_wins(self, tracer):
        fake_parent = derive_span_id(tracer.trace_id, None, "ghost", 0)
        with tracer.span("outer", key=0):
            with tracer.span("adopted", key=0,
                             parent_id=fake_parent) as span:
                assert span.parent_id == fake_parent


class TestDetailGating:
    def test_spans_above_detail_yield_none(self, tmp_path):
        writer = SpanWriter(str(tmp_path / "s.jsonl"))
        tracer = Tracer("t" * 16, writer, detail=1)
        with tracer.span("hot", key=0, level=2) as span:
            assert span is None
        assert tracer.event("hotter", level=3) is None
        tracer.close()
        assert read_records(tracer) == []

    def test_gated_span_does_not_become_ambient_parent(self, tmp_path):
        tracer = Tracer("t" * 16, SpanWriter(str(tmp_path / "s.jsonl")),
                        detail=1)
        with tracer.span("visible", key=0) as outer:
            with tracer.span("gated", level=2):
                with tracer.span("leaf", key=5) as leaf:
                    assert leaf.parent_id == outer.span_id
        tracer.close()


class TestPersistence:
    def test_records_carry_attribution_and_sorted_attrs(self, tracer):
        with tracer.span("trace", key=2, scenario="protected") as span:
            span.set(cycles=812, uj=0.048, z="last", a="first")
        (record,) = read_records(tracer)
        assert record["cycles"] == 812
        assert record["uj"] == pytest.approx(0.048)
        assert list(record["attrs"]) == ["a", "scenario", "z"]
        assert {"start_s", "end_s", "pid"} <= set(record)

    def test_event_is_zero_duration_leaf(self, tracer):
        tracer.event("ladder.step", key=9, cycles=144, uj=0.001, bit=1)
        (record,) = read_records(tracer)
        assert record["cycles"] == 144
        assert record["attrs"]["bit"] == 1

    def test_batched_writer_flushes_on_close(self, tmp_path):
        writer = SpanWriter(str(tmp_path / "batch.jsonl"), batch_size=64)
        tracer = Tracer("t" * 16, writer)
        tracer.event("only", key=0)
        tracer.close()
        with open(writer.path, encoding="utf-8") as f:
            assert len(f.readlines()) == 1

    def test_bad_batch_size_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            SpanWriter(str(tmp_path / "x.jsonl"), batch_size=0)
