"""Unit tests of repro.obs.trace: spans, tracers, and context propagation."""

import json
import pickle
import sys

import pytest

from repro.obs.trace import (
    NULL_SPAN,
    TraceContext,
    Tracer,
    activated,
    active_tracer,
    current_context,
    span,
    worker_scope,
)


def read_records(path):
    return [
        json.loads(line)
        for line in path.read_text().splitlines()
        if line.strip()
    ]


class TestSpanRecords:
    def test_nested_spans_record_parentage(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        tracer = Tracer(trace)
        with activated(tracer):
            with span("outer") as outer:
                with span("inner") as inner:
                    pass
        tracer.close()
        records = {r["name"]: r for r in read_records(trace)}
        assert records["outer"]["parent_id"] is None
        assert records["inner"]["parent_id"] == records["outer"]["span_id"]
        assert records["outer"]["span_id"] == outer.span_id
        assert records["inner"]["span_id"] == inner.span_id
        assert records["outer"]["trace_id"] == records["inner"]["trace_id"]

    def test_children_are_written_before_parents(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        tracer = Tracer(trace)
        with activated(tracer):
            with span("outer"):
                with span("inner"):
                    pass
        tracer.close()
        names = [r["name"] for r in read_records(trace)]
        assert names == ["inner", "outer"]

    def test_attributes_at_open_and_via_set(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        tracer = Tracer(trace)
        with activated(tracer):
            with span("sweep", kind="characterization", jobs=4) as entry:
                entry.set(units=43, cached=1)
        tracer.close()
        (record,) = read_records(trace)
        assert record["attrs"] == {
            "kind": "characterization",
            "jobs": 4,
            "units": 43,
            "cached": 1,
        }

    def test_exception_marks_error_attr_and_propagates(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        tracer = Tracer(trace)
        with activated(tracer):
            with pytest.raises(RuntimeError):
                with span("doomed"):
                    raise RuntimeError("boom")
        tracer.close()
        (record,) = read_records(trace)
        assert record["attrs"]["error"] == "RuntimeError"

    def test_timings_and_pid_recorded(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        tracer = Tracer(trace)
        with activated(tracer):
            with span("timed"):
                sum(range(1000))
        tracer.close()
        (record,) = read_records(trace)
        assert record["wall_s"] >= 0.0
        assert record["cpu_s"] >= 0.0
        assert record["t0_s"] > 0.0
        import os

        assert record["pid"] == os.getpid()

    def test_buffered_tracer_writes_on_close(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        tracer = Tracer(trace, buffered=True)
        with activated(tracer):
            with span("buffered"):
                pass
        assert not trace.exists() or trace.read_text() == ""
        tracer.close()
        assert len(read_records(trace)) == 1

    def test_tracers_share_one_file_via_append(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        first = Tracer(trace, trace_id="shared")
        with activated(first):
            with span("one"):
                pass
        first.close()
        second = Tracer(trace, trace_id="shared")
        with activated(second):
            with span("two"):
                pass
        second.close()
        assert [r["name"] for r in read_records(trace)] == ["one", "two"]


class TestActivation:
    def test_disabled_by_default(self):
        assert active_tracer() is None

    def test_span_is_noop_when_disabled(self):
        entry = span("nothing", key=1)
        with entry as inner:
            assert inner.set(more=2) is inner

    def test_disabled_span_is_the_shared_null_span(self):
        # One no-op span serves every untraced caller, the service included.
        from repro.serve import service

        assert span("nothing") is NULL_SPAN
        assert service.NULL_SPAN is NULL_SPAN
        assert not hasattr(service, "_NullSpan")
        with NULL_SPAN as inner:
            assert inner is NULL_SPAN

    def test_activated_none_is_passthrough(self):
        with activated(None) as tracer:
            assert tracer is None
            assert active_tracer() is None

    def test_activated_restores_previous(self, tmp_path):
        tracer = Tracer(tmp_path / "t.jsonl")
        with activated(tracer):
            assert active_tracer() is tracer
        assert active_tracer() is None
        tracer.close()

    def test_disabled_span_allocates_nothing(self):
        """The no-op fast path must not accumulate allocations."""
        assert active_tracer() is None

        def probe():
            with span("hot", a=1, b="two"):
                pass

        for _ in range(200):  # warm up caches/free lists
            probe()
        before = sys.getallocatedblocks()
        for _ in range(2000):
            probe()
        after = sys.getallocatedblocks()
        assert after - before <= 2


class TestContextPropagation:
    def test_current_context_none_when_disabled(self):
        assert current_context() is None

    def test_current_context_snapshots_innermost_span(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        tracer = Tracer(trace)
        with activated(tracer):
            with span("outer") as outer:
                context = current_context()
        tracer.close()
        assert context.path == str(trace)
        assert context.trace_id == tracer.trace_id
        assert context.parent_id == outer.span_id
        assert context.created_at > 0.0

    def test_trace_context_pickles(self, tmp_path):
        context = TraceContext(
            path=str(tmp_path / "t.jsonl"),
            trace_id="abc",
            parent_id="def",
            created_at=123.0,
        )
        assert pickle.loads(pickle.dumps(context)) == context

    def test_worker_scope_none_is_noop(self):
        with worker_scope(None, "sweep.shard", units=3):
            assert active_tracer() is None

    def test_untraced_task_ignores_an_inherited_tracer(self, tmp_path):
        # A pooled worker forked while its parent traced must not write
        # spans of a later, untraced task into the parent's trace file.
        inherited = Tracer(tmp_path / "parent.jsonl")
        with activated(inherited):
            with worker_scope(None, "sweep.shard"):
                assert active_tracer() is None
                with span("engine.pass"):
                    pass
            assert active_tracer() is inherited
        inherited.close()
        assert not (tmp_path / "parent.jsonl").exists()

    def test_worker_scope_reparents_and_records_queue_wait(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        context = TraceContext(
            path=str(trace), trace_id="tid", parent_id="parent", created_at=0.0
        )
        with worker_scope(context, "sweep.shard", kind="faults", units=7):
            with span("engine.pass", kind="arrival"):
                pass
        records = {r["name"]: r for r in read_records(trace)}
        shard = records["sweep.shard"]
        assert shard["trace_id"] == "tid"
        assert shard["parent_id"] == "parent"
        assert shard["attrs"]["units"] == 7
        assert shard["attrs"]["queue_wait_s"] >= 0.0
        assert shard["attrs"]["peak_rss_mb"] > 0.0
        assert records["engine.pass"]["parent_id"] == shard["span_id"]

    def test_worker_scope_restores_previous_tracer(self, tmp_path):
        outer = Tracer(tmp_path / "outer.jsonl")
        context = TraceContext(
            path=str(tmp_path / "inner.jsonl"),
            trace_id="tid",
            parent_id=None,
            created_at=0.0,
        )
        with activated(outer):
            with worker_scope(context, "sweep.shard"):
                assert active_tracer() is not outer
            assert active_tracer() is outer
        outer.close()
