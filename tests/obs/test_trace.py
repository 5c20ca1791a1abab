"""Tracer core: deterministic ids, context propagation, sinks, schema."""

from __future__ import annotations

import json
import threading

import pytest

from repro.obs import (
    NULL_TRACER,
    JsonlSink,
    MemorySink,
    NullTracer,
    TeeSink,
    Tracer,
    current_context,
    resolve_tracer,
    span_id_for,
    trace_id_for_key,
    validate_record,
)


class TestDeterministicIds:
    def test_trace_id_is_a_pure_function_of_the_key(self):
        assert trace_id_for_key("abc") == trace_id_for_key("abc")
        assert trace_id_for_key("abc") != trace_id_for_key("abd")
        assert len(trace_id_for_key("abc")) == 32

    def test_span_id_mixes_trace_parent_name_and_key(self):
        trace = trace_id_for_key("k")
        base = span_id_for(trace, None, "shard", "k")
        assert len(base) == 16
        assert span_id_for(trace, None, "shard", "k") == base
        assert span_id_for(trace, "p", "shard", "k") != base
        assert span_id_for(trace, None, "other", "k") != base
        assert span_id_for(trace, None, "shard", "k2") != base

    def test_same_workload_twice_yields_identical_records(self):
        # The whole point: no wall clocks or pids in any id, so two runs of
        # the same keyed workload produce bit-identical span identities.
        def run():
            sink = MemorySink()
            tracer = Tracer(sink)
            with tracer.span("outer", "request-key") as outer:
                with tracer.span("inner", "task-key"):
                    pass
                trace_id = outer.trace_id
            return [
                {k: r[k] for k in ("event", "trace", "span", "parent", "name")}
                for r in sink.records(trace_id)
            ]

        assert run() == run()


class TestContextPropagation:
    def test_nested_spans_link_parent_ids(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        with tracer.span("outer", "key") as outer:
            with tracer.span("inner", "key2") as inner:
                assert inner.trace_id == outer.trace_id
                assert current_context().span_id == inner.span_id
            assert current_context().span_id == outer.span_id
        assert current_context() is None
        records = sink.records(outer.trace_id)
        inner_start = next(
            r for r in records if r["name"] == "inner" and r["event"] == "span_start"
        )
        assert inner_start["parent"] == outer.span_id

    def test_exceptions_mark_the_span_and_restore_context(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        with pytest.raises(RuntimeError):
            with tracer.span("fails", "key") as span:
                raise RuntimeError("boom")
        assert current_context() is None
        end = sink.records(span.trace_id)[-1]
        assert end["event"] == "span_end"
        assert end["attributes"]["error"] == "RuntimeError"

    def test_record_span_emits_start_and_end_back_to_back(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        context = tracer.record_span(
            "shard", "shard-key", wall_s=0.25, cpu_s=0.125, attributes={"rows": 3}
        )
        [start, end] = sink.records(context.trace_id)
        assert start["event"] == "span_start"
        assert end["event"] == "span_end"
        assert end["wall_s"] == 0.25
        assert end["cpu_s"] == 0.125
        assert end["attributes"]["rows"] == 3
        assert end["ts"] - start["ts"] == pytest.approx(0.25)

    def test_events_attach_to_the_current_span(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        with tracer.span("outer", "key") as outer:
            tracer.event("cache_lookup", {"hits": 2})
        event = [r for r in sink.records(outer.trace_id) if r["event"] == "event"]
        assert len(event) == 1
        assert event[0]["span"] == outer.span_id
        assert event[0]["attributes"] == {"hits": 2}


class TestSchema:
    def test_valid_records_pass(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        with tracer.span("outer", "key") as outer:
            tracer.event("tick")
            tracer.record_span("shard", "k2", wall_s=0.1)
        for record in sink.records(outer.trace_id):
            assert validate_record(record) == []

    def test_missing_fields_reported(self):
        problems = validate_record({"event": "span_end"})
        assert problems  # every missing required field is named
        assert any("trace" in problem for problem in problems)
        assert any("wall_s" in problem for problem in problems)

    def test_unknown_event_kind_reported(self):
        assert validate_record({"event": "bogus"})
        assert validate_record("not a dict")


class TestSinks:
    def test_jsonl_sink_appends_one_object_per_line(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(path)
        tracer = Tracer(sink)
        with tracer.span("outer", "key"):
            pass
        tracer.close()
        tracer.close()  # idempotent
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert [json.loads(line)["event"] for line in lines] == [
            "span_start",
            "span_end",
        ]

    def test_jsonl_sink_creates_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "trace.jsonl"
        JsonlSink(path).close()
        assert path.exists()

    def test_jsonl_sink_drops_writes_after_close(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(path)
        sink.close()
        sink.emit({"event": "event"})  # must not raise
        assert path.read_text() == ""

    def test_memory_sink_evicts_oldest_traces(self):
        sink = MemorySink(max_traces=2)
        for index in range(3):
            sink.emit({"event": "event", "trace": f"t{index}", "span": ""})
        assert sink.records("t0") == []
        assert len(sink.records("t2")) == 1

    def test_memory_sink_truncates_runaway_traces(self):
        sink = MemorySink(max_records=2)
        for _ in range(5):
            sink.emit({"event": "event", "trace": "t", "span": ""})
        assert len(sink.records("t")) == 2
        assert sink.truncated("t")
        assert not sink.truncated("missing")

    def test_memory_sink_discard_restarts_one_trace(self):
        sink = MemorySink(max_records=2)
        for trace in ("t", "t", "t", "other"):
            sink.emit({"event": "event", "trace": trace, "span": ""})
        sink.discard("t")
        sink.discard("missing")  # must not raise
        assert sink.records("t") == [] and not sink.truncated("t")
        sink.emit({"event": "event", "trace": "t", "span": "new"})
        assert [record["span"] for record in sink.records("t")] == ["new"]
        assert len(sink.records("other")) == 1

    def test_memory_sink_bounds_validated(self):
        with pytest.raises(ValueError):
            MemorySink(max_traces=0)

    def test_memory_sink_is_thread_safe(self):
        sink = MemorySink(max_traces=64, max_records=100_000)

        def hammer(trace):
            for _ in range(500):
                sink.emit({"event": "event", "trace": trace, "span": ""})

        threads = [
            threading.Thread(target=hammer, args=(f"t{i % 4}",)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sum(len(sink.records(f"t{i}")) for i in range(4)) == 8 * 500

    def test_tee_sink_fans_out_and_skips_none(self, tmp_path):
        memory = MemorySink()
        jsonl = JsonlSink(tmp_path / "t.jsonl")
        tee = TeeSink(memory, None, jsonl)
        tee.emit({"event": "event", "trace": "t", "span": ""})
        assert len(memory.records("t")) == 1
        tee.close()  # closes every sink (MemorySink clears, JsonlSink closes)
        assert len((tmp_path / "t.jsonl").read_text().splitlines()) == 1
        assert memory.records("t") == []


class TestProcessTracer:
    def test_null_tracer_is_the_default_and_emits_nothing(self):
        assert resolve_tracer(None) is NULL_TRACER
        assert not NULL_TRACER.enabled
        span = NULL_TRACER.span("anything", "key")
        with span as active:
            active.set_attribute("a", 1)
            active.event("tick")
        assert NULL_TRACER.record_span("x", "k", wall_s=1.0) is None
        assert isinstance(NULL_TRACER, NullTracer)

    def test_null_spans_are_shared(self):
        # Zero allocation on the hot path: every call returns the singleton.
        assert NULL_TRACER.span("a") is NULL_TRACER.span("b")
