"""Tracer unit tests: recording, export schema, overhead, determinism."""

import json

import pytest

from repro.harness.sweep import RunSpec, execute_spec
from repro.sim import (
    NULL_TRACER,
    NullTracer,
    TraceRecorder,
    Tracer,
    validate_trace_document,
)


class TestNullTracer:
    def test_disabled(self):
        assert NullTracer.enabled is False
        assert NULL_TRACER.enabled is False
        assert Tracer.enabled is False

    def test_methods_are_noops(self):
        NULL_TRACER.instant("t", "x", 1)
        NULL_TRACER.complete("t", "x", 1, 2)
        NULL_TRACER.counter("t", "x", 1, 3.0)


class TestTraceRecorder:
    def test_enabled(self):
        assert TraceRecorder().enabled is True

    def test_records_and_counts(self):
        t = TraceRecorder()
        t.instant("a", "tick", 10)
        t.complete("a", "span", 20, 5)
        t.counter("b", "depth", 30, 7)
        assert len(t) == 3
        assert t.tracks == ["a", "b"]

    def test_track_ids_stable(self):
        t = TraceRecorder()
        assert t.track_id("x") == 0
        assert t.track_id("y") == 1
        assert t.track_id("x") == 0

    def test_max_events_drops(self):
        t = TraceRecorder(max_events=2)
        for i in range(5):
            t.instant("a", "tick", i)
        assert len(t) == 2
        assert t.dropped == 3
        assert t.to_dict()["otherData"]["dropped_events"] == 3

    def test_cycles_convert_to_microseconds(self):
        t = TraceRecorder(cycle_ns=0.5)
        t.complete("a", "span", 2000, 4000)  # 1 us in, 2 us long
        events = [e for e in t.to_dict()["traceEvents"] if e["ph"] == "X"]
        assert events[0]["ts"] == pytest.approx(1.0)
        assert events[0]["dur"] == pytest.approx(2.0)

    def test_export_passes_schema_check(self):
        t = TraceRecorder()
        t.instant("spec-buffer", "Evict->Speculated", 5,
                  args={"block": 3})
        t.complete("persist-path", "persist", 1, 9,
                   args={"core": 0})
        t.counter("pmc", "wpq", 4, 2)
        document = t.to_dict()
        assert validate_trace_document(document) == []
        # Metadata rows label every track.
        names = {e["args"]["name"] for e in document["traceEvents"]
                 if e["ph"] == "M" and e["name"] == "thread_name"}
        assert names == {"spec-buffer", "persist-path", "pmc"}

    def test_instant_has_scope(self):
        t = TraceRecorder()
        t.instant("a", "x", 1)
        instants = [e for e in t.to_dict()["traceEvents"]
                    if e["ph"] == "i"]
        assert instants[0]["s"] == "t"

    def test_save_round_trips(self, tmp_path):
        t = TraceRecorder()
        t.instant("a", "x", 1)
        path = t.save(str(tmp_path / "trace.json"))
        loaded = json.loads(open(path).read())
        assert validate_trace_document(loaded) == []

    def test_validation_rejects_garbage(self):
        assert validate_trace_document([]) != []
        assert validate_trace_document({}) != []
        bad = {"traceEvents": [{"ph": "X"}]}
        assert any("missing" in p for p in validate_trace_document(bad))


class TestTracedSimulation:
    """End-to-end: a misspeculating run emits the promised events."""

    @pytest.fixture(scope="class")
    def traced(self):
        from repro.workloads import LoadMisspecProbe
        spec = RunSpec(benchmark=LoadMisspecProbe.name, design="PMEM-Spec",
                       n_threads=2, fases_per_thread=10, seed=42,
                       config=LoadMisspecProbe.recommended_config(2, True))
        tracer = TraceRecorder()
        result = execute_spec(spec, tracer=tracer)
        return tracer, result

    def test_run_misspeculates(self, traced):
        _tracer, result = traced
        assert result.load_misspeculations >= 1

    def test_schema_valid(self, traced):
        tracer, _result = traced
        assert validate_trace_document(tracer.to_dict()) == []

    def test_persist_path_spans_present(self, traced):
        tracer, _result = traced
        spans = [e for e in tracer.to_dict()["traceEvents"]
                 if e["ph"] == "X" and e.get("cat") == "persist-path"]
        assert len(spans) >= 1
        assert all(e["dur"] > 0 for e in spans)

    def test_spec_buffer_transitions_present(self, traced):
        tracer, result = traced
        instants = [e["name"] for e in tracer.to_dict()["traceEvents"]
                    if e.get("cat") == "spec-buffer"]
        assert "Initial->Evict" in instants
        assert "Evict->Speculated" in instants
        misspecs = [n for n in instants if n.endswith("->Misspeculation")]
        assert len(misspecs) >= result.load_misspeculations

    def test_fase_lifecycle_present(self, traced):
        tracer, result = traced
        events = [e for e in tracer.to_dict()["traceEvents"]
                  if e.get("cat") == "fase"]
        commits = [e for e in events
                   if e.get("args", {}).get("outcome") == "commit"]
        aborts = [e for e in events
                  if e.get("args", {}).get("outcome") == "abort"]
        reexec = [e for e in events if e["name"] == "fase-re-execute"]
        assert len(commits) == result.fases_committed
        assert len(aborts) == result.fases_aborted
        assert len(reexec) == result.fases_aborted

    def test_per_core_tracks(self, traced):
        tracer, _result = traced
        assert "core0" in tracer.tracks
        assert "core1" in tracer.tracks
        assert "pmc" in tracer.tracks


class TestTracingIsPassive:
    """Tracing must observe timing, never change it."""

    SPEC = dict(benchmark="array_swaps", design="PMEM-Spec",
                n_threads=2, fases_per_thread=30, seed=7)

    def test_cycles_identical_with_and_without_tracing(self):
        plain = execute_spec(RunSpec(**self.SPEC))
        traced = execute_spec(RunSpec(**self.SPEC),
                              tracer=TraceRecorder())
        assert traced.cycles == plain.cycles
        assert traced.fases_committed == plain.fases_committed

    def test_disabled_path_records_nothing_and_changes_nothing(self):
        """Every recording call sits behind an ``enabled`` guard: a
        disabled tracer that counts its calls sees none, and the run's
        serialised result is identical to one with no tracer at all."""

        class CountingNullTracer(NullTracer):
            def __init__(self):
                self.calls = 0

            def instant(self, *args, **kwargs):
                self.calls += 1

            def complete(self, *args, **kwargs):
                self.calls += 1

            def counter(self, *args, **kwargs):
                self.calls += 1

        counting = CountingNullTracer()
        observed = execute_spec(RunSpec(**self.SPEC), tracer=counting)
        plain = execute_spec(RunSpec(**self.SPEC))
        assert counting.calls == 0
        assert observed.to_dict() == plain.to_dict()
