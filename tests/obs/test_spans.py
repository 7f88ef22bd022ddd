"""Unit tests for wall-clock span tracing and the runtime switchboard."""

import json
import random

import pytest

from repro.obs import runtime as _obs
from repro.obs import trace as _trace
from repro.obs.export import chrome_trace
from repro.obs.spans import Span, SpanRecorder


def test_span_nesting_tracks_parents():
    rec = SpanRecorder()
    with rec.span("outer") as outer:
        assert rec.current() is outer
        with rec.span("inner", index=3) as inner:
            assert inner.parent_id == outer.span_id
    assert rec.current() is None
    finished = rec.finished()
    assert [s.name for s in finished] == ["inner", "outer"]  # completion order
    assert finished[0].attrs == {"index": 3}
    assert all(s.end is not None and s.duration >= 0 for s in finished)


def test_span_records_exception_and_propagates():
    rec = SpanRecorder()
    with pytest.raises(RuntimeError):
        with rec.span("doomed"):
            raise RuntimeError("boom")
    (span,) = rec.finished("doomed")
    assert span.attrs["error"] == "RuntimeError"
    assert span.end is not None


def test_exception_in_nested_span_restores_parent():
    rec = SpanRecorder()
    with rec.span("outer") as outer:
        with pytest.raises(ValueError):
            with rec.span("inner"):
                raise ValueError("x")
        # The parent must be current again — a later sibling re-parents
        # onto it, not onto the finished (failed) inner span.
        assert rec.current() is outer
        with rec.span("sibling") as sibling:
            assert sibling.parent_id == outer.span_id


def test_parent_restored_even_when_exit_machinery_fails(monkeypatch):
    """Regression: a failure *inside* ``__exit__`` (a broken clock, here)
    must still reset the context variable, or every later span in this
    task silently re-parents onto a finished span."""
    rec = SpanRecorder()
    with rec.span("outer") as outer:
        inner_ctx = rec.span("inner")
        inner_ctx.__enter__()

        def broken_clock():
            raise RuntimeError("clock exploded")

        monkeypatch.setattr(rec, "clock", broken_clock)
        with pytest.raises(RuntimeError, match="clock exploded"):
            inner_ctx.__exit__(None, None, None)
        monkeypatch.undo()
        assert rec.current() is outer


def test_span_stamped_with_active_trace_id():
    rec = SpanRecorder()
    ctx = _trace.new_context(random.Random(1))
    with _trace.use(ctx):
        with rec.span("traced"):
            pass
    with rec.span("untraced"):
        pass
    traced, untraced = rec.finished()
    assert traced.trace_id == ctx.trace_id
    assert untraced.trace_id is None
    assert "trace_id" not in untraced.to_dict()
    clone = Span.from_dict(traced.to_dict())
    assert clone.trace_id == ctx.trace_id


def test_ring_buffer_drops_oldest_and_counts():
    rec = SpanRecorder(capacity=2)
    for i in range(4):
        with rec.span(f"s{i}"):
            pass
    assert rec.dropped == 2
    assert [s.name for s in rec.finished()] == ["s2", "s3"]
    rec.clear()
    assert rec.finished() == [] and rec.dropped == 0


def test_span_dict_roundtrip():
    rec = SpanRecorder()
    with rec.span("unit", index=7):
        pass
    (span,) = rec.finished()
    clone = Span.from_dict(json.loads(json.dumps(span.to_dict())))
    assert clone.name == span.name
    assert clone.span_id == span.span_id
    assert clone.attrs == {"index": 7}
    assert clone.end == pytest.approx(span.end)



def test_adopt_moves_foreign_spans_onto_this_clock_and_under_a_parent():
    worker = SpanRecorder()
    with worker.span("job"):
        with worker.span("step"):
            pass
    home = SpanRecorder()
    home.epoch_unix = worker.epoch_unix - 10.0  # home's clock started 10 s earlier
    with home.span("request") as request:
        home.adopt(worker.to_dicts(), worker.epoch_unix, parent=request)
    step, job, _ = home.finished()
    assert (step.name, job.name) == ("step", "job")
    assert job.parent_id == request.span_id and step.parent_id == job.span_id
    assert len({request.span_id, job.span_id, step.span_id}) == 3
    assert job.start == pytest.approx(worker.finished("job")[0].start + 10.0)
    assert step.end == pytest.approx(worker.finished("step")[0].end + 10.0)

def test_runtime_span_is_noop_when_disabled():
    assert _obs.ACTIVE is None
    ctx = _obs.span("anything", k=1)
    # Shared singleton, allocates nothing per call.
    assert ctx is _obs.span("other")
    with ctx:
        pass


def test_runtime_enable_disable_and_fresh():
    tel = _obs.enable()
    assert _obs.active() is tel
    assert _obs.enable() is tel  # idempotent: layered callers share one
    with _obs.span("campaign.unit", index=0):
        pass
    assert len(tel.spans.finished("campaign.unit")) == 1
    fresh = _obs.enable(fresh=True)
    assert fresh is not tel
    assert fresh.spans.finished() == []
    _obs.disable()
    assert _obs.ACTIVE is None


def test_suppressed_mutes_hooks_then_restores():
    tel = _obs.enable(fresh=True)
    with _obs.suppressed():
        assert _obs.ACTIVE is None
        with _obs.span("replayed"):
            pass
    assert _obs.ACTIVE is tel
    assert tel.spans.finished() == []


def test_chrome_trace_merges_wall_and_sim_time():
    rec = SpanRecorder()
    with rec.span("campaign.unit", index=1):
        pass

    class FakeInterval:
        lane = "cpu0"
        label = "hold"
        start = 0.5
        duration = 0.25

    class FakeTracer:
        intervals = [FakeInterval()]

        def lanes(self):
            return ["cpu0"]

    doc = json.loads(chrome_trace(rec.to_dicts(), tracer=FakeTracer()))
    events = doc["traceEvents"]
    pids = {e["pid"] for e in events}
    assert pids == {0, 1}  # wall spans on pid 0, one sim lane on pid 1
    names = {e["args"]["name"] for e in events if e["ph"] == "M"}
    assert names == {"wall-clock spans", "sim:cpu0"}
    sim = [e for e in events if e["ph"] == "X" and e["pid"] == 1]
    assert sim[0]["ts"] == pytest.approx(0.5e6)
    assert sim[0]["dur"] == pytest.approx(0.25e6)
