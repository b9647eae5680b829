"""Tests for the span recorder and the span trees it builds."""

import pytest

from repro.analysis.trace import TraceError
from repro.obs import Observability
from repro.sim import Simulator


def _trace(sim=None):
    return Observability(sim or Simulator()).begin_invocation("f")


def test_span_records_simulated_time():
    sim = Simulator()
    trace = _trace(sim)

    def proc(sim):
        yield sim.timeout(2.0)
        trace.finish()

    sim.spawn(proc(sim))
    sim.run()
    span = trace.root
    assert span.name == "request"
    assert span.duration_s == pytest.approx(2.0)


def test_nested_spans_and_self_time():
    sim = Simulator()
    trace = _trace(sim)

    def proc(sim):
        span = trace.begin_phase("startup")
        yield sim.timeout(1.0)
        trace.end_phase(span)
        span = trace.begin_phase("exec")
        yield sim.timeout(3.0)
        trace.end_phase(span)
        yield sim.timeout(0.5)
        trace.finish()

    sim.spawn(proc(sim))
    sim.run()
    root = trace.root
    assert [c.name for c in root.children] == ["startup", "exec"]
    assert root.duration_s == pytest.approx(4.5)
    assert root.self_time_s() == pytest.approx(0.5)


def test_attributes_recorded():
    trace = _trace()
    trace.end_phase(trace.begin_phase("exec", pu="dpu0", cold=True))
    trace.annotate(start_kind="fork")
    [span] = trace.find("exec")
    assert span.attributes == {"pu": "dpu0", "cold": True}
    assert trace.root.attributes == {"function": "f", "start_kind": "fork"}


def test_find_by_name():
    trace = _trace()
    outer = trace.begin_phase("a")
    trace.end_phase(trace.begin_phase("b"))
    trace.end_phase(trace.begin_phase("b"))
    trace.end_phase(outer)
    assert len(trace.find("b")) == 2
    assert [span.name for span in trace.find("a")[0].children] == ["b", "b"]
    assert trace.find("zzz") == []


def test_mismatched_end_rejected():
    trace = _trace()
    outer = trace.begin_phase("outer")
    trace.begin_phase("inner")
    with pytest.raises(TraceError):
        trace.end_phase(outer)


def test_double_end_rejected():
    trace = _trace()
    span = trace.begin_phase("s")
    trace.end_phase(span)
    with pytest.raises(TraceError):
        trace.end_phase(span)


def test_open_span_duration_rejected():
    trace = _trace()
    trace.begin_phase("s")
    [span] = trace.find("s")
    with pytest.raises(TraceError):
        _ = span.duration_s
    assert span.open


def test_render_produces_indented_tree():
    sim = Simulator()
    trace = _trace(sim)

    def proc(sim):
        span = trace.begin_phase("exec")
        yield sim.timeout(1.0)
        trace.end_phase(span)
        trace.finish()

    sim.spawn(proc(sim))
    sim.run()
    lines = trace.render().splitlines()
    assert lines[0].startswith("request")
    assert lines[1].startswith("  exec")
    assert "ms" in lines[1]
