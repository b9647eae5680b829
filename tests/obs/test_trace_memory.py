"""Request traces are acyclic, a ``run_load`` replay builds no span
tree at all, and a settled request leaves no per-request state behind
in the gateway."""

import gc

import pytest

from repro import (
    FunctionCode,
    FunctionDef,
    Language,
    MoleculeRuntime,
    PuKind,
    Simulator,
    WorkProfile,
    build_full_machine,
)
from repro.analysis.trace import Span
from repro.hardware import FabricResources, KernelSpec
from repro.loadgen import scenarios
from repro.obs.spans import RequestTrace, SpanRecord


HELLO = FunctionDef(
    name="hello",
    code=FunctionCode("hello", language=Language.PYTHON, import_ms=120.0),
    work=WorkProfile(warm_exec_ms=15.0),
    profiles=(PuKind.CPU, PuKind.DPU),
)

_TRACE_TYPES = (Span, SpanRecord, RequestTrace)


def _spans(span):
    yield span
    for child in span.children:
        yield from _spans(child)


def _live(kind):
    return sum(1 for o in gc.get_objects() if isinstance(o, kind))


def _assert_no_back_references(trace):
    """Neither a recorded span nor a span of the tree built from it
    refers to another span or to the trace; returns the tree's spans."""
    for record in trace.spans:
        assert not any(
            isinstance(o, _TRACE_TYPES) for o in gc.get_referents(record)
        )
    spans = list(_spans(trace.root))
    for span in spans:
        assert not any(isinstance(o, Span) for o in gc.get_referents(span))
    return spans


def test_dpu_trace_spans_hold_no_span_references():
    molecule = MoleculeRuntime.create(num_dpus=1)
    molecule.deploy_now(HELLO)
    molecule.invoke_now("hello", kind=PuKind.DPU)
    spans = _assert_no_back_references(molecule.obs.completed_traces()[-1])
    assert "nipc" in {span.name for span in spans}


def test_fpga_trace_nested_dma_spans_hold_no_span_references():
    sim = Simulator()
    machine = build_full_machine(sim, num_dpus=0, num_fpgas=1, num_gpus=0)
    molecule = MoleculeRuntime(sim, machine)
    molecule.start()
    molecule.deploy_now(FunctionDef(
        name="fpga-k",
        code=FunctionCode(
            "fpga-k",
            kernel=KernelSpec("fpga-k", FabricResources(luts=4000),
                              exec_time_s=1e-3),
        ),
        work=WorkProfile(warm_exec_ms=10.0, fpga_exec_ms=1.0),
        profiles=(PuKind.FPGA,),
    ))
    molecule.invoke_now("fpga-k", payload_bytes=4096)
    trace = molecule.obs.completed_traces()[-1]
    [exec_span] = [c for c in trace.root.children if c.name == "exec"]
    assert [c.name for c in exec_span.children] == ["nipc", "nipc"]
    _assert_no_back_references(trace)


def test_evicted_trace_is_freed_without_the_cyclic_collector():
    molecule = MoleculeRuntime.create(num_dpus=1)
    molecule.deploy_now(HELLO)
    molecule.invoke_now("hello", kind=PuKind.DPU)
    traces = len(molecule.obs.traces)
    records = sum(len(t.spans) for t in molecule.obs.traces)
    assert records > traces > 0
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        before = _live(RequestTrace), _live(SpanRecord)
        molecule.obs.traces.clear()
        after = _live(RequestTrace), _live(SpanRecord)
        assert after == (before[0] - traces, before[1] - records)
    finally:
        if was_enabled:
            gc.enable()


def test_run_load_replay_allocates_no_span(monkeypatch):
    """A ``run_load`` hub retains no trace, so no span tree is ever
    built: no :class:`Span` is allocated, and none is left alive."""
    seen = {}
    build_runtime = scenarios.build_runtime

    def capturing(*args, **kwargs):
        runtime, frontend = build_runtime(*args, **kwargs)
        seen["runtime"] = runtime
        return runtime, frontend

    allocated = []
    span_init = Span.__init__

    def counting_init(self, name, *args, **kwargs):
        allocated.append(name)
        span_init(self, name, *args, **kwargs)

    monkeypatch.setattr(scenarios, "build_runtime", capturing)
    gc.collect()
    live_before = _live(Span)
    monkeypatch.setattr(Span, "__init__", counting_init)
    report = scenarios.run_load(
        "poisson", seed=3, rps=100, duration_s=2, shards=2
    )
    monkeypatch.undo()
    assert report["load"]["answered"] > 100
    assert report["latency"]["stages"]["exec"]["count"] == (
        report["load"]["answered"]
    )
    assert seen["runtime"].obs.traces.maxlen == 0
    assert len(seen["runtime"].obs.traces) == 0
    assert allocated == []
    assert _live(Span) == live_before


@pytest.mark.parametrize("kind", [PuKind.CPU, PuKind.DPU])
def test_settled_request_drops_its_gateway_deadline(kind):
    molecule = MoleculeRuntime.create(num_dpus=1, default_deadline_s=30.0)
    molecule.deploy_now(HELLO)
    result = molecule.invoke_now("hello", kind=kind)
    assert molecule.gateway.deadline_for(result.request_id) is None
