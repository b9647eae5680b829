"""Finished request traces are acyclic, and a settled request leaves
no per-request state behind in the gateway."""

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


HELLO = FunctionDef(
    name="hello",
    code=FunctionCode("hello", language=Language.PYTHON, import_ms=120.0),
    work=WorkProfile(warm_exec_ms=15.0),
    profiles=(PuKind.CPU, PuKind.DPU),
)


def _spans(span):
    yield span
    for child in span.children:
        yield from _spans(child)


def _live_spans():
    return sum(1 for o in gc.get_objects() if isinstance(o, Span))


def _assert_no_span_referents(trace):
    spans = list(_spans(trace.root))
    for span in spans:
        assert not any(isinstance(o, Span) for o in gc.get_referents(span))
    return spans


def test_dpu_trace_spans_hold_no_span_references():
    molecule = MoleculeRuntime.create(num_dpus=1)
    molecule.deploy_now(HELLO)
    molecule.invoke_now("hello", kind=PuKind.DPU)
    spans = _assert_no_span_referents(molecule.obs.completed_traces()[-1])
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
    _assert_no_span_referents(trace)


def test_evicted_trace_is_freed_without_the_cyclic_collector():
    molecule = MoleculeRuntime.create(num_dpus=1)
    molecule.deploy_now(HELLO)
    molecule.invoke_now("hello", kind=PuKind.DPU)
    retained = sum(len(list(_spans(t.root))) for t in molecule.obs.traces)
    assert retained > 0
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        before = _live_spans()
        molecule.obs.traces.clear()
        assert _live_spans() == before - retained
    finally:
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize("kind", [PuKind.CPU, PuKind.DPU])
def test_settled_request_drops_its_gateway_deadline(kind):
    molecule = MoleculeRuntime.create(num_dpus=1, default_deadline_s=30.0)
    molecule.deploy_now(HELLO)
    result = molecule.invoke_now("hello", kind=kind)
    assert molecule.gateway.deadline_for(result.request_id) is None
