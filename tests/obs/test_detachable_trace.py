"""Severable trace proxies must stay late-binding.

A hedged primary writes its spans through a proxy that wraps the
attempt's proxy, which wraps the request trace.  When the deadline
orphans the attempt, only the outer proxy is detached; the inner one
must fall silent with it.  A proxy that cached the wrapped trace's
bound methods would keep the orphaned primary writing to the request's
span tree.
"""

from repro import (
    FunctionCode,
    FunctionDef,
    HedgeConfig,
    Language,
    MoleculeRuntime,
    PuKind,
    WorkProfile,
)
from repro.errors import DeadlineExceeded
from repro.obs import Observability
from repro.obs.spans import DetachableTrace
from repro.sim import Simulator


def _tree(span):
    return (
        span.name, span.begin_s, span.end_s, dict(span.attributes),
        [_tree(child) for child in span.children],
    )


def test_detaching_an_outer_proxy_silences_proxies_built_over_it():
    trace = Observability(Simulator()).begin_invocation("f")
    outer = DetachableTrace(trace)
    inner = DetachableTrace(outer)
    open_span = inner.begin_phase("exec")
    outer.detach()
    before = _tree(trace.root)

    span = inner.begin_phase("respond")
    inner.end_phase(span)
    inner.end_phase(open_span)
    inner.annotate(pu="cpu0")
    inner.unwind()
    with inner.phase("schedule"):
        pass

    assert _tree(trace.root) == before
    # ``exec`` is still the innermost open span under the open root:
    # the request trace closes it, then itself, without a nesting error.
    [exec_span] = trace.root.children
    assert exec_span.open and trace.root.open
    trace.end_phase(open_span)
    trace.finish()
    assert not trace.root.open


def test_orphaned_hedged_primary_leaves_the_request_trace_alone():
    # The trigger (10 s) never fires first: the 50 ms deadline orphans
    # the hedged attempt while its primary (a cold start, then a 200 ms
    # exec) is still in flight.
    molecule = MoleculeRuntime.create(
        num_dpus=1, seed=7,
        hedging=HedgeConfig(min_samples=99, default_trigger_s=10.0),
    )
    molecule.deploy_now(FunctionDef(
        name="slow",
        code=FunctionCode("slow", language=Language.PYTHON),
        work=WorkProfile(warm_exec_ms=200.0),
        profiles=(PuKind.CPU, PuKind.DPU),
    ))
    spawned = []
    spawn = molecule.sim.spawn

    def recording_spawn(generator, name="", **kwargs):
        spawned.append(name)
        return spawn(generator, name=name, **kwargs)

    molecule.sim.spawn = recording_spawn
    seen = []

    def client():
        try:
            yield from molecule.invoke("slow", deadline_s=0.05)
        except DeadlineExceeded:
            trace = molecule.obs.traces[-1]
            seen.append((molecule.sim.now, trace, _tree(trace.root)))

    molecule.sim.spawn(client())
    molecule.sim.run()
    [(expired_at, trace, tree)] = seen
    hedge_copies = [name for name in spawned if name.startswith("hedge-")]
    assert hedge_copies == ["hedge-primary:slow#1"]
    assert trace.root.attributes["error"] == "DeadlineExceeded"
    # The primary ran on past the deadline...
    assert molecule.sim.now > expired_at + 0.1
    # ...without touching the request's span tree...
    assert _tree(trace.root) == tree
    # ...and parked its instance back in a warm pool.
    idle = [
        instance
        for pool in molecule.invoker.pools.values()
        for instance in pool.idle_instances("slow")
    ]
    assert len(idle) == 1
