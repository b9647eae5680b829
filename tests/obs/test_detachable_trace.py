"""A closed request trace ignores late writes.

Work that outlives its request keeps writing to the request's trace: an
attempt the deadline orphaned, or a hedged primary that lost to its
clone, runs on only to release its resources.  The request closes its
trace (finish, fail or shed) in the same step that abandons that work,
and a closed trace drops every later write, so the orphan can no
longer touch the request's span tree.
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
from repro.obs.spans import NULL_TRACE
from repro.sim import Simulator


def _tree(span):
    return (
        span.name, span.begin_s, span.end_s, dict(span.attributes),
        [_tree(child) for child in span.children],
    )


def test_a_closed_trace_ignores_late_writes():
    sim = Simulator()
    obs = Observability(sim)
    traces = []
    for close in ("finish", "fail", "shed"):
        trace = obs.begin_invocation("f")
        trace.end_phase(trace.begin_phase("admit"))
        open_span = trace.begin_phase("exec")
        if close == "finish":
            trace.end_phase(open_span)
            trace.finish()
        else:  # both unwind the open exec span
            getattr(trace, close)("DeadlineExceeded")
        traces.append((close, trace, open_span))
    traces.append(("NULL_TRACE", NULL_TRACE, NULL_TRACE.begin_phase("exec")))
    sim.run(until=1.0)
    for label, trace, open_span in traces:
        before = _tree(trace.root)
        recorded = len(obs.traces)

        span = trace.begin_phase("respond", pu="cpu0")
        span.attributes["forked"] = True
        trace.end_phase(span)
        trace.end_phase(open_span)
        trace.annotate(pu="cpu0", start_kind="hedged")
        trace.unwind()
        trace.finish()
        trace.fail("DeadlineExceeded")
        trace.shed("queue_full")

        assert _tree(trace.root) == before, label
        assert len(obs.traces) == recorded, label
    assert _tree(NULL_TRACE.root) == ("request", 0.0, 0.0, {}, [])


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
