"""A coalescing leader whose cold start fails must not wedge its batch.

dpu0 crashes while the single-flight leader is mid cold start and two
followers are parked on its batch.  The leader's attempt aborts the
batch; the followers wake empty-handed, re-check the pool, re-elect a
leader on the surviving DPU, and every request is answered.
"""

from repro import (
    FaultKind,
    FaultPlan,
    FaultSpec,
    FunctionCode,
    FunctionDef,
    Language,
    MoleculeRuntime,
    PuKind,
    WarmPathConfig,
    WorkProfile,
)
from repro.faults.injector import FaultInjector


def _fn():
    return FunctionDef(
        name="f",
        code=FunctionCode(
            "f", language=Language.PYTHON, import_ms=200.0, memory_mb=60
        ),
        work=WorkProfile(warm_exec_ms=5.0),
        profiles=(PuKind.DPU, PuKind.CPU),
    )


def _run():
    runtime = MoleculeRuntime.create(
        num_dpus=2, seed=3,
        warmpath=WarmPathConfig(prewarm=False, prefetch=False),
    )
    runtime.deploy_now(_fn())
    engine = runtime.warmpath
    aborted = []
    abort_batch = engine.abort_batch

    def counting_abort(batch):
        aborted.append(batch.key)
        abort_batch(batch)

    engine.abort_batch = counting_abort
    sim = runtime.sim
    injector = FaultInjector(runtime, FaultPlan.of(
        FaultSpec(FaultKind.PU_CRASH, "dpu0", at_s=sim.now + 0.05),
    ))
    runtime.injector = injector
    injector.arm()
    results = {}

    def call(label, delay):
        yield sim.timeout(delay)
        results[label] = yield from runtime.invoke("f", kind=PuKind.DPU)

    for index, label in enumerate(("leader", "f1", "f2")):
        sim.spawn(call(label, 0.001 * index), name=label)
    sim.run()  # terminating at all proves nobody wedged
    return runtime, results, aborted


def test_failed_leader_wakes_followers_to_reelect():
    runtime, results, aborted = _run()
    dpu0 = next(p for p in runtime.machine.pus.values() if p.name == "dpu0")
    # The leader's batch on dpu0 was aborted...
    assert (("f", dpu0.pu_id)) in aborted
    # ...which requeued both parked followers...
    assert runtime.warmpath.coalescer.followers_requeued == 2
    # ...and everyone was answered off the crashed DPU.
    assert sorted(results) == ["f1", "f2", "leader"]
    assert all(r.pu_name != "dpu0" for r in results.values())
    assert results["leader"].attempts > 1
    assert len(runtime.dead_letters) == 0


def test_failed_leader_run_is_deterministic():
    first = _run()[1]
    second = _run()[1]
    assert {k: (r.pu_name, r.total_s) for k, r in first.items()} == {
        k: (r.pu_name, r.total_s) for k, r in second.items()
    }
