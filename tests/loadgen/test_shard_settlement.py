"""Shard settlement: every request routed through a gateway shard is
settled exactly once on that shard's counters.

``ShardedFrontend.invoke`` only routes: it claims the shard and hands
back the invoker's generator, and ``Invoker.invoke`` settles the shard
through its gateway's ``shard`` back-reference.  Each fate is driven
here: answered, shed, dead by deadline, dead by retries exhausted, and
a generator closed before it finishes.
"""

import pytest

from repro import (
    FunctionCode,
    FunctionDef,
    Language,
    MoleculeRuntime,
    OverloadConfig,
    PuKind,
    WorkProfile,
)
from repro.core.reliability import BreakerState
from repro.errors import (
    DeadlineExceeded, ReproError, RequestShed, RetriesExhaustedError,
)


def _fn(name, exec_ms=5.0, memory_mb=60.0):
    return FunctionDef(
        name=name,
        code=FunctionCode(name, language=Language.PYTHON, memory_mb=memory_mb),
        work=WorkProfile(warm_exec_ms=exec_ms),
        profiles=(PuKind.CPU,),
    )


def _frontend(**kwargs):
    """One shard over a CPU-only runtime with a fast, a slow (500 ms)
    and a too-big-to-place (1 PB) function."""
    runtime = MoleculeRuntime.create(num_dpus=0, seed=7, **kwargs)
    runtime.deploy_now(_fn("fast"))
    runtime.deploy_now(_fn("slow", exec_ms=500.0))
    runtime.registry.register(_fn("big", memory_mb=1e9))
    return runtime, runtime.sharded_frontend(1)


def _call(frontend, outcomes, name, delay_s=0.0, **kwargs):
    """Generator: one request through the front end, its result or
    library error appended to ``outcomes``."""
    sim = frontend.runtime.sim
    if delay_s:
        yield sim.timeout(delay_s)
    try:
        outcomes.append((yield from frontend.invoke(name, **kwargs)))
    except ReproError as exc:
        outcomes.append(exc)


def _run(frontend, *calls):
    """Run each ``(name, delay_s, kwargs)`` call to the end; returns
    their outcomes in completion order."""
    outcomes = []
    for name, delay_s, kwargs in calls:
        frontend.runtime.sim.spawn(
            _call(frontend, outcomes, name, delay_s, **kwargs)
        )
    frontend.runtime.sim.run()
    return outcomes


def _assert_settled(runtime, shard):
    """Nothing left in flight, and every routed request counted once."""
    shed = runtime.fates.shed_by_gate.get(str(shard.index), 0)
    assert shard.outstanding == 0
    assert shard.routed == shard.completed + shard.failed + shed
    runtime.check_fates()


def _pu_failures(runtime):
    """Consecutive failures each PU breaker counted."""
    return {
        pu.name: runtime.health.breaker(pu).consecutive_failures
        for pu in runtime.machine.pus.values()
    }


def test_answered_request_completes_its_shard():
    runtime, frontend = _frontend()
    shard = frontend.shards[0]
    [result] = _run(frontend, ("fast", 0.0, {}))
    assert result.shard == shard.index == 0
    assert (shard.routed, shard.completed, shard.failed) == (1, 1, 0)
    _assert_settled(runtime, shard)
    assert shard.breaker.consecutive_failures == 0
    assert shard.breaker.state is BreakerState.CLOSED
    assert set(_pu_failures(runtime).values()) == {0}


def test_shed_request_is_no_shard_failure():
    """A gate pinned at one slot with a one-deep queue sheds the third
    of three concurrent requests; the shed reaches neither ``failed``
    nor the shard's breaker."""
    runtime, frontend = _frontend(overload=OverloadConfig(
        initial_limit=1, min_limit=1, max_limit=1, queue_capacity=1,
        predictive_budget_fraction=None, brownout_on=1.5,
    ))
    shard = frontend.shards[0]
    outcomes = _run(
        frontend, ("slow", 0.0, {}), ("slow", 0.001, {}), ("slow", 0.002, {}),
    )
    sheds = [o for o in outcomes if isinstance(o, RequestShed)]
    answers = [o for o in outcomes if not isinstance(o, ReproError)]
    assert len(sheds) == 1 and len(answers) == 2
    assert all(result.shard == 0 for result in answers)
    assert (shard.routed, shard.completed, shard.failed) == (3, 2, 0)
    assert runtime.fates.shed_by_gate == {"0": 1}
    _assert_settled(runtime, shard)
    assert shard.breaker.consecutive_failures == 0
    assert set(_pu_failures(runtime).values()) == {0}


def test_request_dead_by_deadline_fails_its_shard():
    """A deadline is a failed request for the shard, but not a failure
    of the PU it ran on: the orphaned attempt finishes there later."""
    runtime, frontend = _frontend(default_deadline_s=0.05)
    shard = frontend.shards[0]
    [exc] = _run(frontend, ("slow", 0.0, {}))
    assert isinstance(exc, DeadlineExceeded)
    assert (shard.routed, shard.completed, shard.failed) == (1, 0, 1)
    _assert_settled(runtime, shard)
    assert shard.breaker.consecutive_failures == 1
    assert set(_pu_failures(runtime).values()) == {0}
    assert runtime.fates.dead == {"deadline": 1}


def test_request_dead_by_retries_exhausted_fails_its_shard():
    """Placement fails on every attempt (no PU has 1 PB free), so no
    PU breaker is blamed; the shard counts one failed request."""
    runtime, frontend = _frontend()
    shard = frontend.shards[0]
    [exc] = _run(frontend, ("big", 0.0, {}))
    assert isinstance(exc, RetriesExhaustedError)
    assert (shard.routed, shard.completed, shard.failed) == (1, 0, 1)
    _assert_settled(runtime, shard)
    assert shard.breaker.consecutive_failures == 1
    assert set(_pu_failures(runtime).values()) == {0}
    assert runtime.fates.dead == {"retries_exhausted": 1}


def test_request_refused_before_admission_fails_its_shard():
    """An unknown function is refused before admission: the shard still
    settles the request it routed, and no fate is opened."""
    runtime, frontend = _frontend()
    shard = frontend.shards[0]
    [exc] = _run(frontend, ("missing", 0.0, {}))
    assert isinstance(exc, ReproError)
    assert (shard.routed, shard.completed, shard.failed) == (1, 0, 1)
    assert runtime.fates.admitted == 0
    _assert_settled(runtime, shard)


def test_rejected_call_claims_no_shard():
    """A call the invoker cannot even start (an unknown keyword) raises
    before the shard is claimed."""
    runtime, frontend = _frontend()
    shard = frontend.shards[0]
    with pytest.raises(TypeError):
        frontend.invoke("fast", no_such_option=1)
    assert (shard.routed, shard.outstanding) == (0, 0)


@pytest.mark.parametrize("resumes", [0, 1, 2])
def test_closed_generator_settles_nothing(resumes):
    """Closing the request's generator before it finishes (before its
    first step, in admission, or after admission) settles nothing: the
    request stays outstanding on its shard, the shard's breaker sees
    neither a success nor a failure, and an admitted request keeps its
    fate open.  Only the gateway forgets its deadline."""
    runtime, frontend = _frontend(default_deadline_s=5.0)
    shard = frontend.shards[0]
    gateway = shard.gateway
    generator = frontend.invoke("slow")
    # Routing is a plain call: the shard is claimed before any step.
    assert (shard.routed, shard.outstanding) == (1, 1)
    for _ in range(resumes):
        event = generator.send(None)
        # Let the yielded event fire; the generator is resumed by hand.
        runtime.sim.run(until=runtime.sim.now + 0.01)
        assert event.triggered
    generator.close()
    assert (shard.routed, shard.outstanding) == (1, 1)
    assert (shard.completed, shard.failed) == (0, 0)
    assert shard.breaker.consecutive_failures == 0
    admitted = 1 if resumes == 2 else 0
    assert runtime.fates.admitted == runtime.fates.in_flight == admitted
    if admitted:
        assert gateway.deadline_for(1) is None


def test_half_open_shard_probe_bypasses_the_gate():
    """The probe flag is read before ``begin_request`` claims the
    half-open probe slot: the probe sails past a saturated gate and its
    answer closes the shard's breaker."""
    runtime, frontend = _frontend(overload=OverloadConfig(
        initial_limit=1, min_limit=1, max_limit=1, queue_capacity=1,
        predictive_budget_fraction=None, brownout_on=1.5,
    ))
    shard = frontend.shards[0]
    sim = runtime.sim
    outcomes = []
    sim.spawn(_call(frontend, outcomes, "slow"))           # holds the slot
    sim.spawn(_call(frontend, outcomes, "slow", 0.001))    # fills the queue
    sim.run(until=sim.now + 0.002)
    shard.breaker.state = BreakerState.HALF_OPEN
    shard.breaker.probe_in_flight = False
    probe = frontend.invoke("slow")
    # Claimed at call time, after the bypass flag was computed.
    assert shard.breaker.probe_in_flight
    assert not shard.healthy
    sim.spawn(_finish(probe, outcomes))
    sim.run()
    [gate] = runtime.overload.gates()
    assert gate.bypassed == 1
    assert not any(isinstance(o, RequestShed) for o in outcomes)
    assert shard.breaker.state is BreakerState.CLOSED
    assert (shard.routed, shard.completed, shard.failed) == (3, 3, 0)
    _assert_settled(runtime, shard)


def _finish(generator, outcomes):
    """Generator: run an already-routed request to its end."""
    outcomes.append((yield from generator))
