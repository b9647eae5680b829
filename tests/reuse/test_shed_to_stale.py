"""Shed-to-stale end to end, driven through ``Invoker.invoke``.

A single-flight leader revalidating an expired entry parks in the
admission queue, its deadline budget drains, and the gate sheds it.
The cache stage downgrades the shed to a stale answer (reason
``shed``), the request settles once, as answered, and the leader's
flight is aborted so its parked followers re-elect a new leader
instead of sharing the leader's stale answer or wedging.
"""

from repro import (
    FunctionCode,
    FunctionDef,
    Language,
    MoleculeRuntime,
    OverloadConfig,
    PuKind,
    WorkProfile,
)
from repro.reuse import ReuseConfig
from repro.reuse.cache import result_payload

from tests.support import settled

#: One slot per gate, room to park, no predictive shedding and a
#: brownout that can never trigger (pressure tops out at 1.0), so only
#: the leader's drained deadline budget can shed anything.
_GATE = OverloadConfig(
    initial_limit=1, min_limit=1, max_limit=1, queue_capacity=4,
    predictive_budget_fraction=None, brownout_on=2.0, brownout_off=1.5,
)


def _fn():
    return FunctionDef(
        name="memo",
        code=FunctionCode("memo", language=Language.PYTHON, import_ms=10.0),
        work=WorkProfile(warm_exec_ms=5.0),
        profiles=(PuKind.CPU,),
        idempotent=True,
    )


def _runtime():
    runtime = MoleculeRuntime.create(
        num_dpus=1, seed=7, default_deadline_s=10.0,
        reuse=ReuseConfig(ttl_s=0.5), overload=_GATE,
    )
    runtime.deploy_now(_fn())
    return runtime


def _scenario():
    runtime = _runtime()
    sim = runtime.sim
    # Memoize "k", then let the entry expire.
    assert runtime.invoke_now("memo", input_key="k").cache == ""

    def sleep(seconds):
        yield sim.timeout(seconds)

    runtime.run(sleep(1.0))
    outcomes = {}

    def call(label, delay, **kwargs):
        yield sim.timeout(delay)
        try:
            outcomes[label] = yield from runtime.invoke("memo", **kwargs)
        except Exception as exc:  # noqa: BLE001 - recorded as the fate
            outcomes[label] = exc

    # "busy" holds the only gate slot for 5 s.
    sim.spawn(call("busy", 0.0, input_key="busy", exec_time_s=5.0))
    # The leader revalidates "k" and parks in the queue with a 1 s
    # budget; the followers park on its flight.
    sim.spawn(call("leader", 0.001, input_key="k", deadline_s=1.0))
    sim.spawn(call("f1", 0.002, input_key="k"))
    sim.spawn(call("f2", 0.003, input_key="k"))
    sim.run()  # terminating at all proves nobody wedged
    return runtime, outcomes


def test_shed_leader_is_answered_stale_and_followers_reelect():
    runtime, outcomes = _scenario()
    reuse = runtime.reuse
    overload = runtime.overload

    leader = outcomes["leader"]
    assert leader.cache == "stale"
    assert leader.pu_name == "cache"
    assert leader.payload == result_payload("memo", "k")
    assert reuse.stale_by_reason == {"shed": 1}

    # The request settled once, answered: nothing is counted shed, the
    # downgrade is, and the gate's shed-log still records the shed.
    fates = runtime.fates
    assert fates.downgraded == 1
    assert fates.shed == {}
    assert overload.snapshot()["shed"] == 0
    assert reuse.snapshot()["shed_downgrades"] == 1
    [record] = overload.shed_log
    assert record["reason"] == "deadline"

    # The leader's flight was aborted and both followers were woken to
    # re-elect: one led a new execution, the other joined it.
    flights = reuse.flights
    assert flights.leader_failures == 1
    assert flights.followers_requeued == 2
    f1, f2 = outcomes["f1"], outcomes["f2"]
    assert f1.cache == "" and f1.pu_name != "cache"
    assert f2.cache == "fresh"
    assert f1.payload == f2.payload == result_payload("memo", "k")
    assert outcomes["busy"].cache == ""


def test_shed_to_stale_keeps_every_conservation_law():
    runtime, outcomes = _scenario()
    answered = sum(
        1 for outcome in outcomes.values() if not isinstance(outcome, Exception)
    ) + 1  # the memoizing request
    admitted = runtime.gateway.requests_admitted
    shed = settled(runtime, "shed")
    dead = len(runtime.dead_letters)
    assert answered + shed + dead == admitted == 5
    assert settled(runtime) == answered
