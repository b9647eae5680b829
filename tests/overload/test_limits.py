"""Unit behavior of the AIMD limiter, the admission gate's three shed
paths, and the bounded dead-letter queue."""

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
from repro.core.reliability import DeadLetter, DeadLetterQueue
from repro.errors import ReproError, RequestShed
from repro.overload import AdaptiveLimit

from tests.support import settled


# -- AIMD limiter ------------------------------------------------------------------


def _cfg(**overrides):
    base = dict(
        initial_limit=10, min_limit=2, max_limit=12,
        latency_tolerance=2.0, increase=1.0, decrease=0.5,
        min_window=4,
    )
    base.update(overrides)
    return OverloadConfig(**base)


def test_limit_grows_additively_to_the_cap():
    limiter = AdaptiveLimit(_cfg())
    for _ in range(60):
        limiter.on_complete(0.01, ok=True)
    assert limiter.limit == 12
    assert limiter.decreases == 0
    assert limiter.increases == 60


def test_failures_shrink_multiplicatively_to_the_floor():
    limiter = AdaptiveLimit(_cfg())
    limiter.on_complete(0.01, ok=False)
    assert limiter.limit == 5
    for _ in range(10):
        limiter.on_complete(0.01, ok=False)
    assert limiter.limit == 2
    assert limiter.increases == 0


def test_slow_completion_counts_as_congestion():
    limiter = AdaptiveLimit(_cfg())
    limiter.on_complete(0.01, ok=True)   # establishes the floor
    before = limiter.limit
    limiter.on_complete(0.05, ok=True)   # > floor x tolerance
    assert limiter.limit < before
    assert limiter.decreases == 1


def test_failures_stay_out_of_the_latency_floor():
    """A fast failure must not drag the moving minimum down and
    mislabel every healthy completion as congestion."""
    limiter = AdaptiveLimit(_cfg())
    limiter.on_complete(0.5, ok=True)
    limiter.on_complete(0.001, ok=False)
    increases = limiter.increases
    limiter.on_complete(0.5, ok=True)    # still at the true floor
    assert limiter.increases == increases + 1


def test_ewma_tracks_successes_only():
    limiter = AdaptiveLimit(_cfg())
    assert limiter.ewma_latency is None
    limiter.on_complete(0.1, ok=True)
    assert limiter.ewma_latency == 0.1
    limiter.on_complete(0.2, ok=False)
    assert limiter.ewma_latency == 0.1
    limiter.on_complete(0.2, ok=True)
    assert abs(limiter.ewma_latency - 0.11) < 1e-12


# -- admission gate shed paths ----------------------------------------------------


def _pinned(**overrides):
    """A gate pinned at one concurrency slot, brownout disabled (the
    pressure signal is clamped to <= 1, so 1.5 never trips)."""
    base = dict(
        initial_limit=1, min_limit=1, max_limit=1,
        queue_capacity=1, predictive_budget_fraction=None,
        brownout_on=1.5,
    )
    base.update(overrides)
    return OverloadConfig(**base)


def _runtime(config, deadline_s=10.0, seed=11):
    runtime = MoleculeRuntime.create(
        num_dpus=1, seed=seed, default_deadline_s=deadline_s,
        overload=config,
    )
    runtime.deploy_now(FunctionDef(
        name="slow",
        code=FunctionCode("slow", language=Language.PYTHON, import_ms=20.0),
        work=WorkProfile(warm_exec_ms=50.0),
        profiles=(PuKind.CPU,),
    ))
    return runtime


def _submit(runtime, count, answered, sheds, dead=None, spacing_s=0.0001):
    sim = runtime.sim

    def call(index):
        if index:
            yield sim.timeout(index * spacing_s)
        try:
            yield from runtime.invoke("slow")
        except RequestShed as exc:
            sheds.append(exc.reason)
        except ReproError as exc:
            if dead is not None:
                dead.append(type(exc).__name__)
        else:
            answered.append(index)

    for index in range(count):
        sim.spawn(call(index), name=f"req-{index}")
    sim.run()


def test_queue_full_sheds_at_the_backstop():
    runtime = _runtime(_pinned())
    answered, sheds = [], []
    _submit(runtime, 4, answered, sheds)
    # Slot + one queue seat: the other two arrivals shed immediately.
    assert sheds == ["queue_full", "queue_full"]
    assert len(answered) == 2
    gate = runtime.overload.gates()[0]
    assert runtime.fates.shed_by_gate == {gate.label: 2}
    assert gate.max_queue_depth == 1
    assert runtime.fates.shed == {"queue_full": 2}
    # Sheds count against admission: the gateway admitted all four.
    assert settled(runtime) == len(answered)
    assert runtime.gateway.requests_admitted == 4


def test_deadline_drain_while_parked_sheds_not_dead_letters():
    """A parked request whose budget drains before a grant is shed with
    reason ``deadline`` — it never reaches the retry loop, so it is
    never dead-lettered.  The slot holder gets a long deadline and the
    waiters short ones, so their budgets provably drain mid-service."""
    runtime = _runtime(_pinned(queue_capacity=8), deadline_s=10.0)
    sim = runtime.sim
    answered, sheds = [], []

    def call(delay_s, deadline_s):
        if delay_s:
            yield sim.timeout(delay_s)
        try:
            yield from runtime.invoke("slow", deadline_s=deadline_s)
        except RequestShed as exc:
            sheds.append(exc.reason)
        else:
            answered.append(deadline_s)

    sim.spawn(call(0.0, 10.0), name="holder")     # cold start ~70ms
    sim.spawn(call(0.001, 0.03), name="doomed-1")  # parks, drains at 30ms
    sim.spawn(call(0.002, 0.03), name="doomed-2")
    sim.run()

    assert sheds == ["deadline", "deadline"]
    assert answered == [10.0]
    # Shed, not dead-lettered: the DLQ never saw them.
    assert len(runtime.dead_letters) == 0
    assert settled(runtime) == len(answered)
    assert settled(runtime, "shed") == len(sheds)
    # The in-queue sheds recorded the time they spent parked.
    waited = [entry["waited_s"] for entry in runtime.overload.shed_log]
    assert all(w > 0.0 for w in waited)


def test_predictive_shed_on_hopeless_wait():
    """Once the wait estimator is warm, a request whose estimated queue
    wait exceeds the configured fraction of its remaining budget is
    shed up front instead of parking doomed."""
    runtime = _runtime(
        _pinned(queue_capacity=64, predictive_budget_fraction=0.5)
    )
    # Warm the latency EWMA with sequential completions.
    for _ in range(3):
        runtime.invoke_now("slow")
    sim = runtime.sim
    answered, sheds = [], []

    def call(delay_s, deadline_s):
        yield sim.timeout(delay_s)
        try:
            yield from runtime.invoke("slow", deadline_s=deadline_s)
        except RequestShed as exc:
            sheds.append(exc.reason)
        else:
            answered.append(deadline_s)

    sim.spawn(call(0.0, 10.0), name="holder")     # takes the slot
    sim.spawn(call(0.001, 10.0), name="parked")   # parks (queue non-empty)
    sim.spawn(call(0.002, 0.05), name="doomed")   # two service times behind
    sim.run()

    assert sheds == ["predicted_wait"]
    assert len(answered) == 2
    # The cold-estimator guard: a fresh gate never predicts.
    fresh = _runtime(_pinned()).overload
    gate = fresh.gate_for(object())
    assert gate.estimated_wait_s() == 0.0


# -- bounded dead-letter queue -----------------------------------------------------


def _letter(request_id):
    return DeadLetter(
        request_id=request_id, function="f", attempts=3,
        errors=("boom",), enqueued_at=0.0,
    )


def test_dead_letter_queue_drops_oldest_when_bounded():
    dlq = DeadLetterQueue(capacity=2)
    for rid in range(1, 5):
        dlq.push(_letter(rid))
    # Lifetime total survives eviction (conservation accounting)...
    assert len(dlq) == 4
    assert dlq.total == 4
    assert dlq.overflowed == 2
    # ... while retention keeps the most recent entries.
    assert [e.request_id for e in dlq.entries()] == [3, 4]
    assert dlq.request_ids() == {3, 4}


def test_dead_letter_queue_unbounded_by_default():
    dlq = DeadLetterQueue()
    for rid in range(10):
        dlq.push(_letter(rid))
    assert dlq.overflowed == 0
    assert len(dlq.entries()) == 10
    assert len(dlq) == 10


def test_dead_letter_queue_validates_capacity():
    with pytest.raises(ValueError):
        DeadLetterQueue(capacity=0)


def test_late_capacity_assignment_bounds_future_pushes():
    """The overload controller arms after boot by assigning
    ``capacity`` on the live queue; the bound applies per-push from
    then on (one eviction per overflowing push)."""
    dlq = DeadLetterQueue()
    for rid in range(4):
        dlq.push(_letter(rid))
    dlq.capacity = 2
    dlq.push(_letter(99))
    assert dlq.overflowed == 1
    assert dlq.entries()[0].request_id == 1
    assert len(dlq) == 5
