"""Candidate caching in the scheduler.

The health-filtered candidate view must be reused while nothing
changed, invalidated the moment a breaker or crash transition bumps the
registry version, and recomputed when an OPEN breaker's cool-down
elapses with no mutation at all (the ``valid_until`` path).
"""

from pathlib import Path

from repro import FunctionCode, FunctionDef, Language, PuKind, WorkProfile
from repro.core.reliability import HealthRegistry
from repro.core.scheduler import Scheduler
from repro.hardware import build_cpu_dpu_machine
from repro.loadgen import ArrivalPlan, OpenLoopDriver, build_runtime
from repro.sim import Simulator

GOLDEN_PLAN = Path(__file__).parent.parent / "loadgen" / "data" / "golden_plan.json"


def fn(name="f", profiles=(PuKind.CPU, PuKind.DPU)):
    return FunctionDef(
        name=name,
        code=FunctionCode(name, language=Language.PYTHON, memory_mb=60.0),
        work=WorkProfile(warm_exec_ms=10.0),
        profiles=profiles,
    )


def make(failure_threshold=2, open_s=30.0):
    sim = Simulator()
    machine = build_cpu_dpu_machine(sim, num_dpus=2)
    health = HealthRegistry(
        sim, failure_threshold=failure_threshold, open_s=open_s
    )
    scheduler = Scheduler(machine, health=health)
    return sim, machine, health, scheduler


def trip_breaker(health, pu, failures=2):
    for _ in range(failures):
        health.record_failure(pu)


def test_candidates_returns_cached_tuple():
    _sim, _machine, _health, scheduler = make()
    f = fn()
    first = scheduler.candidates(f)
    assert isinstance(first, tuple)
    assert scheduler.candidates(f) is first  # same version, no refilter


def test_candidates_without_health_returns_static_tuple():
    sim = Simulator()
    machine = build_cpu_dpu_machine(sim, num_dpus=1)
    scheduler = Scheduler(machine)
    f = fn()
    assert scheduler.candidates(f) is scheduler.candidates(f)


def test_breaker_trip_invalidates_candidates():
    _sim, machine, health, scheduler = make()
    f = fn()
    dpu = machine.pus_of_kind(PuKind.DPU)[0]
    assert dpu in scheduler.candidates(f)
    trip_breaker(health, dpu)
    refreshed = scheduler.candidates(f)
    assert dpu not in refreshed
    # And the filtered view is itself cached again.
    assert scheduler.candidates(f) is refreshed


def test_crash_and_reboot_invalidate_candidates():
    _sim, machine, health, scheduler = make()
    f = fn()
    dpu = machine.pus_of_kind(PuKind.DPU)[1]
    health.mark_down(dpu)
    assert dpu not in scheduler.candidates(f)
    health.mark_up(dpu)
    assert dpu in scheduler.candidates(f)


def test_open_cooldown_expiry_recomputes_without_version_bump():
    """An OPEN breaker recovers purely by time passing; the cache must
    not outlive the cool-down."""
    sim, machine, health, scheduler = make(open_s=30.0)
    f = fn()
    dpu = machine.pus_of_kind(PuKind.DPU)[0]
    trip_breaker(health, dpu)
    assert dpu not in scheduler.candidates(f)

    def wait(sim):
        yield sim.timeout(31.0)

    sim.spawn(wait(sim))
    sim.run()
    # No registry mutation since the trip — only the clock moved; the
    # valid-until bound forces a refilter and the breaker half-opens.
    assert dpu in scheduler.candidates(f)


def test_candidates_per_kind_cached_independently():
    _sim, machine, health, scheduler = make()
    f = fn()
    cpu_only = scheduler.candidates(f, kind=PuKind.CPU)
    dpu_only = scheduler.candidates(f, kind=PuKind.DPU)
    assert all(pu.kind is PuKind.CPU for pu in cpu_only)
    assert all(pu.kind is PuKind.DPU for pu in dpu_only)
    dpu = machine.pus_of_kind(PuKind.DPU)[0]
    trip_breaker(health, dpu)
    assert dpu not in scheduler.candidates(f, kind=PuKind.DPU)
    assert scheduler.candidates(f, kind=PuKind.CPU) == cpu_only


def test_half_open_probe_claim_invalidates_candidates():
    """Claiming the one half-open probe slot makes the PU unavailable
    to everyone else, so it must bump the version."""
    sim, machine, health, scheduler = make(open_s=30.0)
    f = fn()
    dpu = machine.pus_of_kind(PuKind.DPU)[0]
    trip_breaker(health, dpu)

    def wait(sim):
        yield sim.timeout(31.0)

    sim.spawn(wait(sim))
    sim.run()
    assert dpu in scheduler.candidates(f)  # half-open, probe slot free
    version = health.version
    health.begin_attempt(dpu)
    assert health.version == version + 1
    assert dpu not in scheduler.candidates(f)
    # A second attempt claims nothing and leaves the cache valid.
    health.begin_attempt(dpu)
    assert health.version == version + 1


def test_ordinary_attempts_keep_candidate_cache():
    """Replaying the golden 72-arrival plan refilters candidates only
    when the health registry changes, not once per request."""
    plan = ArrivalPlan.from_json(GOLDEN_PLAN.read_text())
    runtime, frontend = build_runtime(plan, seed=1234, shards=2)
    health = runtime.health
    calls = []
    filter_available = health.filter_available

    def counting(pus):
        calls.append(pus)
        return filter_available(pus)

    health.filter_available = counting
    OpenLoopDriver(runtime, plan, frontend).run()
    assert len(plan) == 72
    # No breaker or crash transition happens in this replay, so each
    # (function, kind) key is filtered exactly once.
    assert health.version == 0
    assert len(calls) == len(runtime.scheduler._available_candidates)
