"""Property-based invariants for the computation-reuse layer.

Over generated Zipf workloads (arbitrary skew, arbitrary seeds, with
and without a mid-run PU crash) the books must always balance: every
submitted request meets exactly one fate, the three-fate conservation
``answered + shed + dead == admitted`` holds with the cache armed, and
the answers partition into ``fresh + stale + executed``.  On top of
the random sweep, two targeted adversaries: an invalidating deploy
must never be followed by a fresh hit, and a crashing single-flight
leader must cost one re-execution — never a wedged follower cohort.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    FunctionCode,
    FunctionDef,
    Language,
    MoleculeRuntime,
    PuKind,
    WorkProfile,
)
from repro.errors import ReproError, SandboxError
from repro.faults import FaultKind, FaultPlan, FaultSpec
from repro.loadgen import (
    OpenLoopDriver,
    PoissonArrivals,
    attach_fault_plan,
    attach_zipf_inputs,
    build_runtime,
    default_mix,
)
from repro.reuse import ReuseConfig
from repro.sim.rng import SeededRng

from tests.support import settled

# Simulation runs are comparatively expensive; keep the example budget
# small.  The invariants are structural, not statistical.
_SIM_SETTINGS = settings(max_examples=15, deadline=None)


@_SIM_SETTINGS
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    rate=st.floats(min_value=30.0, max_value=150.0, allow_nan=False),
    skew=st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
    crash=st.booleans(),
)
def test_reuse_conservation_over_random_zipf_workloads(
    seed, rate, skew, crash
):
    """Whatever the skew, the seed, or a dpu0 crash mid-run: one fate
    per request, three-fate conservation machine-wide, and the cached/
    executed answer partition exactly covering the answered set."""
    rng = SeededRng(seed).fork("prop:reuse")
    plan = PoissonArrivals(default_mix(), rate, rng=rng).plan(duration_s=1.0)
    plan = attach_zipf_inputs(plan, rng.fork("keys"), skew=skew)
    runtime, frontend = build_runtime(
        plan, seed=seed, shards=2, reuse=True, idempotent=True,
        overload=True,
    )
    if crash:
        attach_fault_plan(runtime, FaultPlan.of(FaultSpec(
            kind=FaultKind.PU_CRASH, target="dpu0",
            at_s=0.3, reboot_after_s=0.3,
        )))
    records = OpenLoopDriver(runtime, plan, frontend).run()

    # Exactly one record, carrying exactly one fate, per planned arrival.
    assert len(records) == len(plan)
    assert frontend.requests_admitted == len(plan)
    answered = sum(1 for r in records if r.answered)
    shed = sum(1 for r in records if r.shed)
    dead = len(records) - answered - shed
    assert answered + shed + dead == len(plan)
    # Only answered requests may claim a cache serve, and the flag is
    # one of the three legal values.
    for record in records:
        assert record.cache in ("", "fresh", "stale")
        if not record.answered:
            assert record.cache == ""

    reuse = runtime.reuse
    assert settled(runtime) == answered
    assert settled(runtime, "shed") == shed
    # Single-flight never strands anyone: every follower that joined
    # was either fanned an entry or requeued to re-elect.
    flights = reuse.flights
    assert (flights.followers_served + flights.followers_requeued
            == flights.followers_joined)
    assert 0.0 <= reuse.hit_rate() <= 1.0


def _memo_fn(exec_ms=5.0):
    return FunctionDef(
        name="memo",
        code=FunctionCode("memo", language=Language.PYTHON, import_ms=10.0),
        work=WorkProfile(warm_exec_ms=exec_ms),
        profiles=(PuKind.CPU,),
        idempotent=True,
    )


@_SIM_SETTINGS
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    key=st.text(alphabet="abcdef0123456789", min_size=1, max_size=8),
)
def test_fresh_hit_never_follows_an_invalidating_deploy(seed, key):
    """For any seed and any input key: once the function is redeployed,
    the very next request for a previously-hot key must re-execute —
    an entry filled under the old code may never serve fresh."""
    runtime = MoleculeRuntime.create(
        num_dpus=1, seed=seed, default_deadline_s=10.0,
        reuse=ReuseConfig(ttl_s=1000.0),  # freshness is not the test
    )
    runtime.deploy_now(_memo_fn())
    runtime.invoke_now("memo", input_key=key)
    assert runtime.invoke_now("memo", input_key=key).cache == "fresh"
    runtime.registry.unregister("memo")
    runtime.deploy_now(_memo_fn())
    assert runtime.invoke_now("memo", input_key=key).cache == ""


def test_leader_crash_reexecutes_instead_of_wedging_followers():
    """The mutation test behind the abort path: sabotage the first
    execution so the single-flight leader dies mid-flight.  Followers
    must be woken empty-handed, re-elect a new leader, and answer from
    its (real) execution — the failure costs one error and one extra
    election, never a wedged cohort or a phantom answer."""
    runtime = MoleculeRuntime.create(
        num_dpus=1, seed=11, default_deadline_s=10.0,
        reuse=ReuseConfig(),
    )
    runtime.deploy_now(_memo_fn(exec_ms=50.0))
    sim = runtime.sim
    invoker = runtime.invoker
    original = invoker._invoke_with_retries
    sabotage = {"left": 1}

    def sabotaged(*args, **kwargs):
        if sabotage["left"]:
            sabotage["left"] -= 1
            # Let the followers park on the flight first, then die.
            yield sim.timeout(0.01)
            raise SandboxError("injected leader crash")
        result = yield from original(*args, **kwargs)
        return result

    invoker._invoke_with_retries = sabotaged
    results, errors = [], []

    def call():
        try:
            result = yield from runtime.invoke("memo", input_key="hot")
        except ReproError as exc:
            errors.append(exc)
        else:
            results.append(result)

    for index in range(3):
        sim.spawn(call(), name=f"cohort{index}")
    sim.run()  # terminating at all proves nobody wedged

    assert len(errors) == 1  # the sabotaged leader's own request
    assert len(results) == 2  # both followers were answered...
    assert len({r.payload for r in results}) == 1  # ... identically
    reuse = runtime.reuse
    flights = reuse.flights
    assert flights.leader_failures == 1
    assert flights.followers_requeued == 2  # both woken empty-handed
    assert flights.flights_opened == 2  # the re-election
    # One requeued follower led the re-election, the other re-joined it.
    assert flights.followers_joined == 3
    assert flights.followers_served == 1
    assert reuse.executed == 1  # one real run for the whole cohort
    assert reuse.served_fresh == 1
    # Each request settled once; the sabotaged one failed outside the
    # retry loop, so it is dead without a dead letter.
    assert runtime.fates.answered == {"executed": 1, "fresh": 1}
    assert runtime.fates.dead == {"error": 1}
