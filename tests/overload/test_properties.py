"""Property-based overload invariants.

The load-bearing one extends the reliability suite's exactly-one-fate
theorem to three fates: under arbitrary workloads, crash timings and
seeds, every admitted request is answered, shed or dead-lettered —
exactly one of the three — and the counters agree."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    FaultKind,
    FaultPlan,
    FaultSpec,
    FunctionCode,
    FunctionDef,
    Language,
    MoleculeRuntime,
    OverloadConfig,
    PuKind,
    WorkProfile,
)
from repro.errors import ReproError, RequestShed
from repro.faults.injector import FaultInjector

from tests.support import settled

# A small workload: each entry is (start_delay_ticks, force_cold).
_JOBS = st.lists(
    st.tuples(st.integers(min_value=0, max_value=8), st.booleans()),
    min_size=1,
    max_size=10,
)

# Crash timing in 10ms ticks after workload start, and an optional
# reboot delay (None = the DPU stays dead).
_CRASH = st.tuples(
    st.integers(min_value=0, max_value=10),
    st.one_of(st.none(), st.integers(min_value=1, max_value=10)),
)


def _fn():
    return FunctionDef(
        name="f",
        code=FunctionCode("f", language=Language.PYTHON, import_ms=30.0),
        work=WorkProfile(warm_exec_ms=8.0),
        profiles=(PuKind.DPU, PuKind.CPU),
    )


def _run(jobs, crash, seed):
    # A deliberately tiny gate with a tight deadline, so the random
    # workloads actually park, shed and dead-letter.
    config = OverloadConfig(
        initial_limit=2, min_limit=1, max_limit=4, queue_capacity=2,
        predictive_budget_fraction=0.5, brownout_on=0.6,
        brownout_off=0.3, brownout_min_s=0.05,
    )
    runtime = MoleculeRuntime.create(
        num_dpus=2, seed=seed, default_deadline_s=0.25, overload=config,
    )
    runtime.deploy_now(_fn())
    crash_tick, reboot_ticks = crash
    injector = FaultInjector(
        runtime,
        FaultPlan.of(
            FaultSpec(
                FaultKind.PU_CRASH,
                "dpu0",
                at_s=runtime.sim.now + crash_tick * 0.01,
                reboot_after_s=(
                    None if reboot_ticks is None else reboot_ticks * 0.01
                ),
            )
        ),
    )
    runtime.injector = injector
    injector.arm()

    answered = []
    shed = []
    dead_seen = []

    def submitter(delay_ticks, force_cold):
        if delay_ticks:
            yield runtime.sim.timeout(delay_ticks * 0.01)
        try:
            result = yield from runtime.invoke(
                "f", kind=PuKind.DPU, force_cold=force_cold
            )
        except RequestShed as exc:
            shed.append(exc)
        except ReproError as exc:
            dead_seen.append(type(exc).__name__)
        else:
            answered.append(result)

    for index, (delay, cold) in enumerate(jobs):
        runtime.sim.spawn(submitter(delay, cold), name=f"job-{index}")
    runtime.sim.run()
    return runtime, answered, shed, dead_seen


@settings(max_examples=12, deadline=None)
@given(jobs=_JOBS, crash=_CRASH, seed=st.integers(min_value=0, max_value=2**16))
def test_answered_shed_dead_partition_admitted(jobs, crash, seed):
    runtime, answered, shed, dead_seen = _run(jobs, crash, seed)
    admitted = runtime.gateway.requests_admitted
    dead = len(runtime.dead_letters)

    # Sheds happen after gateway admission, so every job was admitted.
    assert admitted == len(jobs)
    # The conservation invariant: answered + shed + dead == admitted.
    assert settled(runtime) == len(answered)
    # Caller-side observations agree with the machine-side counters.
    assert len(answered) + len(shed) + len(dead_seen) == len(jobs)
    assert settled(runtime, "shed") == len(shed)
    assert dead == len(dead_seen)

    # Exactly one fate: the three id sets are pairwise disjoint.
    shed_ids = {exc.request_id for exc in shed}
    answered_ids = {r.request_id for r in answered}
    dead_ids = runtime.dead_letters.request_ids()
    assert shed_ids.isdisjoint(dead_ids)
    assert shed_ids.isdisjoint(answered_ids)
    assert answered_ids.isdisjoint(dead_ids)
    # Every shed carries one of the gate's reasons.
    assert set(runtime.fates.shed) <= {"queue_full", "predicted_wait",
                                       "deadline"}
