"""Property-based tests for the fan-out engine's invariants.

Random partition geometries, seeds and mid-fanout DPU crashes; the
invariants that must hold regardless:

* every submitted partition task reaches exactly one terminal fate,
  logged exactly once, and the frontend-level conservation balance
  (answered + shed + dead == admitted) closes;
* a job that completes returns exactly the sequential reference
  reduction — crashes and failovers may move the timeline, never the
  answer; a job that fails partially still accounts for every task;
* ``wait(ANY_COMPLETED)`` is live: while unfinished futures remain it
  always returns a non-empty done-set, and draining by repeated
  any-waits terminates.
"""

import functools
import operator

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    FanoutConfig,
    FunctionCode,
    FunctionDef,
    Language,
    MoleculeRuntime,
    PuKind,
    WorkProfile,
)
from repro.errors import FanoutPartialFailure
from repro.faults import FaultKind, FaultPlan, FaultSpec
from repro.faults.injector import FaultInjector
from repro.futures import (
    ANY_COMPLETED,
    FanoutFuture,
    Partitioner,
    synthetic_dataset,
    wait,
)
from repro.sim import Simulator

from tests.support import settled

_SIM_SETTINGS = settings(max_examples=12, deadline=None)

# Crash timing in 10ms ticks after the job starts; an optional reboot
# delay (None = the DPU stays dead and failover must carry the tail).
_CRASH = st.one_of(
    st.none(),
    st.tuples(
        st.sampled_from(["dpu0", "dpu1"]),
        st.integers(min_value=0, max_value=10),
        st.one_of(st.none(), st.integers(min_value=1, max_value=10)),
    ),
)

_GEOMETRY = st.tuples(
    st.integers(min_value=1, max_value=24),   # partitions
    st.integers(min_value=1, max_value=8),    # chunk size
    st.integers(min_value=1, max_value=96),   # dataset size
)


def _run_fanout(geometry, crash, seed):
    partitions, chunk_size, n_items = geometry
    runtime = MoleculeRuntime.create(
        num_dpus=2, seed=seed, default_deadline_s=5.0,
        fanout=FanoutConfig(
            partitions=partitions, chunk_size=chunk_size,
            admit_stagger_s=0.001, speculate=False,
        ),
    )
    runtime.deploy_now(FunctionDef(
        name="f",
        code=FunctionCode("f", language=Language.PYTHON, import_ms=30.0),
        work=WorkProfile(warm_exec_ms=8.0),
        profiles=(PuKind.DPU, PuKind.CPU),
    ))
    if crash is not None:
        pu_name, crash_tick, reboot_ticks = crash
        injector = FaultInjector(runtime, FaultPlan.of(FaultSpec(
            FaultKind.PU_CRASH, pu_name,
            at_s=crash_tick * 0.01,
            reboot_after_s=(
                None if reboot_ticks is None else reboot_ticks * 0.01
            ),
        )))
        runtime.injector = injector
        injector.arm()
    items = synthetic_dataset(seed, n_items)

    def drive():
        try:
            job = yield from runtime.fanout.run_job(
                lambda x: x + 1, items, operator.add, function="f"
            )
        except FanoutPartialFailure as exc:
            return ("partial", exc)
        return ("ok", job)

    proc = runtime.sim.spawn(drive())
    runtime.sim.run()
    return runtime, items, proc.value


@_SIM_SETTINGS
@given(
    geometry=_GEOMETRY,
    crash=_CRASH,
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_every_task_reaches_exactly_one_terminal_fate(
    geometry, crash, seed
):
    runtime, _items, _outcome = _run_fanout(geometry, crash, seed)
    engine = runtime.fanout
    log = engine.task_log
    # One log entry per submitted task, each sequence exactly once.
    assert len(log) == engine.tasks_submitted
    assert sorted(seq for _, seq, _ in log) == list(
        range(engine.tasks_submitted)
    )
    # Terminal fates only, and the counters agree with the log.
    fates = [outcome for _, _, outcome in log]
    assert set(fates) <= {"done", "shed", "error"}
    assert fates.count("done") == engine.tasks_done
    assert fates.count("shed") == engine.tasks_shed
    assert fates.count("error") == engine.tasks_error
    # The frontend-level balance closes even with a dead DPU.
    assert settled(runtime) == engine.answered_requests()
    assert settled(runtime, "shed") == engine.shed_requests()


@_SIM_SETTINGS
@given(
    geometry=_GEOMETRY,
    crash=_CRASH,
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_map_reduce_matches_sequential_reference(geometry, crash, seed):
    """Crashes and failover may move the timeline, never the answer."""
    runtime, items, outcome = _run_fanout(geometry, crash, seed)
    kind, payload = outcome
    if kind == "ok":
        assert payload.value == functools.reduce(
            operator.add, [x + 1 for x in items]
        )
    else:
        # Partial failure still accounts for every submitted task.
        assert (
            payload.done + payload.failed + payload.shed
        ) == runtime.fanout.tasks_submitted
        assert payload.failed + payload.shed > 0


# -- wait(ANY_COMPLETED) liveness ---------------------------------------------------


def _pending_future(seq):
    part = Partitioner(1).partition((seq,))[0]
    future = FanoutFuture(seq, part, "f")
    future._mark_running(0.0)
    return future


@_SIM_SETTINGS
@given(
    delays=st.lists(
        st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
        min_size=1,
        max_size=16,
    )
)
def test_wait_any_completed_is_live(delays):
    """Draining a random set by repeated any-waits terminates, every
    wake returns a non-empty done-set, and nothing is reported done
    twice."""
    sim = Simulator()
    futures = [_pending_future(i) for i in range(len(delays))]

    def finisher(future, delay):
        if delay:
            yield sim.timeout(delay)
        future._finish(future.seq, sim.now)

    for future, delay in zip(futures, delays):
        sim.spawn(finisher(future, delay))

    drained = []

    def drain():
        remaining = list(futures)
        while remaining:
            done, remaining = yield from wait(
                sim, remaining, ANY_COMPLETED
            )
            assert done, "any-wait woke with an empty done-set"
            assert all(f.done() for f in done)
            drained.extend(done)

    sim.spawn(drain())
    sim.run()
    assert sorted(f.seq for f in drained) == list(range(len(delays)))
