"""Cross-subsystem interop: fan-out × overload control, fan-out × warm path.

The fan-out engine rides the same gateway/scheduler/invoker path as
every plain request, so the other optional subsystems must compose
with it rather than around it:

* overload control sheds fan-out tasks at the admission gate exactly
  like singleton requests — a shed partition surfaces in the job's
  ``FanoutPartialFailure`` and the frontend-level conservation
  invariant still balances;
* the warm-path engine coalesces a fan-out cold-start storm into a
  handful of single-flight batches instead of queueing one serial
  cold start per partition on the DPU executor daemon.
"""

import functools
import operator

import pytest

from repro import (
    FanoutConfig,
    FunctionCode,
    FunctionDef,
    Language,
    MoleculeRuntime,
    OverloadConfig,
    PuKind,
    WorkProfile,
)
from repro.errors import FanoutPartialFailure
from repro.futures import synthetic_dataset
from repro.loadgen import run_load
from repro.warmpath import WarmPathConfig

from tests.support import settled


def _dpu_first_function(name: str = "sq") -> FunctionDef:
    return FunctionDef(
        name=name,
        code=FunctionCode(name, language=Language.PYTHON, import_ms=40.0),
        work=WorkProfile(warm_exec_ms=5.0),
        profiles=(PuKind.DPU, PuKind.CPU),
    )


# -- fanout x overload --------------------------------------------------------------


#: A deliberately tiny gate with a tight deadline so a 32-task storm
#: actually parks and sheds (mirrors tests/overload recipes).
_TINY_GATE = dict(
    initial_limit=2, min_limit=1, max_limit=4, queue_capacity=2,
    predictive_budget_fraction=0.5,
)


def _overloaded_runtime(seed: int = 5) -> MoleculeRuntime:
    runtime = MoleculeRuntime.create(
        num_dpus=2, seed=seed, default_deadline_s=0.25,
        overload=OverloadConfig(**_TINY_GATE),
        fanout=FanoutConfig(
            partitions=32, chunk_size=8, admit_stagger_s=0.001,
            speculate=False,
        ),
    )
    runtime.deploy_now(_dpu_first_function("f"))
    return runtime


def test_overload_sheds_surface_as_partial_failure():
    """Tasks refused by the admission gate land in the job's partial
    failure as sheds (not errors), and some tasks still complete."""
    runtime = _overloaded_runtime()
    frontend = runtime.sharded_frontend(2)

    def drive():
        try:
            yield from runtime.fanout.run_job(
                lambda x: x, synthetic_dataset(5, 128),
                function="f", frontend=frontend,
            )
        except FanoutPartialFailure as exc:
            return exc
        return None

    proc = runtime.sim.spawn(drive())
    runtime.sim.run()
    failure = proc.value
    assert isinstance(failure, FanoutPartialFailure)
    assert failure.shed > 0
    assert failure.done > 0
    assert failure.done + failure.shed + failure.failed == 32


def test_conservation_holds_at_the_frontend_under_shedding():
    """Every admitted request still reaches exactly one fate when the
    gate is shedding: answered + shed + dead-lettered == admitted."""
    runtime = _overloaded_runtime()
    frontend = runtime.sharded_frontend(2)

    def drive():
        try:
            yield from runtime.fanout.run_job(
                lambda x: x, synthetic_dataset(5, 128),
                function="f", frontend=frontend,
            )
        except FanoutPartialFailure:
            pass

    runtime.sim.spawn(drive())
    runtime.sim.run()
    engine = runtime.fanout
    assert engine.tasks_shed > 0
    assert settled(runtime) == engine.answered_requests()
    assert settled(runtime, "shed") == engine.shed_requests()


def test_fanout_scenario_composes_with_overload_control():
    """``run_load`` wires both subsystems at once: the report carries
    an overload block *and* a conserved fanout block, and the load
    totals balance (nothing lost)."""
    report = run_load("fanout", seed=3, quick=True, overload=True)
    assert "overload" in report
    fanout = report["fanout"]
    assert fanout["conserved"] is True
    assert fanout["tasks_done"] > 0
    assert report["load"]["lost"] == 0


# -- fanout x warm path -------------------------------------------------------------


_STORM = FanoutConfig(
    partitions=32, chunk_size=8, admit_stagger_s=0.001, speculate=False,
)


def _storm_runtime(warmpath: bool, seed: int = 9) -> MoleculeRuntime:
    runtime = MoleculeRuntime.create(
        num_dpus=2, seed=seed,
        warmpath=WarmPathConfig() if warmpath else None,
        fanout=_STORM,
    )
    runtime.deploy_now(_dpu_first_function())
    return runtime


def _storm_job(runtime):
    items = synthetic_dataset(9, 256)
    job = runtime.run(runtime.fanout.run_job(
        lambda x: x * x, items, operator.add, function="sq"
    ))
    assert job.value == functools.reduce(
        operator.add, [x * x for x in items]
    )
    return job


def test_cold_start_storm_coalesces_into_single_flight_batches():
    """32 simultaneous misses on the same (function, PU) open a
    handful of batches, not 32 serial cold starts."""
    runtime = _storm_runtime(warmpath=True)
    _storm_job(runtime)
    assert runtime.fanout.tasks_done == 32
    # The vast majority of tasks ride a batch as followers...
    assert runtime.invoker.coalesced_invocations >= 24
    # ...because the storm opened only a few single-flight batches.
    assert 0 < runtime.warmpath.coalescer.batches_opened <= 4
    assert runtime.warmpath.coalesced_served == (
        runtime.invoker.coalesced_invocations
    )


def test_coalescing_beats_serial_cold_starts_on_wall_clock():
    """Same storm, same seed: the warm path collapses the serial DPU
    cold-start queue, so the fan-out + gather stages finish far
    sooner than the un-coalesced runtime."""
    warm = _storm_job(_storm_runtime(warmpath=True))
    cold = _storm_job(_storm_runtime(warmpath=False))
    warm_s = warm.stage_s["fanout"] + warm.stage_s["gather"]
    cold_s = cold.stage_s["fanout"] + cold.stage_s["gather"]
    assert warm_s < cold_s / 2


def test_warmpath_does_not_change_fanout_results_or_fates():
    runtime = _storm_runtime(warmpath=True)
    _storm_job(runtime)
    log = runtime.fanout.task_log
    assert len(log) == 32
    assert sorted(seq for _, seq, _ in log) == list(range(32))
    assert all(outcome == "done" for _, _, outcome in log)
