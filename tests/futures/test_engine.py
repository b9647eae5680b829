"""Fan-out engine behavior: planning, execution, gather, accounting.

The engine-off half mirrors every optional layer before it: a runtime
built without ``fanout=`` must stay byte-identical to one that never
heard of the engine, golden seed snapshot included.
"""

import functools
import json
import operator

import pytest

from repro import FanoutConfig, MoleculeRuntime
from repro.errors import FanoutPartialFailure, WorkloadError
from repro.futures import synthetic_dataset

from tests.futures.util import cpu_runtime, straggler_runtime
from tests.support import GOLDEN_SEED, golden_seed_snapshot, settled


# -- engine off: stock behavior, byte for byte ------------------------------------


def test_engine_off_matches_golden_snapshot():
    with open("tests/sim/data/golden_seed_snapshot.json",
              encoding="utf-8") as handle:
        expected = json.load(handle)
    current = golden_seed_snapshot(GOLDEN_SEED)
    assert json.dumps(current, sort_keys=True) == json.dumps(
        expected, sort_keys=True
    )


def test_engine_off_runtime_has_no_fanout_surface():
    runtime = MoleculeRuntime.create(num_dpus=1, seed=3)
    assert runtime.fanout is None
    names = [family.name for family in runtime.obs.registry.families()]
    assert not [name for name in names if name.startswith("repro_fanout_")]


# -- map / map_reduce correctness --------------------------------------------------


def test_map_returns_flat_results_in_input_order():
    runtime = cpu_runtime()
    items = synthetic_dataset(5, 100)
    value = runtime.run(
        runtime.fanout.map(lambda x: x * x, items, function="sq")
    )
    assert value == [x * x for x in items]


def test_map_reduce_equals_sequential_reference():
    runtime = cpu_runtime()
    items = synthetic_dataset(9, 123)
    value = runtime.run(runtime.fanout.map_reduce(
        lambda x: x + 1, items, operator.add, function="sq"
    ))
    assert value == functools.reduce(
        operator.add, [x + 1 for x in items]
    )


def test_empty_dataset_is_rejected():
    runtime = cpu_runtime()
    with pytest.raises(WorkloadError):
        runtime.run(runtime.fanout.map(lambda x: x, (), function="sq"))


def test_unknown_function_is_rejected_before_any_dispatch():
    runtime = cpu_runtime()
    with pytest.raises(Exception):
        runtime.run(
            runtime.fanout.map(lambda x: x, (1, 2), function="nope")
        )
    assert runtime.fanout.tasks_submitted == 0


# -- planning / accounting ---------------------------------------------------------


def test_chunked_admission_counts_batches():
    runtime = cpu_runtime(partitions=16, chunk_size=4)
    items = synthetic_dataset(5, 64)
    job = runtime.run(
        runtime.fanout.run_job(lambda x: x, items, function="sq")
    )
    assert job.partitions == 16
    assert job.batches == 4
    assert runtime.fanout.batches == 4
    assert runtime.fanout.tasks_submitted == 16
    assert runtime.fanout.tasks_done == 16


def test_job_result_shape_covers_driver_record_fields():
    runtime = cpu_runtime()
    job = runtime.run(runtime.fanout.run_job(
        lambda x: x, synthetic_dataset(5, 32), function="sq"
    ))
    assert job.function == "sq"
    assert job.total_s > 0
    assert job.admitted_s >= 0
    assert job.pu_name == "fanout"
    assert job.attempts == 1
    assert set(job.stage_s) == {"partition", "fanout", "gather"}
    reduced = runtime.run(runtime.fanout.run_job(
        lambda x: x, synthetic_dataset(5, 32), operator.add, function="sq"
    ))
    assert set(reduced.stage_s) == {
        "partition", "fanout", "gather", "reduce",
    }


def test_task_log_records_every_terminal_fate_once():
    runtime = cpu_runtime(partitions=8)
    runtime.run(runtime.fanout.map(
        lambda x: x, synthetic_dataset(5, 32), function="sq"
    ))
    log = runtime.fanout.task_log
    assert len(log) == 8
    assert sorted(seq for _, seq, _ in log) == list(range(8))
    assert all(outcome == "done" for _, _, outcome in log)
    times = [t for t, _, _ in log]
    assert times == sorted(times)


def test_conservation_against_gateway_admissions():
    runtime = cpu_runtime(partitions=16)
    runtime.run(runtime.fanout.map_reduce(
        lambda x: x, synthetic_dataset(5, 64), operator.add, function="sq"
    ))
    engine = runtime.fanout
    assert settled(runtime) == engine.answered_requests()
    # 16 tasks + partition + reduce stage requests.
    assert runtime.gateway.requests_admitted == 18


def test_snapshot_keys_are_stable():
    runtime = cpu_runtime()
    snap = runtime.fanout.snapshot()
    assert set(snap) == {
        "jobs", "jobs_failed", "tasks_submitted", "tasks_done",
        "tasks_shed", "tasks_error", "stage_ok", "stage_shed",
        "stage_error", "batches", "speculations", "speculation",
    }
    off = cpu_runtime(speculate=False)
    assert "speculation" not in off.fanout.snapshot()


def test_fanout_metrics_register_and_count():
    runtime = cpu_runtime(partitions=8)
    runtime.run(runtime.fanout.map(
        lambda x: x, synthetic_dataset(5, 32), function="sq"
    ))
    registry = runtime.obs.registry
    jobs = registry.get("repro_fanout_jobs")
    tasks = registry.get("repro_fanout_tasks")
    batches = registry.get("repro_fanout_batches")
    assert {
        labels["function"]: child.value for labels, child in jobs.series()
    } == {"sq": 1}
    assert {
        (labels["function"], labels["outcome"]): child.value
        for labels, child in tasks.series()
    } == {("sq", "done"): 8}
    assert sum(child.value for _, child in batches.series()) == 2


# -- straggler-aware gather --------------------------------------------------------


def test_straggler_gather_speculates_and_wins():
    runtime = straggler_runtime()
    items = synthetic_dataset(3, 256)
    job = runtime.run(runtime.fanout.run_job(
        lambda x: x * x, items, operator.add, function="sq"
    ))
    assert job.value == functools.reduce(
        operator.add, [x * x for x in items]
    )
    spec = runtime.fanout.speculation
    assert job.speculated > 0
    assert job.hedged is True
    assert spec.fired == job.speculated
    assert spec.won > 0
    assert spec.losers_completed == 0
    assert spec.anti_affinity_violations == 0


def test_gather_off_is_a_plain_all_completed_wait():
    runtime = straggler_runtime(speculate=False)
    items = synthetic_dataset(3, 256)
    job = runtime.run(runtime.fanout.run_job(
        lambda x: x * x, items, operator.add, function="sq"
    ))
    assert job.speculated == 0
    assert job.hedged is False
    assert runtime.fanout.speculation is None
    assert runtime.fanout.tasks_done == 32


def test_speculation_strictly_shortens_the_gather_tail():
    """Same dataset, same seed: arming straggler speculation must beat
    the gather-off wall clock (clones rescue the serial DPU tail)."""
    items = synthetic_dataset(3, 256)

    def gather_s(speculate):
        runtime = straggler_runtime(speculate=speculate)
        job = runtime.run(runtime.fanout.run_job(
            lambda x: x, items, function="sq"
        ))
        return job.stage_s["gather"]

    assert gather_s(True) < gather_s(False)


def test_fanout_runs_are_deterministic():
    def run_once():
        runtime = straggler_runtime()
        runtime.run(runtime.fanout.map_reduce(
            lambda x: x * x, synthetic_dataset(3, 256), operator.add,
            function="sq",
        ))
        return runtime.fanout.task_log, runtime.fanout.snapshot()

    first_log, first_snap = run_once()
    second_log, second_snap = run_once()
    assert json.dumps(first_log) == json.dumps(second_log)
    assert json.dumps(first_snap, sort_keys=True) == json.dumps(
        second_snap, sort_keys=True
    )


# -- partial failure ---------------------------------------------------------------


def test_partial_failure_surfaces_per_partition_errors():
    runtime = cpu_runtime(partitions=8)
    engine = runtime.fanout

    # Crash the only PUs the function profiles once half the tasks are
    # in flight by injecting failures directly into two futures.
    from repro.errors import ReproError
    from repro.futures.future import OUTCOME_ERROR

    original_task = engine._task

    def flaky_task(future, map_fn, function, frontend):
        if future.partition.index in (2, 5):
            engine.tasks_error += 1
            future._fail(
                ReproError(f"injected #{future.partition.index}"),
                OUTCOME_ERROR, engine.sim.now,
            )
            engine.task_log.append(
                (round(engine.sim.now, 9), future.seq, future.outcome)
            )
            engine.task_samples.append(0.0)
            return
            yield  # pragma: no cover - generator marker
        yield from original_task(future, map_fn, function, frontend)

    engine._task = flaky_task
    with pytest.raises(FanoutPartialFailure) as excinfo:
        runtime.run(engine.map(
            lambda x: x, synthetic_dataset(5, 32), function="sq"
        ))
    failure = excinfo.value
    assert failure.done == 6
    assert failure.failed == 2
    assert failure.shed == 0
    assert len(failure.errors) == 2
    assert "partition 2" in failure.errors[0]
    assert engine.jobs_failed == 1
