"""Mutation-verified straggler gather: the detectors detect.

A test that asserts ``losers_completed == 0`` proves nothing if the
counter could never move.  Each test here *disables* one safety
mechanism of the speculation race — the way a regression would — and
asserts the corresponding detector actually fires; the unmutated twin
asserts it stays silent.

* loser cancellation: stub the hedge join state's ``lost`` checkpoint
  probe to "never lost" — losing copies run to completion, the
  completed-loser counter moves and their execution is double-billed
  as hedge waste;
* clone anti-affinity: stub its ``avoid`` to "exclude nothing" —
  clones land on their primary's PU and the speculation policy's
  placement check trips.
"""

import operator

import pytest

from repro.futures import synthetic_dataset
from repro.hedging.engine import _HedgeState

from tests.futures.util import straggler_runtime

ITEMS = synthetic_dataset(3, 256)


def _run_job(runtime):
    return runtime.run(runtime.fanout.run_job(
        lambda x: x * x, ITEMS, operator.add, function="sq"
    ))


@pytest.fixture
def unpatched():
    saved = {
        name: getattr(_HedgeState, name)
        for name in ("lost", "avoid")
    }
    yield
    for name, fn in saved.items():
        setattr(_HedgeState, name, fn)


def test_baseline_race_is_clean():
    runtime = straggler_runtime()
    _run_job(runtime)
    spec = runtime.fanout.speculation
    assert spec.fired > 0
    assert spec.losers_completed == 0
    assert spec.anti_affinity_violations == 0


def test_disabling_cancellation_checkpoints_is_detected(unpatched):
    """No checkpoint ever reports the race lost -> losers run to
    completion and their execution is charged as double-billed
    waste."""
    _HedgeState.lost = lambda self, tag: False
    runtime = straggler_runtime()
    _run_job(runtime)
    spec = runtime.fanout.speculation
    assert spec.fired > 0
    # The completed-loser detector fires...
    assert spec.losers_completed > 0
    # ...and the double-billing shows up as wasted execution seconds
    # (every loser ran its full exec after the race was decided).
    assert spec.wasted_s > 0.0


def test_forcing_same_pu_clones_is_detected(unpatched):
    """Clone placement ignores anti-affinity -> clones land on the
    primary's PU and the placement check trips."""
    _HedgeState.avoid = lambda self, tag: None
    runtime = straggler_runtime()
    _run_job(runtime)
    spec = runtime.fanout.speculation
    assert spec.fired > 0
    assert spec.anti_affinity_violations > 0


def test_mutations_do_not_break_results(unpatched):
    """Both mutations corrupt the *race*, never the answer: results
    stay correct, every task still reaches exactly one fate."""
    import functools

    expected = functools.reduce(operator.add, [x * x for x in ITEMS])
    for mutation in (
        ("lost", lambda self, tag: False),
        ("avoid", lambda self, tag: None),
    ):
        saved = getattr(_HedgeState, mutation[0])
        setattr(_HedgeState, mutation[0], mutation[1])
        try:
            runtime = straggler_runtime()
            job = _run_job(runtime)
        finally:
            setattr(_HedgeState, mutation[0], saved)
        assert job.value == expected
        assert runtime.fanout.tasks_done == 32
        assert len(runtime.fanout.task_log) == 32
