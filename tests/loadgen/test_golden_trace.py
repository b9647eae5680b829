"""Golden-trace regression: a checked-in arrival trace replayed through
two gateway shards must reproduce byte-identical per-request
(admit time, shard, PU, latency) tuples on every run.

The plan (``data/golden_plan.json``) and the expected tuples
(``data/golden_tuples.json``) are both checked in: the first guards
run-to-run determinism, the second catches any semantic drift in the
admission, routing, scheduling or execution paths.  If a change
*intentionally* alters the timeline (new overhead model, different
placement order), regenerate the tuples file and call the change out
in review.
"""

import json
from pathlib import Path

from repro.loadgen import ArrivalPlan, OpenLoopDriver, build_runtime

DATA = Path(__file__).parent / "data"
GOLDEN_SEED = 1234
GOLDEN_SHARDS = 2


def _load_plan() -> ArrivalPlan:
    return ArrivalPlan.from_json((DATA / "golden_plan.json").read_text())


def _replay(plan: ArrivalPlan):
    runtime, frontend = build_runtime(
        plan, seed=GOLDEN_SEED, shards=GOLDEN_SHARDS
    )
    records = OpenLoopDriver(runtime, plan, frontend).run()
    return [list(r.tuple()) for r in records]


def test_replay_matches_checked_in_tuples():
    plan = _load_plan()
    expected = json.loads((DATA / "golden_tuples.json").read_text())
    actual = _replay(plan)
    assert len(actual) == len(plan)
    assert actual == expected


def test_replay_is_identical_across_runs():
    plan = _load_plan()
    first = _replay(plan)
    second = _replay(plan)
    # Byte-identical, not approximately equal: serialise and compare.
    assert json.dumps(first) == json.dumps(second)


def test_golden_run_uses_both_shards_and_both_pu_kinds():
    """The checked-in trace actually exercises the sharded path: if a
    regression collapsed routing onto one shard or one PU the tuple
    diff should be accompanied by this failing too."""
    tuples = _replay(_load_plan())
    shards = {t[4] for t in tuples}
    pus = {t[5] for t in tuples}
    assert shards == {0, 1}
    assert len(pus) >= 2


def test_replay_event_count_is_pinned():
    """Kernel events per replay: a request runs its attempt inline (no
    attempt process to bootstrap and complete) and the deadline race
    adds no composite event.  A change here means the request path
    gained or lost events per request."""
    plan = _load_plan()
    runtime, frontend = build_runtime(
        plan, seed=GOLDEN_SEED, shards=GOLDEN_SHARDS
    )
    before = runtime.sim.kernel_profile()
    OpenLoopDriver(runtime, plan, frontend).run()
    after = runtime.sim.kernel_profile()
    assert after["events_processed"] - before["events_processed"] == 554
    assert (
        after["dispatched_by_kind"]["other"]
        - before["dispatched_by_kind"]["other"]
    ) == 145
