"""Report stage percentiles come from samples streamed at record time,
so they cover every request although a ``run_load`` hub retains no
trace at all: its report equals the one an unbounded trace ring
gives."""

import pytest

from repro.loadgen import latency_block, scenarios
from repro.obs import Observability
from repro.obs.spans import LIFECYCLE_PHASES

PARAMS = dict(scenario="poisson", seed=7, rps=200, duration_s=15, shards=4)


def _run(max_traces=None):
    """One ``run_load`` at PARAMS, with the hub's trace ring resized
    when ``max_traces`` is given; returns (report, runtime)."""
    seen = {}
    build_runtime = scenarios.build_runtime

    def observed(sim, **_):
        return Observability(sim, max_traces=max_traces)

    def capturing(*args, **kwargs):
        runtime, frontend = build_runtime(*args, **kwargs)
        seen["runtime"] = runtime
        return runtime, frontend

    with pytest.MonkeyPatch.context() as patch:
        if max_traces is not None:
            patch.setattr(scenarios, "Observability", observed)
        patch.setattr(scenarios, "build_runtime", capturing)
        report = scenarios.run_load(**PARAMS)
    return report, seen["runtime"]


@pytest.fixture(scope="module")
def runs():
    return _run(), _run(max_traces=10**9)


def _sim_fields(report):
    return {k: v for k, v in report.items() if k not in ("wall_s", "host")}


def test_run_outlives_the_ring(runs):
    (report, runtime), (unbounded_report, unbounded) = runs
    assert report["load"]["answered"] > 2 * 1024
    assert len(runtime.obs.traces) == 0
    assert len(unbounded.obs.traces) >= report["load"]["answered"]
    assert _sim_fields(report) == _sim_fields(unbounded_report)


def test_stage_counts_cover_every_completed_request(runs):
    (report, _), (_, unbounded) = runs
    completed = unbounded.obs.completed_traces()
    stages = report["latency"]["stages"]
    for name in LIFECYCLE_PHASES:
        having = sum(1 for trace in completed if name in trace.phases())
        assert stages.get(name, {"count": 0})["count"] == having
    assert stages["exec"]["count"] == len(completed)


def test_streamed_stages_match_walking_every_trace(runs):
    (report, _), (_, unbounded) = runs
    walked = {name: [] for name in LIFECYCLE_PHASES}
    for trace in unbounded.obs.completed_traces():
        for name, duration_s in trace.phases().items():
            if name in walked:
                walked[name].append(duration_s)
    expected = {
        name: latency_block(samples)
        for name, samples in walked.items()
        if samples
    }
    assert report["latency"]["stages"] == expected
