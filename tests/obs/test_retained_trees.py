"""Retained span trees stay pinned under orphans and hedges.

A deadline orphans an attempt that keeps running to release its
resources, and a hedge clone that wins leaves its primary running on;
both keep writing spans after their request has closed.  A closed
:class:`~repro.obs.spans.RequestTrace` ignores those late writes, so
every retained tree must match the checked-in digests exactly.

Regenerate ``data/retained_trees.json`` (only for a deliberate change
to what a trace records) with::

    PYTHONPATH=src python tests/obs/test_retained_trees.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.loadgen import scenarios
from repro.obs import Observability

DATA = Path(__file__).parent / "data" / "retained_trees.json"

#: name -> run_load arguments.  The overload scenario's 2 s deadline
#: orphans hundreds of attempts; the hedged and chaos rows add primaries
#: that lose to their clones.
CONFIGS = {
    "overload seed 5": dict(scenario="overload", quick=True, seed=5),
    "overload seed 9 hedged": dict(
        scenario="overload", quick=True, seed=9, hedge=True
    ),
    "chaos mix": dict(
        scenario="overload", quick=True, seed=17, overload=True,
        hedge=True, prewarm=True,
    ),
}


def _tree(span) -> list:
    return [
        span.name, span.begin_s, span.end_s,
        sorted((key, repr(value)) for key, value in span.attributes.items()),
        [_tree(child) for child in span.children],
    ]


def _digest(config: dict) -> dict:
    """Replay ``config`` with an unbounded trace ring; return its trace
    count, failure counts and a sha256 over every retained tree."""

    def unbounded(sim, **_):
        return Observability(sim, max_traces=None)

    seen = {}
    build_runtime = scenarios.build_runtime

    def capturing(*args, **kwargs):
        runtime, frontend = build_runtime(*args, **kwargs)
        seen["runtime"] = runtime
        return runtime, frontend

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scenarios, "Observability", unbounded)
        patch.setattr(scenarios, "build_runtime", capturing)
        scenarios.run_load(**config)
    traces = seen["runtime"].obs.traces
    digest = hashlib.sha256()
    for trace in traces:
        digest.update(json.dumps(_tree(trace.root)).encode())
        digest.update(b"\n")
    return {
        "traces": len(traces),
        "deadline_failures": sum(
            trace.attributes.get("error") == "DeadlineExceeded"
            for trace in traces
        ),
        "hedged": sum(bool(trace.attributes.get("hedged")) for trace in traces),
        "sha256": digest.hexdigest(),
    }


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_retained_trees_match_the_golden(name):
    expected = json.loads(DATA.read_text())[name]
    assert _digest(CONFIGS[name]) == expected


if __name__ == "__main__":
    DATA.write_text(json.dumps(
        {name: _digest(config) for name, config in sorted(CONFIGS.items())},
        indent=2, sort_keys=True,
    ) + "\n")
