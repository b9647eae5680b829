"""All-engines golden: reuse, overload, hedging and the warm path armed
together on the overload scenario, dpu0 crash included.

Engines are otherwise pinned in pairs; this replay pins the request
pipeline end to end (admit -> cache -> gate -> retry -> attempt, with
the hedged race and coalesced starts underneath).  Each row is a
request's ``hedge_tuple() + (cache,)``, checked in as
``data/golden_all_engines_tuples.json``.  A change that intentionally
alters the timeline must regenerate the file and say so in review.
"""

import json
from pathlib import Path

import pytest

from repro.loadgen import run_load, scenarios
from repro.overload import OverloadConfig
from repro.reuse import ReuseConfig

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden_all_engines_tuples.json"


def _replay(monkeypatch):
    captured = []

    class RecordingDriver(scenarios.OpenLoopDriver):
        def run(self):
            records = super().run()
            captured.append(records)
            return records

    monkeypatch.setattr(scenarios, "OpenLoopDriver", RecordingDriver)
    report = run_load(
        "overload", seed=1234, quick=True,
        overload=OverloadConfig(
            initial_limit=2, min_limit=1, max_limit=4, queue_capacity=8,
            throttle_hedges=False,
        ),
        hedge=True, prewarm=True, reuse=ReuseConfig(ttl_s=0.05),
    )
    [records] = captured
    rows = [list(r.hedge_tuple()) + [r.cache] for r in records]
    return rows, report


@pytest.fixture(scope="module")
def replay():
    with pytest.MonkeyPatch.context() as monkeypatch:
        return _replay(monkeypatch)


def test_replay_matches_checked_in_tuples(replay):
    rows, _report = replay
    expected = json.loads(GOLDEN.read_text())
    assert len(rows) == len(expected) == 1358
    assert rows == expected


def test_every_engine_actually_fires(replay):
    """The golden cannot go trivial: every engine and the crash leave
    a mark on the run."""
    _rows, report = replay
    assert report["overload"]["shed"] == 15
    assert report["reuse"]["served_stale"] == 1179
    assert report["reuse"]["served_fresh"] == 63
    assert report["hedging"]["fired"] == 2
    assert report["overload"]["degraded_forced"] == 32
    assert report["warmpath"]["coalesced_served"] == 16
    for count in (15, 1179, 63, 2, 32, 16):
        assert count > 0
    load = report["load"]
    assert (load["answered"] + load["shed"] + load["dead_lettered"]
            == load["admitted"])
    assert report["reuse"]["conserved"] is True


def test_rows_carry_every_fate(replay):
    rows, _report = replay
    assert {row[8] for row in rows} == {"", "fresh", "stale"}
    assert any(row[7] for row in rows)  # at least one hedged request
    assert any(row[2] == "Shed" for row in rows)
