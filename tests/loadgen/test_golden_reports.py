"""Report goldens: the whole ``run_load`` report of each benchmark
workload, pinned byte for byte.

Each row below is one perfbench workload's ``run_load`` parameters
(``perfbench/spec.py``) at seed 3, cut to a run of a few simulated
seconds so the four replays together take well under a second.  The
reports, minus the host-dependent ``wall_s`` and ``host`` keys, are
checked in as ``data/golden_reports.json``.  A change that claims to
keep reports byte-identical passes here unchanged; one that alters a
report on purpose must regenerate the file (run this module as a
script) and say so in review.
"""

import json
from pathlib import Path

import pytest

from repro.loadgen import run_load

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden_reports.json"
SEED = 3
#: Keys whose values depend on the host rather than the simulation.
HOST_KEYS = ("wall_s", "host")

WORKLOADS = {
    "steady": dict(scenario="poisson", rps=200.0, duration_s=5.0, shards=4),
    "chaos": dict(scenario="overload", rps=200.0, duration_s=2.0, shards=4,
                  overload=True, hedge=True, prewarm=True),
    "zipf_hot": dict(scenario="zipf", rps=200.0, duration_s=3.0, shards=4,
                     reuse=True),
    "fanout": dict(scenario="fanout", rps=200.0, duration_s=4.0, shards=4),
}


def _report(name: str) -> str:
    report = run_load(seed=SEED, **WORKLOADS[name])
    for key in HOST_KEYS:
        del report[key]
    return json.dumps(report, sort_keys=True)


def _expected() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_report_matches_checked_in_golden(name):
    expected = json.dumps(_expected()[name], sort_keys=True)
    assert _report(name) == expected


def test_goldens_cover_every_workload_and_are_not_trivial():
    expected = _expected()
    assert sorted(expected) == sorted(WORKLOADS)
    admitted = {name: report["load"]["admitted"]
                for name, report in expected.items()}
    assert admitted == {"steady": 953, "chaos": 2607, "zipf_hot": 2493,
                        "fanout": 858}


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    DATA.mkdir(exist_ok=True)
    reports = {name: json.loads(_report(name)) for name in sorted(WORKLOADS)}
    GOLDEN.write_text(json.dumps(reports, indent=1, sort_keys=True) + "\n")
    print(f"regenerated {GOLDEN}")
