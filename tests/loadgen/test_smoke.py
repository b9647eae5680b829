"""The load smoke table CI runs: every row passes its hard checks on
both sides, and the hard checks flag each kind of broken report."""

import copy
from pathlib import Path

import pytest

from repro.loadgen import smoke

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("row", smoke.ROWS, ids=lambda row: row.name)
def test_smoke_row_passes_hard_checks(row, tmp_path, monkeypatch, capsys):
    # The reuse row's warn-only bars read the checked-in report.
    monkeypatch.chdir(REPO_ROOT)
    off, on = smoke.run_row(row, outdir=tmp_path)
    errors, _warnings = smoke.check(row, off, on)
    assert errors == []
    if row.output is not None:
        assert (tmp_path / row.output).exists()


def test_smoke_rows_have_unique_names_and_outputs():
    names = [row.name for row in smoke.ROWS]
    outputs = [row.output for row in smoke.ROWS if row.output]
    assert len(set(names)) == len(names)
    assert len(set(outputs)) == len(outputs)
    # A row the CLI writes cannot carry configs no flag expresses.
    assert all(not row.configs for row in smoke.ROWS if row.output)


def _sound_report():
    return {
        "load": {"lost": 0, "answered": 9, "shed": 1, "dead_lettered": 2,
                 "admitted": 12},
        "overload": {"conserved": True},
        "reuse": {"conserved": True, "served_stale": 3, "answered_stale": 3,
                  "stale_by_reason": {"pressure": 2, "deadline": 1}},
        "fates": {"admitted": 12, "answered": {"executed": 6, "stale": 3},
                  "shed": {"queue_full": 1}, "dead": {"deadline": 2},
                  "in_flight": 0},
    }


def _break(path, value):
    report = _sound_report()
    *keys, last = path
    section = report
    for key in keys:
        section = section[key]
    section[last] = value
    return report


@pytest.mark.parametrize("path, value, needle", [
    (("load", "lost"), 2, "lost 2 requests"),
    (("overload", "conserved"), False, "overload books do not balance"),
    (("reuse", "conserved"), False, "reuse books do not balance"),
    (("fates", "admitted"), 8, "three-fate conservation violated"),
    (("reuse", "stale_by_reason"), {"pressure": 2},
     "1 stale serves carry no pressure/deadline/shed reason"),
    (("reuse", "answered_stale"), 2, "driver-observed stale count"),
])
def test_hard_checks_flag_fabricated_reports(path, value, needle):
    assert smoke.hard_failures(_sound_report()) == []
    failures = smoke.hard_failures(_break(path, value))
    assert len(failures) == 1 and needle in failures[0]


def test_check_reports_failures_per_side_and_nondeterminism():
    row = smoke.Row("determinism", "--scenario burst --quick")
    sound = {"wall_s": 1.0, "host": {}, **_sound_report()}
    other = copy.deepcopy(sound)
    other["wall_s"] = 2.0  # wall time and host never count
    assert smoke.check(row, sound, other) == ([], [])
    other["load"]["lost"] = 1
    errors, _ = smoke.check(row, sound, other)
    assert errors == ["on side: lost 1 requests", "same-seed reports differ"]


def test_warn_bars_fire_on_their_condition():
    row = smoke.Row("bars", "--scenario burst --quick", on="--prewarm",
                    warns=(smoke.Warn("rate did not drop", "load.rate",
                                      lambda on, off: on >= off),
                           smoke.Warn("rate above bar", "load.rate",
                                      lambda on, bar: on > bar,
                                      baseline=0.5)))
    fates = _sound_report()["fates"]
    off = {"load": {"lost": 0, "rate": 0.4}, "fates": fates}
    on = {"load": {"lost": 0, "rate": 0.6}, "fates": fates}
    errors, warnings = smoke.check(row, off, on)
    assert errors == []
    assert warnings == [
        "rate did not drop (load.rate: 0.4 -> 0.6)",
        "rate above bar (load.rate: 0.5 -> 0.6)",
    ]
    assert smoke.check(row, on, off) == ([], [])


def test_checked_in_baseline_reads_from_any_directory(tmp_path, monkeypatch):
    # The reuse row compares against BENCH_load_cache.json at the
    # repository root, wherever the smoke table runs from.
    monkeypatch.chdir(tmp_path)
    row = next(row for row in smoke.ROWS if row.name == "reuse")
    report = _sound_report()
    report["reuse"]["hit_rate"] = 0.1
    report["latency"] = {"end_to_end": {"p99_ms": 100.0}}
    errors, warnings = smoke.check(row, report, report)
    assert errors == []
    assert "hit rate regressed >10% vs the checked-in report " \
        "(reuse.hit_rate: 0.8954 -> 0.1)" in warnings
