"""The perf harness: report schema, comparison logic, CLI round trip."""

import copy
import json
from pathlib import Path

import pytest

from repro import perf
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_scenario_registry_names():
    assert set(perf.SCENARIOS) == {
        "kernel_microbench",
        "invocation_sweep",
        "coldstart_storm",
        "startup_replay",
    }


def test_checked_in_reports_name_only_registered_scenarios():
    """A deleted scenario must leave the checked-in baselines with it."""
    for name in ("BENCH_perf.json", "BENCH_perf_profile.json"):
        report = json.loads((REPO_ROOT / name).read_text())
        scenarios = report.get("scenarios", report)
        assert set(scenarios) <= set(perf.SCENARIOS), name


def test_run_benchmarks_quick_populates_every_scenario():
    report = perf.run_benchmarks(quick=True)
    assert report["schema"] == "repro-perf/1"
    assert report["quick"] is True
    assert set(report["scenarios"]) == set(perf.SCENARIOS)
    for scenario in report["scenarios"].values():
        assert scenario["wall_s"] > 0
        rates = [
            v for k, v in scenario["metrics"].items() if k.endswith("_per_sec")
        ]
        assert rates and all(r > 0 for r in rates)
        assert scenario["stages"]
        assert scenario["params"]


def test_coldstart_storm_coalesces_into_fewer_sandboxes():
    report = perf.run_benchmarks(quick=True, scenarios=["coldstart_storm"])
    scenario = report["scenarios"]["coldstart_storm"]
    requests = scenario["params"]["requests"]
    metrics = scenario["metrics"]
    # The engine serves the whole storm from fewer sandboxes than
    # requests; without it the DRAM-pressured overflow dies placing.
    assert metrics["answered_engine_on"] == requests
    assert metrics["sandboxes_engine_on"] < requests
    assert metrics["answered_engine_off"] < metrics["answered_engine_on"]
    assert metrics["cold_engine_on"] < metrics["cold_engine_off"] + (
        metrics["coalesced_engine_on"]
    )


def test_run_benchmarks_profile_attaches_kernel_snapshots():
    report = perf.run_benchmarks(
        quick=True, scenarios=["kernel_microbench"], profile=True
    )
    profiles = report["profiles"]
    prof = profiles["kernel_microbench"]
    assert prof["batched"] is True
    assert prof["events_processed"] > 0
    assert prof["batches_drained"] > 0
    assert set(prof["dispatched_by_kind"]) == {
        "resume", "timeout", "event", "other",
    }
    assert set(prof["slab"]) == {"timeout", "resume", "event", "bucket"}
    rendered = perf.format_profile(profiles)
    assert "kernel_microbench" in rendered
    assert "heap ops avoided" in rendered
    # Without the flag the report schema is unchanged.
    plain = perf.run_benchmarks(quick=True, scenarios=["kernel_microbench"])
    assert "profiles" not in plain


def test_run_benchmarks_scenario_subset_and_unknown():
    report = perf.run_benchmarks(quick=True, scenarios=["kernel_microbench"])
    assert list(report["scenarios"]) == ["kernel_microbench"]
    with pytest.raises(KeyError):
        perf.run_benchmarks(quick=True, scenarios=["nope"])


def _fake_report(events_per_sec):
    return {
        "schema": perf.bench.SCHEMA,
        "quick": True,
        "scenarios": {
            "kernel_microbench": {
                "wall_s": 1.0,
                "metrics": {
                    "events_per_sec": events_per_sec,
                    "events": 1000.0,
                },
                "stages": {},
                "params": {"procs": 1},
            },
        },
    }


def test_compare_flags_regression_beyond_threshold():
    prior = _fake_report(1000.0)
    current = _fake_report(700.0)  # -30%
    regressions = perf.compare_reports(current, prior, threshold=0.20)
    assert len(regressions) == 1
    r = regressions[0]
    assert r["scenario"] == "kernel_microbench"
    assert r["metric"] == "events_per_sec"
    assert r["delta"] == pytest.approx(-0.30)
    assert "REGRESSIONS" in perf.format_comparison(regressions, 0.20)


def test_compare_tolerates_drop_within_threshold_and_gains():
    prior = _fake_report(1000.0)
    assert perf.compare_reports(_fake_report(850.0), prior, 0.20) == []
    assert perf.compare_reports(_fake_report(2000.0), prior, 0.20) == []
    assert "no regressions" in perf.format_comparison([], 0.20)


def test_compare_skips_mismatched_params_and_missing_scenarios():
    prior = _fake_report(1000.0)
    current = _fake_report(100.0)
    current["scenarios"]["kernel_microbench"]["params"] = {"procs": 99}
    assert perf.compare_reports(current, prior, 0.20) == []
    assert perf.compare_reports(_fake_report(100.0), {"scenarios": {}}, 0.20) == []


def test_non_rate_metrics_are_not_compared():
    prior = _fake_report(1000.0)
    current = copy.deepcopy(prior)
    current["scenarios"]["kernel_microbench"]["metrics"]["events"] = 1.0
    assert perf.compare_reports(current, prior, 0.20) == []


def test_write_report_round_trips(tmp_path):
    report = perf.run_benchmarks(quick=True, scenarios=["kernel_microbench"])
    path = tmp_path / "bench.json"
    perf.write_report(report, str(path))
    assert json.loads(path.read_text()) == report


def test_cli_perf_quick_writes_report_and_compares(tmp_path, capsys):
    out = tmp_path / "BENCH_perf.json"
    code = main([
        "perf", "--quick", "--output", str(out), "kernel_microbench",
    ])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["scenarios"]["kernel_microbench"]["metrics"]["events_per_sec"] > 0

    # Compare against itself: never a regression.
    code = main([
        "perf", "--quick", "--output", str(out), "--compare", str(out),
        "--fail-on-regression", "kernel_microbench",
    ])
    assert code == 0
    assert "no regressions" in capsys.readouterr().out


def test_cli_perf_fail_on_regression_exits_nonzero(tmp_path, capsys):
    out = tmp_path / "BENCH_perf.json"
    prior_path = tmp_path / "prior.json"
    assert main([
        "perf", "--quick", "--output", str(out), "kernel_microbench",
    ]) == 0
    prior = json.loads(out.read_text())
    # Fabricate an implausibly fast prior run to force a regression.
    scenario = prior["scenarios"]["kernel_microbench"]
    scenario["metrics"]["events_per_sec"] *= 100.0
    prior_path.write_text(json.dumps(prior))
    code = main([
        "perf", "--quick", "--output", str(out), "--compare", str(prior_path),
        "--fail-on-regression", "kernel_microbench",
    ])
    assert code == 1
    assert "REGRESSIONS" in capsys.readouterr().out
    # Warn-only is the default: same comparison without the flag passes.
    assert main([
        "perf", "--quick", "--output", str(out), "--compare", str(prior_path),
        "kernel_microbench",
    ]) == 0


def test_cli_perf_profile_writes_sidecar(tmp_path, capsys):
    out = tmp_path / "BENCH_perf.json"
    code = main([
        "perf", "--quick", "--profile", "--output", str(out),
        "kernel_microbench",
    ])
    assert code == 0
    # The report itself keeps the unprofiled schema...
    report = json.loads(out.read_text())
    assert "profiles" not in report
    # ...and the counters land in the sidecar next to it.
    sidecar = json.loads((tmp_path / "BENCH_perf_profile.json").read_text())
    assert sidecar["kernel_microbench"]["events_processed"] > 0
    assert "heap ops avoided" in capsys.readouterr().out


def test_cli_perf_unknown_scenario_is_an_error(tmp_path):
    assert main([
        "perf", "--quick", "--output", str(tmp_path / "b.json"), "nope",
    ]) == 2
