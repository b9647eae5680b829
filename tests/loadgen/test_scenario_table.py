"""The scenario table and the ``repro load`` flags that feed it.

Every ``repro load`` option sets the ``run_load`` keyword named by its
dest, the CLI's params block equals the library's, each scenario's
defaults land in ``params``, and a flag that cannot apply to the run
is an error rather than silently ignored.
"""

import inspect
import json

import pytest

from repro.cli import build_parser, main
from repro.errors import ReproError
from repro.loadgen import run_load, scenario_names
from repro.loadgen.scenarios import SCENARIOS

#: ``repro load`` options about the report file, not the run.
REPORT_DESTS = {"command", "json", "output", "compare", "threshold",
                "fail_on_regression"}


def test_every_load_dest_is_a_run_load_keyword():
    dests = set(vars(build_parser().parse_args(["load"]))) - REPORT_DESTS
    assert dests == set(inspect.signature(run_load).parameters)


def test_table_names_every_scenario():
    assert scenario_names() == sorted(SCENARIOS)


#: Per scenario: the defaults its row puts in ``params``.
ROW_DEFAULTS = {
    "poisson": {},
    "burst": {},
    "diurnal": {},
    "azure": {},
    "overload": {"deadline_s": 2.0, "keep_alive_ttl_s": 2.0},
    "fanout": {"prewarm": True, "fanout": True, "fanout_gather": True},
    "zipf": {"deadline_s": 2.0, "zipf_s": 1.1},
}


@pytest.mark.parametrize("scenario", sorted(ROW_DEFAULTS))
def test_cli_params_equal_run_load_params(scenario, tmp_path, capsys):
    assert main([
        "load", "--scenario", scenario, "--quick", "--seed", "5",
        "--duration", "2", "--json", "--output", str(tmp_path / "b.json"),
    ]) == 0
    out = capsys.readouterr().out
    cli = json.loads(out[: out.rindex("}") + 1])["params"]
    assert cli == run_load(scenario, quick=True, seed=5, duration_s=2.0)[
        "params"]
    absent = {"deadline_s", "keep_alive_ttl_s", "fanout", "fanout_gather",
              "zipf_s"}
    expected = {key: cli.get(key) for key in absent | {"prewarm"}}
    assert expected == {**dict.fromkeys(absent), "prewarm": False,
                        **ROW_DEFAULTS[scenario]}


def test_hedge_percentile_alone_arms_hedging():
    report = run_load("burst", quick=True, seed=11, rps=320.0,
                      hedge_percentile=90.0)
    assert report["params"]["hedge"] is True
    assert report["params"]["hedge_percentile"] == 90.0
    assert "hedging" in report


@pytest.mark.parametrize("flags", [
    ["--tasks", "100"],
    ["--no-gather"],
    ["--cache-mb", "4"],
    ["--zipf-s", "0.9"],
], ids=["tasks", "no-gather", "cache-mb", "zipf-s"])
def test_flag_that_cannot_apply_exits_2(flags, tmp_path, capsys):
    assert main([
        "load", "--scenario", "poisson", "--quick", *flags,
        "--output", str(tmp_path / "b.json"),
    ]) == 2
    assert flags[0] in capsys.readouterr().err
    assert not (tmp_path / "b.json").exists()


@pytest.mark.parametrize("scenario, kwargs", [
    ("zipf", dict(cache_mb=4.0)),
    ("overload", dict(tasks=64)),
    ("burst", dict(fanout_gather=False)),
])
def test_run_load_rejects_inapplicable_arguments(scenario, kwargs):
    with pytest.raises(ReproError):
        run_load(scenario, quick=True, **kwargs)


def test_applicable_key_and_cache_flags_still_run():
    report = run_load("poisson", quick=True, seed=3, duration_s=1.0,
                      reuse=True, zipf_s=0.9, cache_mb=4.0)
    assert report["params"]["zipf_s"] == 0.9
    assert report["params"]["cache_mb"] == 4.0
    zipf = run_load("zipf", quick=True, seed=3, duration_s=1.0, zipf_s=1.4)
    assert zipf["params"]["zipf_s"] == 1.4
