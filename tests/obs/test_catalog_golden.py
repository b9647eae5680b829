"""Golden metric catalog: which families each runtime configuration
registers, in what order, and with what schema.

For every configuration the test pins each registered family's
``(name, kind, help, labelnames, histogram bounds)`` in registration
order, both right after boot and after a short run plus a metrics
snapshot, so a family that moves to a different registration moment
shows up too.  It also pins the byte output of ``repro metrics`` and
``repro metrics --json`` (on the default trace ring and on a hub that
retains no trace), and checks that ``docs/observability.md`` lists
every family any configuration registers.

Regenerate the data file only for an intended catalog change::

    PYTHONPATH=src python tests/obs/test_catalog_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest

from repro import cli
from repro.cli import main
from repro.core import molecule
from repro.loadgen import scenarios
from repro.loadgen.arrivals import ArrivalPlan
from repro.obs import Observability

DATA = Path(__file__).parent / "data" / "catalog_golden.json"
DOCS = Path(__file__).parents[2] / "docs" / "observability.md"

#: A short open-loop replay: enough traffic to reach every engine's
#: steady-state call sites, small enough to keep the suite fast.
LOAD = {"seed": 7, "rps": 20.0, "duration_s": 2.0, "shards": 2}

#: Configuration -> (scenario, engine arguments) for ``run_load``.
LOAD_CONFIGS = {
    "sharded": ("poisson", {}),
    "prewarm": ("poisson", {"prewarm": True}),
    "hedging": ("poisson", {"hedge": True}),
    "overload": ("overload", {"overload": True}),
    "reuse": ("zipf", {"reuse": True}),
    # The fanout scenario arms the warm-path engine itself.
    "all": ("fanout", {"hedge": True, "overload": True, "reuse": True}),
}


def _catalog(registry) -> list:
    rows = []
    for family in registry.families():
        bounds = None
        if family.kind == "histogram":
            bounds = [repr(b) for b in family._child_factory().bounds]
        rows.append([
            family.name, family.kind, family.help_text,
            list(family.labelnames), bounds,
        ])
    return rows


def _engines_off() -> dict:
    from repro.cli import _run_metrics_demo

    runtime = _run_metrics_demo()
    run = _catalog(runtime.obs.registry)
    runtime.metrics_snapshot()
    final = _catalog(runtime.obs.registry)
    runtime.metrics_snapshot(include_kernel=True)
    return {
        "engines_off": {"run": run, "final": final},
        "kernel": {"final": _catalog(runtime.obs.registry)},
    }


def _load_config(monkeypatch, scenario: str, engines: dict) -> dict:
    captured = {}
    build = scenarios.build_runtime

    def capture(*args, **kwargs):
        runtime, frontend = build(*args, **kwargs)
        captured["runtime"] = runtime
        captured["boot"] = _catalog(runtime.obs.registry)
        return runtime, frontend

    with monkeypatch.context() as patch:
        patch.setattr(scenarios, "build_runtime", capture)
        scenarios.run_load(scenario, **LOAD, **engines)
    runtime = captured["runtime"]
    runtime.metrics_snapshot()
    return {"boot": captured["boot"], "final": _catalog(runtime.obs.registry)}


def _fanout_alone() -> dict:
    from repro.futures import FanoutConfig

    plan = ArrivalPlan(arrivals=(), duration_s=1.0)
    runtime, _frontend = scenarios.build_runtime(
        plan, seed=7, shards=2, fanout=FanoutConfig(partitions=4)
    )
    boot = _catalog(runtime.obs.registry)
    runtime.metrics_snapshot()
    return {"boot": boot, "final": _catalog(runtime.obs.registry)}


def _cli(*argv: str) -> list[str]:
    """``repro metrics`` output, one string per line (line ends kept)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["metrics", *argv]) == 0
    return out.getvalue().splitlines(keepends=True)


def _capture(monkeypatch) -> dict:
    catalogs = _engines_off()
    for config, (scenario, engines) in LOAD_CONFIGS.items():
        catalogs[config] = _load_config(monkeypatch, scenario, engines)
    catalogs["fanout"] = _fanout_alone()
    return {
        "catalogs": catalogs,
        "metrics_text": _cli(),
        "metrics_json": _cli("--json"),
    }


def _demo_outputs(monkeypatch, max_traces=None) -> dict:
    """``repro metrics`` text and JSON, plus the demo runtime's stage
    samples, on hubs whose trace ring keeps ``max_traces`` traces
    (None: the default ring)."""
    runtimes = []
    demo = cli._run_metrics_demo

    def recording_demo():
        runtimes.append(demo())
        return runtimes[-1]

    with monkeypatch.context() as patch:
        patch.setattr(cli, "_run_metrics_demo", recording_demo)
        if max_traces is not None:
            patch.setattr(molecule, "Observability",
                          lambda sim: Observability(sim, max_traces=max_traces))
        outputs = {"metrics_text": _cli(), "metrics_json": _cli("--json")}
    if max_traces == 0:
        assert not any(r.obs.traces for r in runtimes)
    outputs["stage_samples"] = [
        {name: list(values) for name, values in r.obs.stage_samples.items()}
        for r in runtimes
    ]
    return outputs


@pytest.fixture(scope="module")
def captured():
    with pytest.MonkeyPatch.context() as monkeypatch:
        data = _capture(monkeypatch)
        data["ring"] = _demo_outputs(monkeypatch)
        data["no_ring"] = _demo_outputs(monkeypatch, max_traces=0)
        yield data


@pytest.fixture(scope="module")
def golden():
    return json.loads(DATA.read_text())


CONFIGS = ("engines_off", "kernel", *LOAD_CONFIGS, "fanout")


@pytest.mark.parametrize("config", CONFIGS)
def test_catalog_matches_golden(captured, golden, config):
    assert captured["catalogs"][config] == golden["catalogs"][config]


def test_engine_off_runs_register_no_engine_family(golden):
    engine_prefixes = (
        "repro_shard_", "repro_coalesced", "repro_prewarm",
        "repro_predicted", "repro_bitstream", "repro_hedge",
        "repro_shed", "repro_overload", "repro_fanout", "repro_reuse",
        "repro_kernel",
    )
    for row in golden["catalogs"]["engines_off"]["final"]:
        assert not row[0].startswith(engine_prefixes), row[0]


@pytest.mark.parametrize(
    "output", ("metrics_text", "metrics_json", "no_ring")
)
def test_metrics_cli_output_is_byte_identical(captured, golden, output):
    if output == "no_ring":
        # A hub that retains no trace publishes the same exposition and
        # the same stage samples as the default ring.
        assert captured["no_ring"] == captured["ring"]
        output = "metrics_text"
    assert captured[output] == golden[output]


def test_docs_list_every_registered_family(captured):
    docs = DOCS.read_text()
    names = {
        row[0]
        for catalog in captured["catalogs"].values()
        for rows in catalog.values()
        for row in rows
    }
    missing = sorted(name for name in names if f"`{name}`" not in docs)
    assert not missing, f"families missing from {DOCS.name}: {missing}"


if __name__ == "__main__":
    with pytest.MonkeyPatch.context() as monkeypatch:
        data = _capture(monkeypatch)
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(data, indent=1) + "\n")
    print(f"wrote {DATA}")
