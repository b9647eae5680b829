"""Warm-path engine behavior: off means byte-identical golden output,
on means deterministic and strictly better on the bursty scenario."""

import json

from repro import (
    FunctionCode,
    FunctionDef,
    Language,
    MoleculeRuntime,
    PuKind,
    WarmPathConfig,
    WorkProfile,
)
from repro.loadgen import run_load
from repro.warmpath.engine import MAX_TTL_S, MIN_TTL_S

from tests.support import GOLDEN_SEED, golden_seed_snapshot


# -- engine off: stock behavior, byte for byte ------------------------------------


def test_engine_off_matches_golden_snapshot():
    """``warmpath=None`` must leave the canned golden workload
    byte-identical to a runtime predating the engine."""
    with open("tests/sim/data/golden_seed_snapshot.json",
              encoding="utf-8") as handle:
        expected = json.load(handle)
    current = golden_seed_snapshot(GOLDEN_SEED)
    assert json.dumps(current, sort_keys=True) == json.dumps(
        expected, sort_keys=True
    )


def test_engine_off_load_run_identical_to_default():
    """A load run with ``prewarm=False`` equals one that never heard
    of the engine (same plan, same seed, same report modulo wall time)."""
    baseline = run_load("burst", quick=True, seed=1234)
    explicit = run_load("burst", quick=True, seed=1234, prewarm=False)
    for report in (baseline, explicit):
        report.pop("wall_s")
        report.pop("host")
    assert json.dumps(baseline, sort_keys=True) == json.dumps(
        explicit, sort_keys=True
    )


# -- engine on: deterministic ------------------------------------------------------


def _steady_run(seed=21):
    molecule = MoleculeRuntime.create(num_dpus=1, seed=seed,
                                      warmpath=WarmPathConfig())
    molecule.deploy_now(FunctionDef(
        name="tick",
        code=FunctionCode("tick", language=Language.PYTHON, import_ms=150.0),
        work=WorkProfile(warm_exec_ms=5.0),
        profiles=(PuKind.CPU,),
    ))

    def traffic():
        for _ in range(60):
            yield molecule.sim.timeout(0.1)
            molecule.sim.spawn(molecule.invoke("tick", kind=PuKind.CPU))
        yield molecule.sim.timeout(5.0)

    molecule.run(traffic())
    return molecule


def test_engine_on_is_deterministic():
    first = _steady_run()
    second = _steady_run()
    assert first.warmpath.snapshot() == second.warmpath.snapshot()
    assert json.dumps(first.metrics_snapshot(), sort_keys=True) == json.dumps(
        second.metrics_snapshot(), sort_keys=True
    )
    assert first.sim.now == second.sim.now


def test_prewarm_spawns_hits_and_self_corrects():
    molecule = _steady_run()
    engine = molecule.warmpath
    snap = engine.snapshot()
    assert snap["prewarm_spawned"] > 0
    assert snap["prewarm_hits"] > 0
    assert snap["ticks"] > 0
    # Steady single-file traffic needs one instance, not a horizon
    # full: the wasted-prewarm loop must have shrunk the horizon.
    assert engine.horizon_scale < 1.0
    # Every spawned instance is accounted hit, wasted, or still idle.
    idle = sum(
        len(pool.idle_instances("tick"))
        for pool in molecule.invoker.pools.values()
    )
    assert snap["prewarm_hits"] + snap["prewarm_wasted"] + idle >= (
        snap["prewarm_spawned"]
    )


def test_adaptive_ttl_written_from_gap_distribution():
    molecule = _steady_run()
    overrides = [
        pool.ttl_overrides["tick"]
        for pool in molecule.invoker.pools.values()
        if "tick" in pool.ttl_overrides
    ]
    assert overrides, "steady traffic must produce a TTL override"
    for ttl in overrides:
        assert MIN_TTL_S <= ttl <= MAX_TTL_S


def test_prewarm_loop_parks_when_idle():
    """The pre-warmer must not keep the simulation alive: the run
    above returned, and a fresh engine with zero traffic drains
    immediately."""
    def idle_drain_time(warmpath):
        molecule = MoleculeRuntime.create(num_dpus=1, seed=5,
                                          warmpath=warmpath)

        def nothing():
            yield molecule.sim.timeout(1.0)

        molecule.run(nothing())
        return molecule.sim.now

    assert idle_drain_time(WarmPathConfig()) == idle_drain_time(None)


# -- engine on: the bursty-scenario acceptance bar ---------------------------------


def test_burst_load_strictly_better_with_prewarm():
    """Same plan, same seed, finite keep-alive: arming the engine must
    strictly reduce both the cold-start rate and the p99."""
    kwargs = dict(quick=True, seed=None, keep_alive_ttl_s=1.0)
    off = run_load("burst", prewarm=False, **kwargs)
    on = run_load("burst", prewarm=True, **kwargs)
    # Identical offered load on both sides.
    assert on["load"]["offered"] == off["load"]["offered"]
    assert on["load"]["answered"] == off["load"]["answered"]
    assert on["load"]["cold_start_rate"] < off["load"]["cold_start_rate"]
    on_p99 = on["latency"]["end_to_end"]["p99_ms"]
    off_p99 = off["latency"]["end_to_end"]["p99_ms"]
    assert on_p99 < off_p99
    assert on["warmpath"]["prewarm_spawned"] > 0
    assert "warmpath" not in off
