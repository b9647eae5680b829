"""Overload controller behavior: off means byte-identical golden
output; on means a deterministic protected run that strictly beats the
unprotected one under saturation, a breaker probe that is never shed,
and a brownout that degrades, suppresses and throttles."""

import json

from repro import (
    FunctionCode,
    FunctionDef,
    HedgeConfig,
    Language,
    MoleculeRuntime,
    OverloadConfig,
    PuKind,
    WorkProfile,
)
from repro.core.reliability import BreakerState
from repro.errors import RequestShed
from repro.loadgen import run_load

from tests.support import GOLDEN_SEED, golden_seed_snapshot, settled


# -- engine off: stock behavior, byte for byte ------------------------------------


def test_engine_off_matches_golden_snapshot():
    """``overload=None`` must leave the canned golden workload
    byte-identical to a runtime predating the controller."""
    with open("tests/sim/data/golden_seed_snapshot.json",
              encoding="utf-8") as handle:
        expected = json.load(handle)
    current = golden_seed_snapshot(GOLDEN_SEED)
    assert json.dumps(current, sort_keys=True) == json.dumps(
        expected, sort_keys=True
    )


def test_engine_off_load_run_identical_to_default():
    """A load run with ``overload=False`` equals one that never heard
    of the controller (same plan, same seed, same report modulo wall
    time) — and no overload-era key leaks into the report."""
    baseline = run_load("burst", quick=True, seed=1234)
    explicit = run_load("burst", quick=True, seed=1234, overload=False)
    for report in (baseline, explicit):
        report.pop("wall_s")
        report.pop("host")
    assert json.dumps(baseline, sort_keys=True) == json.dumps(
        explicit, sort_keys=True
    )
    assert "overload" not in baseline
    assert "shed" not in baseline["load"]
    assert all("shed" not in shard for shard in baseline["shards"])


# -- engine on: deterministic ------------------------------------------------------


def test_protected_run_is_deterministic():
    """Two protected runs of the same plan and seed must agree on every
    shed, every limit move and every brownout, byte for byte."""
    first = run_load("overload", quick=True, seed=99, overload=True)
    second = run_load("overload", quick=True, seed=99, overload=True)
    for report in (first, second):
        report.pop("wall_s")
        report.pop("host")
    assert json.dumps(first, sort_keys=True) == json.dumps(
        second, sort_keys=True
    )
    assert first["params"]["overload"] is True


# -- the saturation acceptance bar -------------------------------------------------


def test_saturation_protected_beats_unprotected():
    """The tentpole acceptance bar, pinned at the golden seed: under
    the chaos-under-saturation scenario (bursts past capacity plus a
    mid-run DPU crash) arming the controller must answer strictly more
    requests within the deadline, at a strictly lower p99 among
    answered, with the conservation invariant intact."""
    off = run_load("overload", quick=True, seed=GOLDEN_SEED)
    on = run_load("overload", quick=True, seed=GOLDEN_SEED, overload=True)
    # Identical offered load on both sides.
    assert on["load"]["offered"] == off["load"]["offered"]
    assert "overload" not in off

    # Strictly more goodput...
    assert on["load"]["answered"] > off["load"]["answered"]
    # ... faster at the tail among the requests that were answered...
    on_p99 = on["latency"]["end_to_end"]["p99_ms"]
    off_p99 = off["latency"]["end_to_end"]["p99_ms"]
    assert on_p99 < off_p99
    # ... and fewer requests burning their full deadline into the DLQ.
    assert on["load"]["dead_lettered"] < off["load"]["dead_lettered"]

    # The three-fate conservation invariant holds and is reported.
    over = on["overload"]
    assert over["conserved"] is True
    load = on["load"]
    assert (load["answered"] + load["shed"] + load["dead_lettered"]
            == load["admitted"])
    assert load["lost"] == 0
    assert 0.0 <= over["brownout_fraction"] <= 1.0
    # Saturation at 8x offered load actually exercised the machinery.
    assert over["brownout_entries"] >= 1
    assert over["degraded_forced"] > 0


# -- half-open probes bypass the gate ----------------------------------------------


def _slow_fn():
    return FunctionDef(
        name="slow",
        code=FunctionCode("slow", language=Language.PYTHON, import_ms=20.0),
        work=WorkProfile(warm_exec_ms=50.0),
        profiles=(PuKind.CPU,),
    )


def _pinned_config(**overrides):
    """A gate pinned at one slot with a one-deep queue (brownout off:
    the pressure signal is clamped to <= 1, so 1.5 never trips)."""
    base = dict(
        initial_limit=1, min_limit=1, max_limit=1,
        queue_capacity=1, predictive_budget_fraction=None,
        brownout_on=1.5,
    )
    base.update(overrides)
    return OverloadConfig(**base)


def test_half_open_probe_is_never_shed():
    """A saturated shard whose breaker is HALF_OPEN must let the single
    probe through the admission gate: the probe is the only signal that
    can close the breaker again, so shedding it would wedge the shard
    open forever."""
    runtime = MoleculeRuntime.create(
        num_dpus=1, seed=3, default_deadline_s=10.0,
        overload=_pinned_config(),
    )
    runtime.deploy_now(_slow_fn())
    frontend = runtime.sharded_frontend(1)
    shard = frontend.shards[0]
    sim = runtime.sim
    answered = []
    sheds = []

    def call(tag, delay_s):
        if delay_s:
            yield sim.timeout(delay_s)
        try:
            yield from frontend.invoke("slow")
        except RequestShed as exc:
            sheds.append((tag, exc.reason))
        else:
            answered.append(tag)

    def arm_half_open(delay_s):
        yield sim.timeout(delay_s)
        shard.breaker.state = BreakerState.HALF_OPEN
        shard.breaker.probe_in_flight = False

    sim.spawn(call("filler", 0.0), name="filler")       # takes the one slot
    sim.spawn(call("parked", 0.0005), name="parked")    # fills the one-deep queue
    sim.spawn(arm_half_open(0.001), name="arm")
    sim.spawn(call("probe", 0.0015), name="probe")      # half-open probe
    sim.spawn(call("late", 0.002), name="late")         # ordinary request
    sim.run()

    gate = runtime.overload.gates()[0]
    # The probe bypassed the saturated gate and was answered...
    assert "probe" in answered
    assert gate.bypassed == 1
    # ... while the ordinary request behind it hit the full queue.
    assert ("late", "queue_full") in sheds
    assert runtime.fates.shed_by_gate == {"0": 1}
    # A shed is back-pressure, not a shard failure: nothing reached the
    # breaker's failure counter.
    assert shard.failed == 0
    assert settled(runtime) == len(answered)


def test_half_open_probe_bypasses_the_result_cache():
    """With the result cache armed, a half-open breaker's probe must
    still reach a real PU even when a fresh entry covers its exact
    input key: a cached answer would 'succeed' without touching the
    shard, starving the breaker of the only signal that can close it.
    The probe therefore skips the cache consult entirely (counted as a
    ``probe`` bypass) and executes."""
    from repro.reuse import ReuseConfig
    from repro.reuse.cache import result_payload

    runtime = MoleculeRuntime.create(
        num_dpus=1, seed=3, default_deadline_s=10.0,
        overload=_pinned_config(), reuse=ReuseConfig(),
    )
    slow = _slow_fn()
    runtime.deploy_now(FunctionDef(
        name=slow.name, code=slow.code, work=slow.work,
        profiles=slow.profiles, idempotent=True,
    ))
    frontend = runtime.sharded_frontend(1)
    # Prime a fresh entry for the key the probe will carry.
    primed = runtime.invoke_now("slow", input_key="hot")
    assert primed.cache == ""
    assert runtime.reuse.cache.peek("slow", "hot") is not None

    shard = frontend.shards[0]
    sim = runtime.sim
    results = {}

    def call(tag, delay_s, **kwargs):
        if delay_s:
            yield sim.timeout(delay_s)
        try:
            result = yield from frontend.invoke("slow", **kwargs)
        except RequestShed:
            results[tag] = None
        else:
            results[tag] = result

    def arm_half_open(delay_s):
        yield sim.timeout(delay_s)
        shard.breaker.state = BreakerState.HALF_OPEN
        shard.breaker.probe_in_flight = False

    sim.spawn(call("filler", 0.0), name="filler")
    sim.spawn(call("parked", 0.0005), name="parked")
    sim.spawn(arm_half_open(0.001), name="arm")
    sim.spawn(call("probe", 0.0015, input_key="hot"), name="probe")
    sim.run()

    gate = runtime.overload.gates()[0]
    probe = results["probe"]
    # The probe bypassed both the gate and the cache, and executed.
    assert gate.bypassed == 1
    assert probe is not None and probe.cache == ""
    assert probe.pu_name != "cache"
    # No memoized payload was stamped: the result came from the PU,
    # not from (or through) the cache — the entry itself still holds
    # what a real execution of the key produces.
    assert probe.payload is None
    entry = runtime.reuse.cache.peek("slow", "hot")
    assert entry.payload == result_payload("slow", "hot")
    reuse = runtime.reuse
    assert reuse.bypass_by_reason["probe"] == 1
    # The fresh entry never answered anyone: zero cache serves.
    assert reuse.served_fresh == 0 and reuse.served_stale == 0
    # The priming request plus every non-shed spawn was answered by a
    # real execution, and the partition still balances.
    answered = 1 + sum(1 for r in results.values() if r is not None)
    assert settled(runtime) == answered


# -- brownout effects --------------------------------------------------------------


def test_brownout_degrades_to_host_cpu():
    """While the brownout is active, a DPU-dispatched function with a
    CPU profile runs on the host CPU instead (and is counted); the
    warm-path stocking gate reports suppression; the dwell keeps the
    brownout latched until ``brownout_min_s`` has passed."""
    runtime = MoleculeRuntime.create(
        num_dpus=1, seed=5, default_deadline_s=10.0,
        overload=OverloadConfig(),
    )
    runtime.deploy_now(FunctionDef(
        name="etl",
        code=FunctionCode("etl", language=Language.PYTHON, import_ms=10.0),
        work=WorkProfile(warm_exec_ms=5.0),
        profiles=(PuKind.DPU, PuKind.CPU),
    ))
    controller = runtime.overload

    baseline = runtime.invoke_now("etl", kind=PuKind.DPU)
    assert baseline.pu_name.startswith("dpu")
    assert controller.degraded_forced == 0
    assert controller.suppress_prewarm() is False

    controller._enter_brownout()
    degraded = runtime.invoke_now("etl", kind=PuKind.DPU)
    assert degraded.pu_name.startswith("cpu")
    assert controller.degraded_forced >= 1
    assert controller.suppress_prewarm() is True
    assert controller.prewarm_suppressed == 1

    # Pressure is zero, but the minimum dwell keeps the brownout on
    # (each invoke_now drains the 10s deadline timer, so re-latch the
    # dwell clock to "just entered" first)...
    controller._brownout_since = runtime.sim.now
    controller.note_pressure()
    assert controller.brownout_active
    # ... until brownout_min_s of simulated time has passed.
    controller._brownout_since = (
        runtime.sim.now - controller.config.brownout_min_s
    )
    controller.note_pressure()
    assert not controller.brownout_active
    assert controller.brownout_entries == 1
    assert controller.brownout_s() >= controller.config.brownout_min_s
    assert controller.suppress_prewarm() is False
    # Out of brownout, dispatch goes back to the DPU.
    recovered = runtime.invoke_now("etl", kind=PuKind.DPU)
    assert recovered.pu_name.startswith("dpu")


def test_brownout_throttles_hedge_clones():
    """Arming overload next to hedging installs a throttleable clone
    bucket; entering brownout closes it, leaving reopens it."""
    runtime = MoleculeRuntime.create(
        num_dpus=1, seed=5,
        hedging=HedgeConfig(), overload=OverloadConfig(),
    )
    budget = runtime.hedging.budget
    # Unlimited (no ratio) but throttleable: the shape the controller
    # installs when the user armed hedging without a budget.
    assert budget is not None and budget.ratio is None
    assert budget.try_fire() is True

    runtime.overload._enter_brownout()
    assert budget.throttled is True
    assert budget.try_fire() is False
    assert budget.denied_throttled == 1

    runtime.overload._brownout_since = (
        runtime.sim.now - runtime.overload.config.brownout_min_s
    )
    runtime.overload.note_pressure()
    assert budget.throttled is False
    assert budget.try_fire() is True


def test_controller_bounds_the_dead_letter_queue():
    """Arming the controller installs the configured DLQ bound (only
    when the queue is still unbounded)."""
    runtime = MoleculeRuntime.create(
        num_dpus=1, seed=1,
        overload=OverloadConfig(dead_letter_capacity=7),
    )
    assert runtime.dead_letters.capacity == 7
    unbounded = MoleculeRuntime.create(
        num_dpus=1, seed=1,
        overload=OverloadConfig(dead_letter_capacity=None),
    )
    assert unbounded.dead_letters.capacity is None
