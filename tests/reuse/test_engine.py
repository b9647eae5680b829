"""Result-cache engine behavior: off means byte-identical reports; on
means fresh hits skip the sandbox, expired entries revalidate unless
pressure or a hopeless deadline justifies serving stale, concurrent
identical misses collapse onto one execution, and a shed is downgraded
to a stale answer without breaking the three-fate conservation."""

import json

import pytest

from repro import (
    FunctionCode,
    FunctionDef,
    Language,
    MoleculeRuntime,
    OverloadConfig,
    PuKind,
    WorkProfile,
)
from repro.loadgen import run_load
from repro.reuse import ReuseConfig
from repro.reuse.cache import result_payload

from tests.support import GOLDEN_SEED, settled


def _fn(name="memo", idempotent=True, exec_ms=5.0):
    return FunctionDef(
        name=name,
        code=FunctionCode(name, language=Language.PYTHON, import_ms=10.0),
        work=WorkProfile(warm_exec_ms=exec_ms),
        profiles=(PuKind.CPU,),
        idempotent=idempotent,
    )


def _runtime(seed=7, **kwargs):
    kwargs.setdefault("reuse", ReuseConfig())
    runtime = MoleculeRuntime.create(
        num_dpus=1, seed=seed, default_deadline_s=10.0, **kwargs
    )
    runtime.deploy_now(_fn())
    return runtime


def _advance(runtime, seconds):
    def waiter():
        yield runtime.sim.timeout(seconds)
    runtime.run(waiter())


# -- engine off: stock behavior, byte for byte ------------------------------------


def test_engine_off_load_run_identical_to_default():
    """``reuse=False`` equals a run that never heard of the cache —
    and no reuse-era key leaks into the report."""
    baseline = run_load("burst", quick=True, seed=1234)
    explicit = run_load("burst", quick=True, seed=1234, reuse=False)
    for report in (baseline, explicit):
        report.pop("wall_s")
        report.pop("host")
    assert json.dumps(baseline, sort_keys=True) == json.dumps(
        explicit, sort_keys=True
    )
    assert "reuse" not in baseline
    assert "zipf_s" not in baseline["params"]
    assert "cache_mb" not in baseline["params"]


# -- fresh hits --------------------------------------------------------------------


def test_fresh_hit_answers_without_a_sandbox():
    runtime = _runtime()
    first = runtime.invoke_now("memo", input_key="k1")
    second = runtime.invoke_now("memo", input_key="k1")
    # The miss executed and stamped the canonical payload...
    assert first.cache == ""
    assert first.payload == result_payload("memo", "k1")
    # ... the hit answered from the cache: no PU, no billing, and the
    # exact payload an execution of the same digest produces.
    assert second.cache == "fresh"
    assert second.pu_name == "cache"
    assert second.pu_kind is None
    assert second.billed_cost == 0.0
    assert second.payload == first.payload
    reuse = runtime.reuse
    assert reuse.served_fresh == 1
    assert reuse.executed == 1
    assert reuse.misses == 1
    assert reuse.hit_rate() == pytest.approx(0.5)
    assert settled(runtime) == 2


def test_distinct_keys_and_functions_never_collide():
    runtime = _runtime()
    a = runtime.invoke_now("memo", input_key="a")
    b = runtime.invoke_now("memo", input_key="b")
    assert a.cache == b.cache == ""
    assert a.payload != b.payload
    assert runtime.reuse.misses == 2


def test_non_cacheable_requests_bypass_the_consult():
    runtime = _runtime()
    runtime.deploy_now(_fn(name="mutator", idempotent=False))
    keyed = runtime.invoke_now("mutator", input_key="k1")
    keyless = runtime.invoke_now("memo")
    assert keyed.cache == keyless.cache == ""
    assert keyed.payload is None
    reuse = runtime.reuse
    assert reuse.bypass_by_reason == {"nonidempotent": 1, "no_key": 1}
    assert len(reuse.cache) == 0
    assert reuse.executed == 2
    assert settled(runtime) == 2


# -- staleness policy --------------------------------------------------------------


def test_expired_entry_revalidates_when_unpressured():
    # TTL comfortably above the 10s deadline-timer drain each
    # ``invoke_now`` costs, so only the explicit advance expires it.
    runtime = _runtime(reuse=ReuseConfig(ttl_s=15.0))
    runtime.invoke_now("memo", input_key="k1")
    _advance(runtime, 20.0)
    revalidated = runtime.invoke_now("memo", input_key="k1")
    assert revalidated.cache == ""  # executed, refreshing the entry
    assert runtime.reuse.revalidations == 1
    assert runtime.reuse.served_stale == 0
    # The refresh restored freshness: the next request hits.
    assert runtime.invoke_now("memo", input_key="k1").cache == "fresh"


def test_expired_entry_served_stale_under_pressure():
    runtime = _runtime(
        reuse=ReuseConfig(ttl_s=0.5), overload=OverloadConfig()
    )
    primed = runtime.invoke_now("memo", input_key="k1")
    _advance(runtime, 1.0)
    runtime.overload._enter_brownout()
    stale = runtime.invoke_now("memo", input_key="k1")
    assert stale.cache == "stale"
    assert stale.payload == primed.payload
    assert runtime.reuse.stale_by_reason == {"pressure": 1}
    assert runtime.reuse.served_stale == 1
    assert runtime.reuse.revalidations == 0
    assert settled(runtime) == 2


def test_expired_entry_served_stale_when_deadline_is_hopeless():
    runtime = _runtime(
        reuse=ReuseConfig(ttl_s=0.5), overload=OverloadConfig()
    )
    runtime.invoke_now("memo", input_key="k1")
    _advance(runtime, 1.0)
    gate = runtime.overload.gate_for(runtime.gateway)
    gate.estimated_wait_s = lambda: 999.0  # wait dwarfs any budget
    stale = runtime.invoke_now("memo", input_key="k1")
    assert stale.cache == "stale"
    assert runtime.reuse.stale_by_reason == {"deadline": 1}


def test_serve_stale_off_always_revalidates():
    runtime = _runtime(
        reuse=ReuseConfig(ttl_s=0.5, serve_stale=False),
        overload=OverloadConfig(),
    )
    runtime.invoke_now("memo", input_key="k1")
    _advance(runtime, 1.0)
    runtime.overload._enter_brownout()
    assert runtime.invoke_now("memo", input_key="k1").cache == ""
    assert runtime.reuse.served_stale == 0
    assert runtime.reuse.revalidations == 1


# -- single flight -----------------------------------------------------------------


def test_concurrent_identical_misses_execute_once():
    runtime = _runtime()
    sim = runtime.sim
    results = []

    def call():
        result = yield from runtime.invoke("memo", input_key="hot")
        results.append(result)

    for _ in range(3):
        sim.spawn(call())
    sim.run()
    assert len(results) == 3
    assert len({r.payload for r in results}) == 1
    reuse = runtime.reuse
    assert reuse.executed == 1  # one sandbox run for the whole cohort
    assert reuse.served_fresh == 2  # followers fanned the same entry
    flights = reuse.flights
    assert flights.flights_opened == 1
    assert flights.followers_joined == 2
    assert flights.followers_served == 2
    assert flights.leader_failures == 0
    assert settled(runtime) == 3


# -- invalidation ------------------------------------------------------------------


def test_fresh_hit_never_survives_an_invalidating_deploy():
    runtime = _runtime()
    runtime.invoke_now("memo", input_key="k1")
    assert runtime.invoke_now("memo", input_key="k1").cache == "fresh"
    # A redeploy (unregister + deploy) bumps the generation twice.
    runtime.registry.unregister("memo")
    runtime.deploy_now(_fn())
    post_deploy = runtime.invoke_now("memo", input_key="k1")
    assert post_deploy.cache == ""  # re-executed under the new code
    assert runtime.reuse.cache.invalidations == 1
    # The re-execution memoized under the new generation.
    assert runtime.invoke_now("memo", input_key="k1").cache == "fresh"


def test_eager_invalidate_drops_every_entry_of_a_function():
    runtime = _runtime()
    runtime.invoke_now("memo", input_key="a")
    runtime.invoke_now("memo", input_key="b")
    assert runtime.reuse.invalidate("memo") == 2
    assert len(runtime.reuse.cache) == 0
    assert runtime.invoke_now("memo", input_key="a").cache == ""


# -- shed-to-stale downgrade -------------------------------------------------------


def test_shed_fallback_prefers_any_present_entry():
    runtime = _runtime(overload=OverloadConfig())
    function = runtime.registry.get("memo")
    assert runtime.reuse.shed_fallback(function, "k1") is None
    runtime.invoke_now("memo", input_key="k1")
    hit = runtime.reuse.shed_fallback(function, "k1")
    # A still-fresh entry downgrades a shed without being "stale".
    assert hit is not None and hit.reason == "shed" and not hit.stale
    _advance(runtime, 35.0)  # past the default 30s TTL
    assert runtime.reuse.shed_fallback(function, "k1").stale is True
    # Keyless / disabled / orphaned entries really shed.
    assert runtime.reuse.shed_fallback(function, None) is None
    runtime.registry.unregister("memo")
    runtime.deploy_now(_fn())
    assert runtime.reuse.shed_fallback(function, "k1") is None


def test_shed_to_stale_disabled_returns_nothing():
    runtime = _runtime(
        reuse=ReuseConfig(shed_to_stale=False), overload=OverloadConfig()
    )
    runtime.invoke_now("memo", input_key="k1")
    function = runtime.registry.get("memo")
    assert runtime.reuse.shed_fallback(function, "k1") is None
    assert runtime.fates.downgraded == 0


def test_chaos_run_converts_sheds_to_stale_answers():
    """Under a deliberately pinched admission gate, arming the cache
    must convert a large share of sheds into (stale) answers while the
    three-fate conservation and the answer partition both keep
    holding."""
    gate = OverloadConfig(
        initial_limit=2, min_limit=1, max_limit=4, queue_capacity=8
    )
    off = run_load("overload", quick=True, seed=GOLDEN_SEED, overload=gate)
    on = run_load(
        "overload", quick=True, seed=GOLDEN_SEED, overload=gate,
        reuse=ReuseConfig(ttl_s=0.5),
    )
    assert on["load"]["offered"] == off["load"]["offered"]
    assert off["load"]["shed"] > 0
    # Sheds fell and answers rose: old answers beat refusals.
    assert on["load"]["shed"] < off["load"]["shed"]
    assert on["load"]["answered"] > off["load"]["answered"]
    reuse = on["reuse"]
    assert reuse["served_stale"] > 0
    assert reuse["conserved"] is True
    load = on["load"]
    assert (load["answered"] + load["shed"] + load["dead_lettered"]
            == load["admitted"])
    assert load["lost"] == 0
    assert on["overload"]["conserved"] is True
