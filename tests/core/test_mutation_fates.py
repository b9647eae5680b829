"""Mutation-verified fate ledger: the end-of-run check detects.

A ledger that always balances proves nothing.  Each test here breaks
the request pipeline the way a regression would and asserts that a
plain ``run_load`` then raises :class:`~repro.errors.FateImbalance`;
the unmutated twin runs the same config and stays silent.

* answered twice: the hedge join lets the losing copy answer too, so
  every hedged request books a second answer;
* dropped shed-to-stale: the cache stage parks a request it answered
  in place of a shed for good, so it never settles;
* a request admitted by a gateway but never run, on every scenario.
"""

import pytest

from repro import OverloadConfig
from repro.core import invoker as invoker_module
from repro.errors import FateImbalance
from repro.hedging.engine import hedge_stage
from repro.loadgen import run_load, scenarios
from repro.loadgen.scenarios import scenario_names
from repro.reuse import ReuseConfig, ReuseEngine

#: A quick burst past saturation: hedges fire (23 at this seed).
HEDGED = dict(scenario="burst", quick=True, seed=11, rps=320.0, hedge=True)

#: A pinched gate behind a cache that never serves stale on its own,
#: so expired entries revalidate, get shed, and are answered stale in
#: the shed's place (5 times at this seed).
SHED_TO_STALE = dict(
    scenario="overload", quick=True, seed=1234,
    overload=OverloadConfig(initial_limit=2, min_limit=1, max_limit=4,
                            queue_capacity=8),
    reuse=ReuseConfig(ttl_s=0.05, serve_stale=False),
)


def _answered_twice(invoker, hedger, attempt):
    result = yield from hedge_stage(invoker, hedger, attempt)
    if result.hedged:
        invoker.runtime.fates.settle_answered(attempt, result)
    return result


def test_hedged_twin_is_silent():
    report = run_load(**HEDGED)
    assert report["fates"]["answered"]["hedged"] == 23
    assert report["fates"]["in_flight"] == 0


def test_answering_a_hedged_request_twice_is_detected(monkeypatch):
    monkeypatch.setattr(invoker_module, "hedge_stage", _answered_twice)
    with pytest.raises(FateImbalance, match="-23 requests in flight"):
        run_load(**HEDGED)


def test_shed_to_stale_twin_is_silent():
    report = run_load(**SHED_TO_STALE)
    assert report["reuse"]["stale_by_reason"] == {"shed": 5}
    assert report["overload"]["sheds_downgraded"] == 5
    assert report["fates"]["in_flight"] == 0


def test_dropping_a_shed_to_stale_answer_is_detected(monkeypatch):
    cache_stage = ReuseEngine.cache_stage

    def dropping(self, inner, gateway, request, bypass, input_key):
        result = yield from cache_stage(
            self, inner, gateway, request, bypass, input_key
        )
        if result.cache_reason == "shed":
            yield self.sim.event()  # never triggered: the answer is lost
        return result

    monkeypatch.setattr(ReuseEngine, "cache_stage", dropping)
    with pytest.raises(FateImbalance, match="5 requests in flight"):
        run_load(**SHED_TO_STALE)


@pytest.mark.parametrize("scenario", scenario_names())
def test_every_scenario_checks_its_ledger(scenario, monkeypatch):
    build_runtime = scenarios.build_runtime

    def one_admission_never_run(*args, **kwargs):
        runtime, frontend = build_runtime(*args, **kwargs)
        frontend.shards[0].gateway.requests_admitted += 1
        return runtime, frontend

    run_load(scenario, quick=True, seed=5)
    monkeypatch.setattr(scenarios, "build_runtime", one_admission_never_run)
    with pytest.raises(FateImbalance, match="but the gateways admitted"):
        run_load(scenario, quick=True, seed=5)
