"""The hedge clone budget: a provable clone-rate bound (``fired <= burst
+ ratio x answered`` for any latency distribution), throttling and the
waste ceiling."""

import pytest

from repro import HedgeConfig
from repro.hedging.budget import HedgeBudget
from repro.loadgen import run_load


# -- token bucket unit behavior ----------------------------------------------------


def test_budget_validates_parameters():
    with pytest.raises(ValueError):
        HedgeBudget(ratio=0.0)
    with pytest.raises(ValueError):
        HedgeBudget(burst=0.5)
    with pytest.raises(ValueError):
        HedgeBudget(waste_ceiling=1.5)


def test_budget_accrues_per_answer_and_spends_per_clone():
    budget = HedgeBudget(ratio=0.25, burst=2.0)
    assert budget.try_fire() and budget.try_fire()
    assert not budget.try_fire()          # bucket drained
    for _ in range(4):                    # four answers accrue one token
        budget.on_answered()
    assert budget.try_fire()
    assert not budget.try_fire()
    assert budget.granted <= budget.burst + 0.25 * budget.answered


def test_budget_never_overfills_past_burst():
    budget = HedgeBudget(ratio=1.0, burst=3.0)
    for _ in range(100):
        budget.on_answered()
    assert budget.tokens == 3.0
    fired = sum(1 for _ in range(10) if budget.try_fire())
    assert fired == 3


def test_throttle_refuses_regardless_of_tokens():
    budget = HedgeBudget()                # unlimited but throttleable
    assert budget.try_fire() is True
    budget.throttled = True
    assert budget.try_fire() is False
    assert budget.denied_throttled == 1
    budget.throttled = False
    assert budget.try_fire() is True


def test_waste_ceiling_refuses_wasteful_clones():
    budget = HedgeBudget(waste_ceiling=0.1)
    assert budget.try_fire(wasted_cost=0.0, total_cost=1.0) is True
    assert budget.try_fire(wasted_cost=0.2, total_cost=1.0) is False
    assert budget.denied_waste == 1


# -- the clone-rate regression bound -----------------------------------------------


def test_clone_rate_provably_respects_budget():
    """The bound from the budget's contract, pinned against a run whose
    trigger is deliberately adversarial (p50 trigger: roughly half of
    all requests outlive it and try to clone)."""
    ratio, burst = 0.02, 4.0
    report = run_load(
        "burst", quick=True, seed=1234, rps=320.0,
        hedge=HedgeConfig(min_samples=10, percentile=50.0,
                          default_trigger_s=0.001,
                          budget_ratio=ratio, budget_burst=burst),
    )
    hedging = report["hedging"]
    answered = report["load"]["answered"]
    assert hedging["fired"] <= burst + ratio * answered
    budget = hedging["budget"]
    assert budget["granted"] == hedging["fired"]
    # The bound actually bit: the adversarial trigger wanted more
    # clones than the bucket allowed.
    assert budget["denied"] > 0
    assert hedging["throttled"] == budget["denied"]
    assert budget["ratio"] == ratio and budget["burst"] == burst


def test_hedge_budget_flag_implies_hedging():
    """``--hedge-budget`` alone arms hedging with the given ratio."""
    report = run_load("burst", quick=True, seed=7, hedge_budget=0.05)
    assert report["params"]["hedge"] is True
    assert report["params"]["hedge_budget"] == 0.05
    assert report["hedging"]["budget"]["ratio"] == 0.05
