"""The Zipf input-key layer and the ``zipf`` computation-reuse
scenario.

The sampler is validated against its own closed form (empirical rank
frequencies converge on ``probability(rank)``), the plan plumbing
against golden-compatibility rules (keys round-trip; keyless plans
serialize exactly as before), and the scenario against the acceptance
bar: at the golden seed, arming the cache strictly improves both the
p99 and the answered count, with a hit rate past one half and every
cached answer byte-equal to what executing its digest produces.
"""

import json
from collections import Counter

import pytest

from repro.errors import WorkloadError
from repro.loadgen import (
    Arrival,
    ArrivalPlan,
    ZipfSampler,
    attach_zipf_inputs,
    run_load,
)
from repro.loadgen.scenarios import ZIPF_KEYS_PER_FUNCTION, ZIPF_SKEW
from repro.reuse.cache import result_payload
from repro.sim.rng import SeededRng

from tests.support import settled

GOLDEN_SEED = 1234  # the loadgen goldens' seed, not the sim kernel's


# -- the sampler -------------------------------------------------------------------


def test_sampler_rejects_bad_inputs():
    rng = SeededRng(1).fork("zipf")
    with pytest.raises(WorkloadError):
        ZipfSampler((), 1.0, rng)
    with pytest.raises(WorkloadError):
        ZipfSampler(("a",), -0.1, rng)
    sampler = ZipfSampler(("a", "b"), 1.0, rng)
    with pytest.raises(WorkloadError):
        sampler.probability(0)  # ranks are 1-based
    with pytest.raises(WorkloadError):
        sampler.probability(3)


def test_sampler_probabilities_are_a_distribution():
    sampler = ZipfSampler(
        tuple(f"k{i}" for i in range(16)), 1.1, SeededRng(3).fork("zipf")
    )
    probs = [sampler.probability(rank) for rank in range(1, 17)]
    assert sum(probs) == pytest.approx(1.0)
    assert probs == sorted(probs, reverse=True)
    # Uniform degenerate case: skew 0 flattens the distribution.
    flat = ZipfSampler(("a", "b", "c", "d"), 0.0, SeededRng(3).fork("u"))
    assert flat.probability(1) == pytest.approx(0.25)
    assert flat.probability(4) == pytest.approx(0.25)


def test_sampler_frequencies_match_the_closed_form():
    """20k draws per rank land within a few percent of P(rank) for the
    head of the distribution — the sampler really is Zipf(s), not just
    'something skewed'."""
    keys = tuple(f"k{i:02d}" for i in range(32))
    sampler = ZipfSampler(keys, 1.1, SeededRng(42).fork("zipf-stats"))
    draws = 20_000
    counts = Counter(sampler.sample() for _ in range(draws))
    assert set(counts) <= set(keys)
    for rank in (1, 2, 3, 5, 8):
        expected = sampler.probability(rank)
        observed = counts[keys[rank - 1]] / draws
        assert observed == pytest.approx(expected, rel=0.12), rank
    # The head dominates: rank 1 beats rank 32 by an order of magnitude.
    assert counts[keys[0]] > 10 * max(1, counts[keys[31]])


def test_sampler_is_fork_deterministic():
    keys = tuple(f"k{i}" for i in range(8))
    a = ZipfSampler(keys, 1.3, SeededRng(9).fork("stream"))
    b = ZipfSampler(keys, 1.3, SeededRng(9).fork("stream"))
    assert [a.sample() for _ in range(200)] == [
        b.sample() for _ in range(200)
    ]
    c = ZipfSampler(keys, 1.3, SeededRng(9).fork("other"))
    assert [a.sample() for _ in range(50)] != [c.sample() for _ in range(50)]


# -- plan plumbing -----------------------------------------------------------------


def test_input_keys_round_trip_through_json():
    plan = ArrivalPlan(
        (
            Arrival(time_s=0.0, function="thumb", input_key="k03"),
            Arrival(time_s=0.5, function="etl"),
        ),
        duration_s=1.0,
    )
    restored = list(ArrivalPlan.from_json(plan.to_json()))
    assert restored[0].input_key == "k03"
    assert restored[1].input_key is None
    # Keyless arrivals serialize exactly as before the reuse PR: no
    # input_key field at all (golden plan files must not churn).
    keyless = Arrival(time_s=0.5, function="etl").to_dict()
    assert "input_key" not in keyless
    assert "input_key" in restored[0].to_dict()


def test_attach_zipf_inputs_is_deterministic_and_key_preserving():
    plan = ArrivalPlan(
        tuple(
            Arrival(time_s=i * 0.01, function="thumb" if i % 2 else "etl")
            for i in range(40)
        ),
        duration_s=0.5,
    )
    keyed = attach_zipf_inputs(plan, SeededRng(7).fork("keys"))
    again = attach_zipf_inputs(plan, SeededRng(7).fork("keys"))
    assert [a.input_key for a in keyed] == [a.input_key for a in again]
    assert all(a.input_key is not None for a in keyed)
    assert keyed.duration_s == plan.duration_s
    universe = {f"k{i:02d}" for i in range(ZIPF_KEYS_PER_FUNCTION)}
    assert {a.input_key for a in keyed} <= universe
    # Pre-existing keys survive a second attach untouched.
    reattached = attach_zipf_inputs(keyed, SeededRng(8).fork("other"))
    assert [a.input_key for a in reattached] == [
        a.input_key for a in keyed
    ]


# -- the scenario acceptance bar ---------------------------------------------------


def test_zipf_cache_on_strictly_beats_cache_off():
    """The tentpole acceptance bar, pinned at the golden seed: on the
    Zipf workload the cache must answer strictly more requests at a
    strictly lower p99, reuse more than half of the consults, and keep
    the extended conservation ``fresh + stale + executed == answered``
    on top of the standard books."""
    off = run_load("zipf", quick=True, seed=GOLDEN_SEED)
    on = run_load("zipf", quick=True, seed=GOLDEN_SEED, reuse=True)
    assert on["load"]["offered"] == off["load"]["offered"]
    assert "reuse" not in off
    assert off["params"]["zipf_s"] == ZIPF_SKEW

    assert on["load"]["answered"] > off["load"]["answered"]
    assert (on["latency"]["end_to_end"]["p99_ms"]
            < off["latency"]["end_to_end"]["p99_ms"])

    reuse = on["reuse"]
    assert reuse["hit_rate"] >= 0.5
    assert reuse["conserved"] is True
    assert reuse["served_fresh"] > 0
    assert (reuse["served_fresh"] + reuse["served_stale"]
            + reuse["executed"] == on["load"]["answered"])
    load = on["load"]
    assert load["answered"] + load["dead_lettered"] == load["admitted"]
    assert load["lost"] == 0
    # Cached answers return faster than executed ones at the median.
    cached = reuse["latency_cached"]
    executed = reuse["latency_executed"]
    assert cached["count"] + executed["count"] == load["answered"]
    assert cached["p50_ms"] < executed["p50_ms"]


def test_zipf_scenario_is_deterministic():
    first = run_load("zipf", quick=True, seed=77, reuse=True)
    second = run_load("zipf", quick=True, seed=77, reuse=True)
    for report in (first, second):
        report.pop("wall_s")
        report.pop("host")
    assert json.dumps(first, sort_keys=True) == json.dumps(
        second, sort_keys=True
    )
    assert first["params"]["reuse"] is True
    assert first["params"]["cache_mb"] == 8.0


def test_every_cached_answer_matches_the_execution_oracle():
    """Correctness, not just speed: after a cache-on run every entry
    still resident memoizes exactly the payload a real execution of its
    ``(function, digest)`` would produce — the deterministic oracle
    that makes 'the cache never serves a wrong answer' checkable."""
    from repro.loadgen.scenarios import build_runtime, _plan_zipf
    from repro.loadgen import OpenLoopDriver

    rng = SeededRng(GOLDEN_SEED).fork("loadgen:zipf")
    plan = _plan_zipf(rng, rps=10.0, duration_s=3.0)
    runtime, frontend = build_runtime(
        plan, seed=GOLDEN_SEED, shards=2, reuse=True, idempotent=True
    )
    records = OpenLoopDriver(runtime, plan, frontend).run()
    served = [r for r in records if r.cache]
    assert served, "the Zipf workload must produce cache hits"
    reuse = runtime.reuse
    assert len(reuse.cache) > 0
    for (function, digest), entry in reuse.cache._entries.items():
        assert entry.payload == result_payload(function, digest)
    assert settled(runtime) == sum(1 for r in records if r.answered)
