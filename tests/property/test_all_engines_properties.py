"""Every engine combination under faults: one fate per request.

Hypothesis draws a subset of the opt-in engines (warm-path pre-warm,
hedging with a clone budget, overload control on a pinched gate, the
result cache, fan-out jobs and the GDSF keep-alive policy), a fault
plan and a seed, and replays a short open-loop plan.  Whatever the mix,
each run must leave

* the fate ledger balanced (:meth:`MoleculeRuntime.check_fates`);
* DRAM and instance accounting back at idle once the keep-alive TTL
  has drained every pool;
* no single-flight or coalesced cold-start batch left open.

A dropped nIPC command or reply strands its attempt on the executor
client's reply event for good: the attempt never returns its DRAM
reservation, and a coalesced batch it leads never closes.  That is a
known fault of the executor client (it has no reply timeout), so runs
that dropped a message are held to the ledger check alone.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import FanoutConfig, OverloadConfig
from repro.faults import FaultKind, FaultPlan, FaultSpec
from repro.loadgen import (
    OpenLoopDriver,
    PoissonArrivals,
    attach_fault_plan,
    attach_zipf_inputs,
    build_runtime,
    default_mix,
)
from repro.loadgen.scenarios import fanout_invoke_factory
from repro.reuse import ReuseConfig
from repro.sim.rng import SeededRng

ENGINES = ("prewarm", "hedge", "overload", "reuse", "fanout", "gdsf")

FAULTS = (
    (),
    (FaultSpec(FaultKind.PU_CRASH, "dpu0", at_s=0.3, reboot_after_s=0.3),),
    (FaultSpec(FaultKind.PU_CRASH, "dpu1", at_s=0.5),),
    (FaultSpec(FaultKind.FIFO_DROP, "*", at_s=0.2, probability=0.25,
               duration_s=0.5),),
)


def _replay(engines: frozenset, faults: tuple, seed: int):
    fanout = "fanout" in engines
    rng = SeededRng(seed).fork("prop:all-engines")
    plan = PoissonArrivals(
        default_mix(), 20.0 if fanout else 250.0, rng=rng
    ).plan(duration_s=1.0)
    if "reuse" in engines:
        plan = attach_zipf_inputs(plan, rng.fork("keys"), skew=1.1)
    runtime, frontend = build_runtime(
        plan, seed=seed, shards=2, default_deadline_s=2.0,
        keep_alive_ttl_s=0.5,
        prewarm="prewarm" in engines,
        hedge_budget=0.2 if "hedge" in engines else None,
        overload=OverloadConfig(
            initial_limit=2, min_limit=1, max_limit=4, queue_capacity=8,
        ) if "overload" in engines else False,
        fanout=FanoutConfig(partitions=8) if fanout else None,
        reuse=ReuseConfig(ttl_s=0.05) if "reuse" in engines else False,
        idempotent="reuse" in engines,
        keepalive_policy="gdsf" if "gdsf" in engines else "ttl",
    )
    if faults:
        attach_fault_plan(runtime, FaultPlan.of(*faults))
    idle_dram = {pu.name: pu.dram_used_mb
                 for pu in runtime.machine.pus.values()}
    factory = (fanout_invoke_factory(runtime.fanout, frontend, seed)
               if fanout else None)
    OpenLoopDriver(runtime, plan, frontend, invoke_factory=factory).run()
    return runtime, idle_dram


@settings(max_examples=15, deadline=None)
@given(
    engines=st.frozensets(st.sampled_from(ENGINES)),
    faults=st.sampled_from(FAULTS),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_any_engine_mix_settles_every_request_and_returns_to_idle(
    engines, faults, seed
):
    runtime, idle_dram = _replay(engines, faults, seed)
    runtime.check_fates()
    assert runtime.fates.in_flight == 0
    if runtime.obs.registry.get("repro_nipc_dropped_total").total():
        return
    # The keep-alive TTL drained every pool: no instance is left, and
    # every DRAM reservation an instance made was returned.
    assert all(len(pool) == 0 for pool in runtime.invoker.pools.values())
    for pu in runtime.machine.pus.values():
        assert abs(pu.dram_used_mb - idle_dram[pu.name]) < 1e-6, pu.name
    # Nobody is parked on a leader that will never answer.
    if runtime.warmpath is not None:
        assert not runtime.warmpath.coalescer._batches
    if runtime.reuse is not None:
        flights = runtime.reuse.flights
        assert len(flights) == 0
        assert (flights.followers_served + flights.followers_requeued
                == flights.followers_joined)
