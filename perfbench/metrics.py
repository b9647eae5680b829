"""Simulated metrics, correctness checks and the determinism digest of
one replay.

Everything here is read from the replay's report, records and runtime,
so it is exact for a given seed: a change that only speeds up the
simulator must leave every value, and so the digest, identical.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from typing import TYPE_CHECKING

from repro.analysis.stats import percentile
from repro.futures import synthetic_dataset
from repro.loadgen.scenarios import FANOUT_ITEMS_PER_PARTITION, FANOUT_PARTITIONS

from spec import Workload

if TYPE_CHECKING:
    from replay import Replay

MS = 1e3


def fates(replay: Replay) -> dict:
    """Request fates at the front end (fan-out tasks, not jobs)."""
    load = replay.report["load"]
    fanout = replay.runtime.fanout
    if fanout is not None:
        answered = fanout.answered_requests()
        shed = fanout.shed_requests()
    else:
        answered = load["answered"]
        shed = load.get("shed", 0)
    return {
        "admitted": load["admitted"],
        "answered": answered,
        "shed": shed,
        "dead": load["dead_lettered"],
        "lost": load["lost"],
    }


def tail_beyond(count: int, tail_percentile: float) -> int:
    """Samples strictly beyond the nearest-rank percentile."""
    return count - max(1, math.ceil(tail_percentile / 100 * count - 1e-9))


def sim_metrics(workload: Workload, replay: Replay) -> dict:
    """The simulated end-to-end figures of one replay.

    On a fan-out replay each job (one driver record) draws its function
    with even odds and a thumb job is ten times faster than an etl
    one, so the job median would land on either mode by seed.  There,
    latency and cost are taken per function and weighted equally: the
    median is the mean of each function's median job latency, and cost
    is kept per function for :func:`combine`.
    """
    answered = [r for r in replay.records if r.answered]
    fate = fates(replay)
    if replay.runtime.fanout is not None:
        groups: dict[str, list] = {}
        for record in answered:
            groups.setdefault(record.function, []).append(record.latency_s)
        ledger = replay.runtime.ledger
        cost = {name: ledger.by_function(name).cost for name in groups}
    else:
        groups = {"": [r.latency_s for r in answered]}
        cost = {"": replay.report["cost"]["billed_cost"]}
    return {
        "sim_p50_ms": statistics.fmean(
            percentile(latencies, 50) for latencies in groups.values()
        ) * MS,
        "sim_tail_ms": percentile(
            [r.latency_s for r in answered], workload.tail_percentile
        ) * MS,
        "answered": fate["answered"],
        "admitted": fate["admitted"],
        "answered_records": len(answered),
        "billed_cost": cost,
        "answered_by_group": {name: len(group) for name, group in groups.items()},
    }


def combine(per_seed: list[dict]) -> dict:
    """End-to-end simulated metrics over several seeds' replays: median
    latencies, and ratios of totals (cost per answered record summed
    per function first, then weighted equally over functions)."""
    def total(key, name=None):
        if name is None:
            return sum(sim[key] for sim in per_seed)
        return sum(sim[key].get(name, 0) for sim in per_seed)

    names = sorted({name for sim in per_seed for name in sim["billed_cost"]})
    return {
        "sim_p50_ms": statistics.median(s["sim_p50_ms"] for s in per_seed),
        "sim_tail_ms": statistics.median(s["sim_tail_ms"] for s in per_seed),
        "answered_ratio": total("answered") / total("admitted"),
        "cost_per_answered": statistics.fmean(
            total("billed_cost", name) / total("answered_by_group", name)
            for name in names
        ),
    }


def violations(workload: Workload, replay: Replay, seed: int) -> list[str]:
    """Every correctness check the replay fails (empty when correct)."""
    found = []
    fate = fates(replay)
    if fate["answered"] + fate["shed"] + fate["dead"] != fate["admitted"]:
        found.append(f"answered + shed + dead != admitted: {fate}")
    if fate["lost"] != 0:
        found.append(f"lost requests: {fate}")
    answered = sum(1 for r in replay.records if r.answered)
    if not answered:
        found.append("no request answered")
        return found
    beyond = tail_beyond(answered, workload.tail_percentile)
    # The maximum (fanout) has no samples beyond it by definition.
    if workload.tail_percentile < 100 and beyond < 10:
        found.append(
            f"p{workload.tail_percentile:g} has {beyond} samples beyond "
            "it, fewer than ten"
        )
    reuse = replay.runtime.reuse
    if reuse is not None:
        partition = reuse.served_fresh + reuse.served_stale + reuse.executed
        if partition != fate["answered"]:
            found.append(
                f"fresh + stale + executed = {partition} != answered "
                f"{fate['answered']}"
            )
    if replay.runtime.fanout is not None:
        found.extend(_fanout_violations(replay, seed))
    return found


def _fanout_violations(replay: Replay, seed: int) -> list[str]:
    """Each answered job reduced to the sum of squares of its dataset,
    recomputed here the way the scenario derives it."""
    found = []
    items_per_job = FANOUT_PARTITIONS * FANOUT_ITEMS_PER_PARTITION
    answered = {r.index for r in replay.records if r.answered}
    if set(replay.job_values) != answered:
        found.append(
            f"{len(replay.job_values)} job values for {len(answered)} "
            "answered jobs"
        )
    for index, value in sorted(replay.job_values.items()):
        expected = 0
        for item in synthetic_dataset(seed * 1_000_003 + index, items_per_job):
            expected += item * item
        if value != expected:
            found.append(f"job {index} reduced to {value}, expected {expected}")
    return found


def digest(workload: Workload, replay: Replay) -> str:
    """SHA-256 over every simulated outcome of the replay."""
    report = replay.report
    stages = report["latency"]["stages"]
    payload = {
        "fates": fates(replay),
        "sim": sim_metrics(workload, replay),
        "stage_p99_ms": {name: block["p99_ms"] for name, block in stages.items()},
        "cold_starts": report["load"]["cold_starts"],
        "cost": report["cost"],
        "events": replay.kernel_after["events_processed"],
        "job_values": sorted(replay.job_values.items()),
    }
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _slab_ratios(before: dict, after: dict) -> dict:
    ratios = {}
    for kind, slab in after["slab"].items():
        new = slab["new"] - before["slab"][kind]["new"]
        reused = slab["reused"] - before["slab"][kind]["reused"]
        ratios[f"sim.slab_hit_ratio.{kind}"] = _ratio(reused, new + reused)
    return ratios


def simulated_layer_metrics(replay: Replay) -> dict:
    """Per-layer metrics read from the model and the kernel counters."""
    report = replay.report
    runtime = replay.runtime
    before, after = replay.kernel_before, replay.kernel_after
    events = after["events_processed"] - before["events_processed"]
    batches = after["batches_drained"] - before["batches_drained"]
    stages = report["latency"]["stages"]
    invoker = runtime.invoker
    starts = (invoker.cold_invocations + invoker.warm_invocations
              + invoker.coalesced_invocations)
    pools = invoker.pools.values()
    pool_hits = sum(pool.hits for pool in pools)
    pool_lookups = pool_hits + sum(pool.misses for pool in pools)
    routed = [shard["routed"] for shard in report["shards"]]
    utilization = [pu["utilization"] for pu in report["pus"]]
    metrics = {
        "sim.events": events,
        "sim.mean_batch_size": _ratio(events, batches),
        **_slab_ratios(before, after),
        "obs.traces_retained": len(runtime.obs.traces),
        "reuse.hit_ratio": (
            runtime.reuse.hit_rate() if runtime.reuse is not None else 0.0
        ),
        "overload.shed_ratio": report.get("overload", {}).get("shed_rate", 0.0),
        "overload.queue_wait_s": sum(
            gate["queue_wait_s"]
            for gate in report.get("overload", {}).get("gates", [])
        ),
        "hedging.win_ratio": _ratio(
            report.get("hedging", {}).get("won", 0),
            report.get("hedging", {}).get("fired", 0),
        ),
        "hedging.wasted_cost_fraction": (
            report.get("hedging", {}).get("wasted_cost_fraction", 0.0)
        ),
        "warmpath.prewarm_hit_ratio": _ratio(
            report.get("warmpath", {}).get("prewarm_hits", 0),
            report.get("warmpath", {}).get("prewarm_spawned", 0),
        ),
        "futures.gather_p99_ms": (
            report.get("fanout", {}).get("stages", {})
            .get("gather", {}).get("p99_ms", 0.0)
        ),
        "loadgen.sharding.idle_shards": sum(1 for n in routed if n == 0),
        "loadgen.sharding.max_share": _ratio(max(routed), sum(routed)),
        "core.stage.schedule_p99_ms": stages.get("schedule", {}).get("p99_ms", 0.0),
        "sandbox.start_p99_ms": stages.get("sandbox_start", {}).get("p99_ms", 0.0),
        "core.stage.exec_p99_ms": stages.get("exec", {}).get("p99_ms", 0.0),
        "core.invoker.cold_ratio": _ratio(invoker.cold_invocations, starts),
        "core.keepalive.hit_ratio": _ratio(pool_hits, pool_lookups),
        "hardware.pu_util_max": max(utilization),
        "hardware.pu_util_min": min(utilization),
    }
    return metrics
