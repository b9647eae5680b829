"""SLO aggregation: percentiles, goodput and utilization -> BENCH_load.json.

Takes the per-request :class:`~repro.loadgen.driver.RequestRecord`
ground truth plus the runtime's streamed stage samples and distils the
numbers an operator would page on:

* end-to-end latency p50/p95/p99/p99.9 (nearest-rank, the artifact's
  convention) over answered requests;
* per-stage percentiles (admit/schedule/sandbox_start/exec/respond)
  from the stage samples the observability hub streams as requests
  finish;
* goodput (answered/sec) against offered load;
* the request fates (the ``fates`` block): every admitted request
  settles once, so ``answered + shed + dead == admitted``, or the
  report is refused with :class:`~repro.errors.FateImbalance`;
* per-shard utilization (busy-time integral of the front end) and
  per-PU utilization (core busy clocks).

Everything but ``wall_s`` is simulated and therefore seed-stable:
two runs with the same seed must produce byte-identical reports
modulo the ``wall_s``/``host`` fields, which ``compare_reports``
ignores.
"""

from __future__ import annotations

import json
import platform
import sys
from typing import Optional, Sequence, TYPE_CHECKING

from repro import config
from repro.analysis.stats import percentile
from repro.loadgen.arrivals import ArrivalPlan
from repro.loadgen.driver import RequestRecord
from repro.obs.spans import LIFECYCLE_PHASES

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.molecule import MoleculeRuntime
    from repro.loadgen.sharding import ShardedFrontend

#: Report format version (bump on breaking schema changes).
SCHEMA = "repro-load/1"

#: Relative change treated as a regression by ``--compare``: latency
#: percentiles rising or goodput dropping by more than this fraction.
DEFAULT_REGRESSION_THRESHOLD = 0.20

#: Percentiles in the latency blocks (99.9 keyed as ``p999``).
_PERCENTILES = ((50, "p50"), (95, "p95"), (99, "p99"), (99.9, "p999"))


def latency_block(samples_s: Sequence[float]) -> dict:
    """mean/max/p50/p95/p99/p999 of ``samples_s``, reported in ms."""
    if not samples_s:
        return {"count": 0}
    block = {
        "count": len(samples_s),
        "mean_ms": sum(samples_s) / len(samples_s) / config.MS,
        "max_ms": max(samples_s) / config.MS,
    }
    for p, key in _PERCENTILES:
        block[f"{key}_ms"] = percentile(samples_s, p) / config.MS
    return block


def build_report(
    runtime: "MoleculeRuntime",
    plan: ArrivalPlan,
    records: Sequence[RequestRecord],
    scenario: str,
    params: Optional[dict] = None,
    wall_s: float = 0.0,
    frontend: Optional["ShardedFrontend"] = None,
    elapsed_s: Optional[float] = None,
    busy_baseline: Optional[dict] = None,
) -> dict:
    """Aggregate one load run into the BENCH_load report dict.

    ``elapsed_s`` is the measurement window (the driver's first-submit
    to last-completion span); defaults to absolute sim time for callers
    that measured from t=0.  ``busy_baseline`` maps ``pu_id`` to the
    PU's busy clock at workload start, so boot/deploy work doesn't
    count toward run utilization.
    """
    frontend = frontend if frontend is not None else runtime.frontend
    sim_elapsed = elapsed_s if elapsed_s is not None else runtime.sim.now
    busy_baseline = busy_baseline or {}
    answered = [r for r in records if r.answered]
    shed = sum(1 for r in records if r.shed)
    failed = len(records) - len(answered) - shed
    if frontend is not None:
        admitted = frontend.requests_admitted
    else:
        admitted = runtime.gateway.requests_admitted
    dead = len(runtime.dead_letters)
    overload = runtime.overload
    fanout = runtime.fanout
    # Counted per request, so fanned-out tasks count rather than jobs.
    runtime.check_fates()
    lost = runtime.fates.in_flight

    # Per-stage latencies streamed by the trace sink.  Failed and shed
    # requests never record phases, so these cover answered requests.
    stage_samples = runtime.obs.stage_samples

    report = {
        "schema": SCHEMA,
        "scenario": scenario,
        "params": dict(params or {}),
        "wall_s": wall_s,
        "host": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": sys.platform,
            "machine": platform.machine(),
        },
        "load": {
            "offered": len(plan),
            "offered_rate_per_s": plan.offered_rate_per_s,
            "plan_duration_s": plan.duration_s,
            "sim_elapsed_s": sim_elapsed,
            "submitted": len(records),
            "admitted": admitted,
            "answered": len(answered),
            "failed": failed,
            # Conditional so controller-off reports stay byte-identical.
            **(
                {
                    "shed": shed,
                    "shed_rate": shed / len(records) if records else 0.0,
                }
                if overload is not None else {}
            ),
            "dead_lettered": dead,
            "lost": lost,
            "goodput_per_s": (
                len(answered) / sim_elapsed if sim_elapsed > 0 else 0.0
            ),
            "goodput_ratio": (
                len(answered) / len(records) if records else 0.0
            ),
            "cold_starts": sum(1 for r in answered if r.cold),
            "cold_start_rate": (
                sum(1 for r in answered if r.cold) / len(answered)
                if answered else 0.0
            ),
            "retried": sum(1 for r in answered if r.attempts > 1),
        },
        "latency": {
            "end_to_end": latency_block([r.latency_s for r in answered]),
            "stages": {
                name: latency_block(stage_samples[name])
                for name in LIFECYCLE_PHASES
                if name in stage_samples
            },
        },
        "shards": (
            frontend.snapshot(sim_elapsed) if frontend is not None else []
        ),
        "pus": [
            {
                "pu": pu.name,
                "kind": pu.kind.value,
                "busy_s": pu.clock.busy_time - busy_baseline.get(pu_id, 0.0),
                "utilization": (
                    (pu.clock.busy_time - busy_baseline.get(pu_id, 0.0))
                    / sim_elapsed
                    if sim_elapsed > 0
                    else 0.0
                ),
            }
            for pu_id, pu in sorted(runtime.machine.pus.items())
        ],
    }
    # Billed cost over the whole run: the denominator for the hedging
    # acceptance bar (p999 cut at <5% mean-cost increase).
    total = runtime.ledger.total()
    report["cost"] = {
        "billed_invocations": total.invocations,
        "billed_ms": total.billed_ms,
        "billed_cost": total.cost,
        "mean_cost_per_answered": (
            total.cost / len(answered) if answered else 0.0
        ),
    }
    hedging = runtime.hedging
    if hedging is not None:
        snap = hedging.snapshot()
        hedged = sum(1 for r in answered if r.hedged)
        report["hedging"] = {
            **snap,
            "hedged_answered": hedged,
            "hedge_rate": snap["fired"] / len(answered) if answered else 0.0,
            "wasted_cost_fraction": (
                snap["wasted_cost"] / total.cost if total.cost else 0.0
            ),
        }
    if overload is not None:
        over_snap = overload.snapshot()
        report["overload"] = {
            **over_snap,
            "shed_rate": shed / len(records) if records else 0.0,
            # Clamped: after the last response the pressure signal is
            # frozen, so an open brownout interval stretches into the
            # post-drain sim tail (disarmed deadline timers keep the
            # clock ticking long past the measurement window).
            "brownout_fraction": (
                min(1.0, overload.brownout_s() / sim_elapsed)
                if sim_elapsed > 0 else 0.0
            ),
            "conserved": not lost,
            # The overload acceptance metric: latency among requests the
            # controller chose to answer (sheds excluded by definition).
            "goodput_answered": latency_block(
                [r.latency_s for r in answered]
            ),
        }
    if fanout is not None:
        report["fanout"] = {
            **fanout.snapshot(),
            "conserved": not lost,
            "task_latency": latency_block(fanout.task_samples),
            "stages": {
                name: latency_block(samples)
                for name, samples in fanout.stage_samples.items()
                if samples
            },
        }
    reuse = runtime.reuse
    if reuse is not None:
        cached = sum(1 for r in answered if r.cache)
        stale_served = sum(1 for r in answered if r.cache == "stale")
        report["reuse"] = {
            **reuse.snapshot(),
            "answered_from_cache": cached,
            "answered_stale": stale_served,
            "cache_answer_rate": cached / len(answered) if answered else 0.0,
            "conserved": not lost,
            "latency_cached": latency_block(
                [r.latency_s for r in answered if r.cache]
            ),
            "latency_executed": latency_block(
                [r.latency_s for r in answered if not r.cache]
            ),
        }
    report["fates"] = runtime.fates.snapshot()
    return report


def write_report(report: dict, path: str) -> None:
    """Write a report as stable, diff-friendly JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")


def format_report(report: dict) -> str:
    """Human-readable summary of one report."""
    load = report["load"]
    lines = [
        f"scenario {report['scenario']}: "
        f"{load['offered']} offered @ {load['offered_rate_per_s']:.1f}/s, "
        f"{load['answered']} answered, {load['dead_lettered']} dead, "
        f"goodput {load['goodput_per_s']:.1f}/s "
        f"({load['goodput_ratio']:.1%}) in {load['sim_elapsed_s']:.1f}s sim "
        f"/ {report['wall_s']:.2f}s wall",
    ]
    lines.append(f"  fates: {report['fates']}")
    e2e = report["latency"]["end_to_end"]
    if e2e.get("count"):
        lines.append(
            "  end-to-end ms  "
            + "  ".join(
                f"{key}={e2e[f'{key}_ms']:.2f}"
                for _p, key in _PERCENTILES
            )
            + f"  mean={e2e['mean_ms']:.2f} max={e2e['max_ms']:.2f}"
        )
    for name, block in sorted(report["latency"]["stages"].items()):
        lines.append(
            f"  {name:<13} ms  p50={block['p50_ms']:.3f} "
            f"p99={block['p99_ms']:.3f} (n={block['count']})"
        )
    for shard in report["shards"]:
        shed_part = (
            f" shed={shard['shed']}" if "shed" in shard else ""
        )
        lines.append(
            f"  shard {shard['shard']}: routed={shard['routed']} "
            f"admitted={shard['admitted']} failed={shard['failed']}"
            f"{shed_part} "
            f"util={shard['utilization']:.1%} breaker={shard['breaker']}"
        )
    for pu in report["pus"]:
        lines.append(
            f"  {pu['pu']:<12} util={pu['utilization']:.1%} "
            f"busy={pu['busy_s']:.2f}s"
        )
    hedging = report.get("hedging")
    if hedging is not None:
        lines.append(
            f"  hedging: fired={hedging['fired']} won={hedging['won']} "
            f"cancelled={hedging['cancelled']} "
            f"rate={hedging['hedge_rate']:.1%} "
            f"wasted_cost={hedging['wasted_cost']:.0f} "
            f"({hedging['wasted_cost_fraction']:.2%} of bill)"
        )
    fanout = report.get("fanout")
    if fanout is not None:
        spec = fanout.get("speculation", {})
        lines.append(
            f"  fanout: jobs={fanout['jobs']} "
            f"({fanout['jobs_failed']} failed) "
            f"tasks={fanout['tasks_done']}/{fanout['tasks_submitted']} "
            f"batches={fanout['batches']} "
            f"speculated={fanout['speculations']} "
            f"(won={spec.get('won', 0)}) "
            f"conserved={fanout['conserved']}"
        )
    reuse = report.get("reuse")
    if reuse is not None:
        flights = reuse.get("singleflight", {})
        lines.append(
            f"  reuse: hit_rate={reuse['hit_rate']:.1%} "
            f"fresh={reuse['served_fresh']} stale={reuse['served_stale']} "
            f"executed={reuse['executed']} "
            f"singleflight={flights.get('followers_served', 0)} "
            f"downgrades={reuse['shed_downgrades']} "
            f"evictions={reuse['evictions']} "
            f"conserved={reuse['conserved']}"
        )
    overload = report.get("overload")
    if overload is not None:
        lines.append(
            f"  overload: shed={overload['shed']} "
            f"({overload['shed_rate']:.1%}) "
            f"brownout={overload['brownout_fraction']:.1%} "
            f"({overload['brownout_entries']} entries) "
            f"degraded={overload['degraded_forced']} "
            f"conserved={overload['conserved']}"
        )
        for gate in overload["gates"]:
            lines.append(
                f"    gate {gate['shard']}: limit={gate['limit']} "
                f"[{gate['limit_min']}..{gate['limit_max']}] "
                f"admitted={gate['admitted']} shed={gate['shed']} "
                f"queued={gate['queued']} "
                f"max_queue={gate['max_queue_depth']}"
            )
    return "\n".join(lines)


# -- comparison --------------------------------------------------------------------

#: end_to_end keys compared (lower is better).
_LATENCY_KEYS = ("p50_ms", "p95_ms", "p99_ms", "p999_ms")


def compare_reports(
    current: dict,
    prior: dict,
    threshold: float = DEFAULT_REGRESSION_THRESHOLD,
) -> list[dict]:
    """Regressions of ``current`` against ``prior``.

    Latency percentiles rising beyond ``threshold`` and goodput
    dropping beyond it are regressions.  Reports from different
    scenarios or different sizing params are skipped — wall-clock and
    host fields are never compared.
    """
    if current.get("scenario") != prior.get("scenario"):
        return []
    if current.get("params") != prior.get("params"):
        return []
    regressions: list[dict] = []
    now_e2e = current["latency"]["end_to_end"]
    before_e2e = prior.get("latency", {}).get("end_to_end", {})
    for key in _LATENCY_KEYS:
        now_value = now_e2e.get(key)
        prior_value = before_e2e.get(key)
        if not now_value or not prior_value:
            continue
        delta = (now_value - prior_value) / prior_value
        if delta > threshold:
            regressions.append({
                "metric": f"end_to_end.{key}",
                "prior": prior_value,
                "current": now_value,
                "delta": delta,
            })
    now_good = current["load"].get("goodput_per_s")
    prior_good = prior.get("load", {}).get("goodput_per_s")
    if now_good is not None and prior_good:
        delta = (now_good - prior_good) / prior_good
        if delta < -threshold:
            regressions.append({
                "metric": "load.goodput_per_s",
                "prior": prior_good,
                "current": now_good,
                "delta": delta,
            })
    return regressions


def format_comparison(regressions: list[dict], threshold: float) -> str:
    """Human-readable comparison verdict."""
    if not regressions:
        return f"no regressions beyond {threshold:.0%}"
    lines = [f"REGRESSIONS beyond {threshold:.0%}:"]
    for r in regressions:
        lines.append(
            f"  {r['metric']}: {r['prior']:,.2f} -> "
            f"{r['current']:,.2f} ({r['delta']:+.1%})"
        )
    return "\n".join(lines)
