"""Canned benchmark workloads and the ``BENCH_perf.json`` report.

The scenarios cover the hot paths the kernel fast-path work targets:

* ``kernel_microbench`` — the discrete-event core alone: a fan of
  processes churning through :class:`~repro.sim.core.Timeout` events
  (exercises the batched drain, the resume fast path and the timeout
  free-list) plus a fan-in stage of ``all_of`` conditions (exercises
  callback dispatch and defusal).  Headline metric: **events/sec**.
* ``invocation_sweep`` — the full runtime stack: one deployment, then
  warm and forced-cold invocation loops through gateway, scheduler,
  sandbox and XPU-Shim.  Headline metric: **invocations/sec**.
* ``coldstart_storm`` — a concurrent-miss storm under DRAM pressure,
  with and without the warm-path engine.
* ``startup_replay`` — wall-clock replays of the paper's Fig. 10
  startup experiment (CPU/DPU cfork vs. baseline plus the FPGA
  configurations), the heaviest single experiment in the suite.
  Headline metric: **replays/sec**.

End-to-end replays of ``repro load`` workloads are measured by the
repository's benchmark harness in ``perfbench/``, not here.

Every scenario reports wall seconds per stage so a regression can be
localised without a profiler, and the kernel-centric scenarios attach a
:meth:`~repro.sim.core.Simulator.kernel_profile` snapshot (batch-size
histogram, slab hit rates, heap ops avoided) that ``repro perf
--profile`` emits next to BENCH_perf.json.  All simulated work is
seeded, so two runs on the same interpreter do identical work —
wall-clock noise is the only nondeterminism.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

#: Report format version (bump on breaking schema changes).
SCHEMA = "repro-perf/1"

#: Relative events/sec (or invocations/sec, ...) drop treated as a
#: regression by ``--compare``.
DEFAULT_REGRESSION_THRESHOLD = 0.20

#: Seed for all simulated work; fixed so every run does identical work.
BENCH_SEED = 1879


@dataclass
class BenchResult:
    """One scenario's measurements."""

    name: str
    wall_s: float
    #: Headline rates, e.g. ``{"events_per_sec": 8.1e5}``.  Keys ending
    #: in ``_per_sec`` are compared (higher is better) by ``--compare``.
    metrics: dict = field(default_factory=dict)
    #: Wall seconds per stage, e.g. ``{"deploy_s": 0.01}``.
    stages: dict = field(default_factory=dict)
    #: Workload sizing knobs, recorded for reproducibility.
    params: dict = field(default_factory=dict)
    #: Kernel profiling counters (``Simulator.kernel_profile()``) for
    #: kernel-centric scenarios; emitted by ``repro perf --profile`` as
    #: a sidecar JSON, never into BENCH_perf.json itself.
    profile: Optional[dict] = None

    def to_json(self) -> dict:
        return {
            "wall_s": self.wall_s,
            "metrics": self.metrics,
            "stages": self.stages,
            "params": self.params,
        }


# -- scenarios ---------------------------------------------------------------------


def _bench_kernel(quick: bool) -> BenchResult:
    from repro.sim import Simulator

    procs = 20 if quick else 100
    events_per_proc = 500 if quick else 2_000
    fan_in = 50 if quick else 200

    sim = Simulator()

    def churner(n):
        for _ in range(n):
            yield sim.timeout(1.0)

    for _ in range(procs):
        sim.spawn(churner(events_per_proc))
    t0 = time.perf_counter()
    sim.run()
    churn_s = time.perf_counter() - t0
    churn_events = sim.processed_count

    def waiter():
        yield sim.all_of([sim.timeout(float(i + 1)) for i in range(fan_in)])

    def fan(n):
        for _ in range(n):
            yield from waiter()

    before = sim.processed_count
    for _ in range(procs):
        sim.spawn(fan(4))
    t0 = time.perf_counter()
    sim.run()
    fan_s = time.perf_counter() - t0
    fan_events = sim.processed_count - before

    wall = churn_s + fan_s
    total = sim.processed_count
    return BenchResult(
        name="kernel_microbench",
        profile=sim.kernel_profile(),
        wall_s=wall,
        metrics={
            "events_per_sec": total / wall if wall > 0 else 0.0,
            "events": float(total),
        },
        stages={
            "timeout_churn_s": churn_s,
            "condition_fan_in_s": fan_s,
            "timeout_churn_events_per_sec": (
                churn_events / churn_s if churn_s > 0 else 0.0
            ),
            "condition_fan_in_events_per_sec": (
                fan_events / fan_s if fan_s > 0 else 0.0
            ),
        },
        params={
            "procs": procs,
            "events_per_proc": events_per_proc,
            "fan_in": fan_in,
        },
    )


def _bench_invocations(quick: bool) -> BenchResult:
    from repro import (
        FunctionCode,
        FunctionDef,
        Language,
        MoleculeRuntime,
        PuKind,
        WorkProfile,
    )

    warm = 30 if quick else 150
    cold = 10 if quick else 50

    t0 = time.perf_counter()
    molecule = MoleculeRuntime.create(num_dpus=1, seed=BENCH_SEED)
    hello = FunctionDef(
        name="hello",
        code=FunctionCode("hello", language=Language.PYTHON, import_ms=120.0),
        work=WorkProfile(warm_exec_ms=15.0),
        profiles=(PuKind.CPU, PuKind.DPU),
    )
    molecule.deploy_now(hello)
    deploy_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    for _ in range(warm):
        molecule.invoke_now("hello", kind=PuKind.CPU)
    warm_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    for _ in range(cold):
        molecule.invoke_now("hello", force_cold=True)
    cold_s = time.perf_counter() - t0

    invoke_s = warm_s + cold_s
    invocations = warm + cold
    return BenchResult(
        name="invocation_sweep",
        wall_s=deploy_s + invoke_s,
        metrics={
            "invocations_per_sec": (
                invocations / invoke_s if invoke_s > 0 else 0.0
            ),
            "invocations": float(invocations),
            "sim_events": float(molecule.sim.processed_count),
        },
        stages={
            "deploy_s": deploy_s,
            "warm_sweep_s": warm_s,
            "cold_sweep_s": cold_s,
            "warm_per_invocation_ms": warm_s / warm * 1e3,
            "cold_per_invocation_ms": cold_s / cold * 1e3,
        },
        params={"warm": warm, "cold": cold},
    )


def _bench_coldstart_storm(quick: bool) -> BenchResult:
    """Concurrent-miss storm under DRAM admission pressure.

    Every request misses the warm pool at once and the PU only has
    room for a fraction of them.  With the warm-path engine off each
    miss forks its own sandbox and the overflow dies in placement
    retries; with coalescing on, one single-flight batch serves the
    whole storm from a handful of recycled instances.  The headline
    rate is wall-clock storm throughput with the engine armed; the
    density comparison (sandboxes vs requests) is recorded alongside.
    """
    from repro import (
        FunctionCode,
        FunctionDef,
        Language,
        MoleculeRuntime,
        PuKind,
        WarmPathConfig,
        WorkProfile,
    )
    from repro.errors import ReproError

    requests = 24 if quick else 40
    rounds = 2 if quick else 5

    def run_storm(warmpath):
        molecule = MoleculeRuntime.create(
            num_dpus=1, seed=BENCH_SEED, warmpath=warmpath
        )
        cpu = molecule.machine.host_cpu
        # DRAM admits only ~a fifth of the storm at once, so an
        # uncoalesced miss flood runs straight into placement failures.
        memory_mb = int(cpu.dram_free_mb / max(1, requests // 5))
        molecule.deploy_now(FunctionDef(
            name="storm",
            code=FunctionCode("storm", language=Language.PYTHON,
                              import_ms=120.0, memory_mb=memory_mb),
            work=WorkProfile(warm_exec_ms=15.0),
            profiles=(PuKind.CPU,),
        ))

        outcomes = []

        def guarded():
            try:
                result = yield from molecule.invoke("storm", kind=PuKind.CPU)
                outcomes.append(result)
            except ReproError:
                outcomes.append(None)

        def drive():
            procs = [molecule.sim.spawn(guarded()) for _ in range(requests)]
            yield molecule.sim.all_of(procs)

        molecule.run(drive())
        answered = sum(1 for r in outcomes if r is not None)
        invoker = molecule.invoker
        engine = molecule.warmpath
        sandboxes = invoker.cold_invocations + (
            engine.extra_spawned + engine.prewarm_spawned if engine else 0
        )
        return {
            "answered": answered,
            "cold": invoker.cold_invocations,
            "coalesced": invoker.coalesced_invocations,
            "sandboxes": sandboxes,
        }

    t0 = time.perf_counter()
    for _ in range(rounds):
        off = run_storm(None)
    off_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    for _ in range(rounds):
        on = run_storm(WarmPathConfig())
    on_s = time.perf_counter() - t0

    wall = off_s + on_s
    return BenchResult(
        name="coldstart_storm",
        wall_s=wall,
        metrics={
            "storm_invocations_per_sec": (
                rounds * on["answered"] / on_s if on_s > 0 else 0.0
            ),
            "answered_engine_on": float(on["answered"]),
            "answered_engine_off": float(off["answered"]),
            "sandboxes_engine_on": float(on["sandboxes"]),
            "sandboxes_engine_off": float(off["sandboxes"]),
            "cold_engine_on": float(on["cold"]),
            "cold_engine_off": float(off["cold"]),
            "coalesced_engine_on": float(on["coalesced"]),
        },
        stages={
            "engine_off_s": off_s,
            "engine_on_s": on_s,
        },
        params={"requests": requests, "rounds": rounds},
    )


def _bench_startup_replay(quick: bool) -> BenchResult:
    from repro.analysis import experiments as ex

    replays = 3 if quick else 20

    # One warm-up replay keeps import costs out of the measurement.
    ex.fig10_startup()
    per_replay: list[float] = []
    t_all = time.perf_counter()
    for _ in range(replays):
        t0 = time.perf_counter()
        ex.fig10_startup()
        per_replay.append(time.perf_counter() - t0)
    wall = time.perf_counter() - t_all

    return BenchResult(
        name="startup_replay",
        wall_s=wall,
        metrics={
            "replays_per_sec": replays / wall if wall > 0 else 0.0,
            "replays": float(replays),
        },
        stages={
            "best_replay_s": min(per_replay),
            "worst_replay_s": max(per_replay),
            "mean_replay_s": wall / replays,
        },
        params={"replays": replays},
    )


#: name -> scenario runner; ``repro perf --scenario`` keys into this.
SCENARIOS: dict[str, Callable[[bool], BenchResult]] = {
    "kernel_microbench": _bench_kernel,
    "invocation_sweep": _bench_invocations,
    "coldstart_storm": _bench_coldstart_storm,
    "startup_replay": _bench_startup_replay,
}


# -- report ------------------------------------------------------------------------


def run_benchmarks(
    quick: bool = False,
    scenarios: Optional[list[str]] = None,
    profile: bool = False,
) -> dict:
    """Run the selected scenarios and return the report dict.

    ``profile=True`` adds a top-level ``"profiles"`` mapping (scenario
    name -> kernel counter snapshot) for the scenarios that attach one;
    the CLI strips it into a sidecar file so BENCH_perf.json's schema
    is unchanged.
    """
    names = list(SCENARIOS) if not scenarios else list(scenarios)
    unknown = [n for n in names if n not in SCENARIOS]
    if unknown:
        raise KeyError(f"unknown scenario(s): {', '.join(unknown)}")
    results = {name: SCENARIOS[name](quick) for name in names}
    report = {
        "schema": SCHEMA,
        "quick": quick,
        "seed": BENCH_SEED,
        "host": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": sys.platform,
            "machine": platform.machine(),
        },
        "scenarios": {name: r.to_json() for name, r in results.items()},
    }
    if profile:
        report["profiles"] = {
            name: r.profile
            for name, r in results.items()
            if r.profile is not None
        }
    return report


def write_report(report: dict, path: str) -> None:
    """Write a report as stable, diff-friendly JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")


def format_report(report: dict) -> str:
    """Human-readable summary of one report."""
    lines = []
    for name, scenario in sorted(report["scenarios"].items()):
        lines.append(f"{name}: {scenario['wall_s']:.3f}s")
        for key, value in sorted(scenario["metrics"].items()):
            if key.endswith("_per_sec"):
                lines.append(f"  {key:<32} {value:>12,.0f}")
        for key, value in sorted(scenario["stages"].items()):
            if key.endswith("_per_sec"):
                lines.append(f"  {key:<32} {value:>12,.0f}")
            else:
                lines.append(f"  {key:<32} {value:>12.4f}")
    return "\n".join(lines)


def format_profile(profiles: dict) -> str:
    """Human-readable summary of the kernel counter snapshots."""
    lines = []
    for name, prof in sorted(profiles.items()):
        mean = prof.get("mean_batch_size", 0.0)
        lines.append(
            f"{name}: {prof['events_processed']:,} events in "
            f"{prof['batches_drained']:,} batches "
            f"(mean {mean:.1f}/batch, "
            f"{prof['heap_ops_avoided']:,} heap ops avoided)"
        )
        hist = prof.get("batch_size_hist", {})
        if hist:
            parts = ", ".join(f"{k}: {v:,}" for k, v in hist.items())
            lines.append(f"  batch sizes   {parts}")
        slab = prof.get("slab", {})
        if slab:
            parts = ", ".join(
                f"{kind} {entry['hit_rate']:.0%}"
                for kind, entry in slab.items()
            )
            lines.append(f"  slab hit rate {parts}")
    return "\n".join(lines)


# -- comparison --------------------------------------------------------------------


def compare_reports(
    current: dict,
    prior: dict,
    threshold: float = DEFAULT_REGRESSION_THRESHOLD,
) -> list[dict]:
    """Regressions of ``current`` against ``prior``.

    Compares every ``*_per_sec`` metric in scenarios both reports ran
    (higher is better); a relative drop beyond ``threshold`` is a
    regression.  Scenarios run at different sizes (``quick`` vs. full)
    are skipped — rates are roughly size-independent but the guard
    keeps apples with apples when params are recorded differently.
    """
    regressions: list[dict] = []
    for name, scenario in current["scenarios"].items():
        before = prior.get("scenarios", {}).get(name)
        if before is None:
            continue
        if scenario.get("params") != before.get("params"):
            continue
        for key, now_value in scenario["metrics"].items():
            if not key.endswith("_per_sec"):
                continue
            prior_value = before.get("metrics", {}).get(key)
            if not prior_value:
                continue
            delta = (now_value - prior_value) / prior_value
            if delta < -threshold:
                regressions.append({
                    "scenario": name,
                    "metric": key,
                    "prior": prior_value,
                    "current": now_value,
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
            f"  {r['scenario']}.{r['metric']}: "
            f"{r['prior']:,.0f} -> {r['current']:,.0f} ({r['delta']:+.1%})"
        )
    return "\n".join(lines)
