"""Canned load scenarios for the ``repro load`` CLI and CI smoke.

Each scenario materialises a seeded arrival plan (so the same seed
produces the same plan, byte for byte), boots a CPU+DPU deployment
with a sharded gateway front end, replays the plan open- or
closed-loop, and aggregates the run into a BENCH_load report.

The default full-size run (``--rps 200 --duration 60``) offers ~12k
invocations — past the 10k bar the scale harness has to sustain —
and finishes in a couple of wall-clock seconds on the tuned kernel.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable, Optional

from repro import config
from repro.core.molecule import MoleculeRuntime
from repro.core.registry import FunctionDef, WorkProfile
from repro.errors import ReproError
from repro.hardware.machine import build_cpu_dpu_machine
from repro.hardware.pu import PuKind
from repro.loadgen.arrivals import (
    ArrivalPlan,
    BurstyArrivals,
    DiurnalArrivals,
    FunctionMix,
    PoissonArrivals,
    TraceArrivals,
    ZipfSampler,
)
from repro.loadgen.driver import ClosedLoopDriver, OpenLoopDriver
from repro.loadgen.slo import build_report
from repro.obs import Observability
from repro.sandbox.base import FunctionCode, Language
from repro.sim import Simulator
from repro.sim.rng import SeededRng
from repro.workloads.traces import AzureLikeTrace, DiurnalProfile, OnOffProfile

#: Sizing defaults: (rps, duration_s, shards) per mode.
QUICK_DEFAULTS = (40.0, 5.0, 2)
FULL_DEFAULTS = (200.0, 60.0, 4)

#: The ``overload`` scenario multiplies the nominal rps by this factor
#: to push offered load well past the point where the DPU path's cold
#: stampedes turn into congestion collapse.
OVERLOAD_FACTOR = 8.0

#: The ``zipf`` scenario's input-popularity defaults: each function
#: draws its inputs from this many distinct keys with Zipf(s) skew.
#: At s ~ 1.1 the head keys dominate, so a small result cache absorbs
#: most of the offered load — the crossover BENCH_load_cache.json
#: sweeps across skews.
ZIPF_SKEW = 1.1
ZIPF_KEYS_PER_FUNCTION = 32
#: The ``zipf`` scenario multiplies the nominal rps by this factor so
#: the cache-off run visibly queues (and, under the scenario's tight
#: deadline, loses its slowest requests) — the headroom the result
#: cache then wins back.
ZIPF_FACTOR = 4.0

#: The ``fanout`` scenario's job shape: every arrival is one
#: map_reduce job over this many partitions of this many items each,
#: so ``jobs = offered_invocations / FANOUT_PARTITIONS`` keeps the
#: task count comparable to the other scenarios' request count.
FANOUT_PARTITIONS = 64
FANOUT_ITEMS_PER_PARTITION = 4

#: The standard three-function deployment every scenario drives: a hot
#: thumbnailer that may land on CPU or DPU, a DPU-pinned ETL stage and
#: a CPU-only model-inference function.
_FUNCTIONS = (
    ("thumb", 80.0, 3.0, (PuKind.CPU, PuKind.DPU)),
    ("etl", 40.0, 5.0, (PuKind.DPU, PuKind.CPU)),
    ("infer", 150.0, 8.0, (PuKind.CPU,)),
)


def default_mix() -> FunctionMix:
    """The per-function traffic mix over heterogeneous profiles."""
    return FunctionMix.of(
        ("thumb", 0.6),
        ("etl", 0.3, PuKind.DPU),
        ("infer", 0.1, PuKind.CPU),
    )


def scenario_names() -> list[str]:
    """Names of every canned scenario, sorted."""
    return sorted(SCENARIOS)


def _plan_poisson(rng: SeededRng, rps: float, duration_s: float) -> ArrivalPlan:
    return PoissonArrivals(default_mix(), rps, rng=rng).plan(duration_s)


def _plan_burst(rng: SeededRng, rps: float, duration_s: float) -> ArrivalPlan:
    profile = OnOffProfile(on_s=duration_s / 12, off_s=duration_s / 4)
    return BurstyArrivals(
        default_mix(), rps, profile=profile, rng=rng
    ).plan(duration_s)


def _plan_diurnal(rng: SeededRng, rps: float, duration_s: float) -> ArrivalPlan:
    # One compressed "day" per run window.
    profile = DiurnalProfile(period_s=duration_s)
    return DiurnalArrivals(
        default_mix(), rps, profile=profile, rng=rng
    ).plan(duration_s)


def _plan_azure(rng: SeededRng, rps: float, duration_s: float) -> ArrivalPlan:
    trace = AzureLikeTrace(
        functions=[name for name, _imp, _exec, _profiles in _FUNCTIONS],
        peak_rate_per_s=rps,
        diurnal=DiurnalProfile(period_s=duration_s),
        rng=rng,
    )
    return TraceArrivals(
        trace, kinds={"etl": PuKind.DPU, "infer": PuKind.CPU}
    ).plan(duration_s)


def overload_mix() -> FunctionMix:
    """The ``overload`` scenario's DPU-heavy mix: most traffic pinned
    to the machine's scarcest PUs, so saturation hits where it hurts."""
    return FunctionMix.of(
        ("etl", 0.7, PuKind.DPU),
        ("thumb", 0.2),
        ("infer", 0.1, PuKind.CPU),
    )


def _plan_overload(rng: SeededRng, rps: float, duration_s: float) -> ArrivalPlan:
    """Chaos-under-saturation: bursts at OVERLOAD_FACTOR x the nominal
    rate, long on-phases with short gaps — sustained saturation, not
    the spiky profile of the ``burst`` scenario."""
    profile = OnOffProfile(on_s=duration_s / 4, off_s=duration_s / 16)
    return BurstyArrivals(
        overload_mix(), rps * OVERLOAD_FACTOR, profile=profile, rng=rng
    ).plan(duration_s)


def overload_fault_plan(duration_s: float):
    """The canned chaos for the ``overload`` scenario: one DPU crashes
    30% into the run and reboots after another 30%, removing a third of
    the DPU capacity exactly while the machine is already saturated."""
    from repro.faults.plan import FaultKind, FaultPlan, FaultSpec

    return FaultPlan.of(FaultSpec(
        kind=FaultKind.PU_CRASH,
        target="dpu0",
        at_s=0.3 * duration_s,
        reboot_after_s=0.3 * duration_s,
    ))


def attach_zipf_inputs(
    plan: ArrivalPlan,
    rng: SeededRng,
    skew: float = ZIPF_SKEW,
    keys_per_function: int = ZIPF_KEYS_PER_FUNCTION,
) -> ArrivalPlan:
    """Attach Zipf-sampled input keys to a plan's arrivals.

    Each function gets its own sampler off a named fork of ``rng``, so
    key streams are independent of arrival interleaving and fully
    seed-deterministic.  Arrivals that already carry a key keep it.
    Used by the ``zipf`` scenario and by ``--reuse`` runs of the other
    scenarios (whose base plans never consume this fork, keeping their
    cache-off goldens byte-identical).
    """
    universe = tuple(f"k{index:02d}" for index in range(keys_per_function))
    samplers: dict[str, ZipfSampler] = {}
    arrivals = []
    for arrival in plan:
        if arrival.input_key is not None:
            arrivals.append(arrival)
            continue
        sampler = samplers.get(arrival.function)
        if sampler is None:
            sampler = ZipfSampler(
                universe, skew, rng.fork(f"zipf:{arrival.function}")
            )
            samplers[arrival.function] = sampler
        arrivals.append(replace(arrival, input_key=sampler.sample()))
    return ArrivalPlan(arrivals=tuple(arrivals), duration_s=plan.duration_s)


def _plan_zipf(
    rng: SeededRng, rps: float, duration_s: float, skew: float = ZIPF_SKEW
) -> ArrivalPlan:
    """Computation-reuse workload: Poisson arrivals over the standard
    mix at ZIPF_FACTOR x the nominal rate, every arrival carrying a
    Zipf(s)-popular input key."""
    base = PoissonArrivals(
        default_mix(), rps * ZIPF_FACTOR, rng=rng
    ).plan(duration_s)
    return attach_zipf_inputs(base, rng.fork("zipf-keys"), skew=skew)


def _plan_fanout(rng: SeededRng, rps: float, duration_s: float) -> ArrivalPlan:
    """Fan-out jobs at fixed spacing: the nominal request budget
    (``rps * duration_s``) divided into 64-partition map_reduce jobs.
    Spacing (rather than a Poisson draw) keeps the job schedule
    trivially deterministic; the per-job function draw still consumes
    the seeded stream so job mixes differ across seeds."""
    from repro.loadgen.arrivals import Arrival

    count = int(round(rps * duration_s))
    jobs = max(1, -(-count // FANOUT_PARTITIONS))
    spacing = duration_s / jobs
    arrivals = tuple(
        Arrival(
            time_s=round(index * spacing, 9),
            function=rng.choice(("thumb", "etl")),
        )
        for index in range(jobs)
    )
    return ArrivalPlan(arrivals=arrivals, duration_s=duration_s)


def _fanout_map(value):
    """The canned map stage (square each item)."""
    return value * value


def _fanout_reduce(left, right):
    """The canned reduce stage (sum)."""
    return left + right


def fanout_invoke_factory(engine, frontend, seed: int):
    """Build the per-arrival job factory the drivers run: one seeded
    map_reduce job per arrival, dataset derived from (seed, index)."""
    from repro.futures import synthetic_dataset

    items_per_job = FANOUT_PARTITIONS * FANOUT_ITEMS_PER_PARTITION

    def factory(index, arrival):
        items = synthetic_dataset(seed * 1_000_003 + index, items_per_job)
        return engine.run_job(
            _fanout_map, items, _fanout_reduce,
            function=arrival.function, frontend=frontend,
        )

    return factory


#: The per-request deadline of every scenario without a tighter one.
DEFAULT_DEADLINE_S = 30.0


@dataclass(frozen=True)
class Scenario:
    """One canned load scenario: its arrival plan and the defaults
    ``run_load`` resolves its arguments against.  Explicit arguments
    always win over the row."""

    #: ``(rng, rps, duration_s) -> ArrivalPlan``.
    plan: Callable[..., ArrivalPlan]
    deadline_s: float = DEFAULT_DEADLINE_S
    #: Pool-wide keep-alive TTL; None keeps idle instances forever.
    keep_alive_ttl_s: Optional[float] = None
    #: ``duration_s -> FaultPlan`` armed at workload start.
    fault_plan: Optional[Callable[[float], object]] = None
    #: The plan carries Zipf input keys (built at ``zipf_s`` skew), and
    #: functions deploy idempotent even cache-off so the scenario's A/B
    #: pair differs only by the result cache.
    idempotent: bool = False
    #: Every arrival is one map_reduce job over FANOUT_PARTITIONS
    #: partitions.  A job lands that many cold misses on one (function,
    #: PU) within milliseconds and each DPU's executor daemon is a
    #: serial command loop, so the scenario forces the warm path's
    #: single-flight coalescing on.
    fanout: bool = False


#: ``repro load --scenario`` keys into this; it is the only place a
#: scenario's defaults live.
SCENARIOS: dict[str, Scenario] = {
    "poisson": Scenario(_plan_poisson),
    "burst": Scenario(_plan_burst),
    "diurnal": Scenario(_plan_diurnal),
    "azure": Scenario(_plan_azure),
    # Chaos under saturation: a deadline tight enough for queueing to
    # eat, a keep-alive TTL equal to it (long enough to ride out burst
    # gaps, short enough that the initial stampede and the post-crash
    # re-stampede still re-pay their cold starts) and a DPU crash.
    "overload": Scenario(
        _plan_overload, deadline_s=2.0, keep_alive_ttl_s=2.0,
        fault_plan=overload_fault_plan,
    ),
    "fanout": Scenario(_plan_fanout, fanout=True),
    # Tight enough that the cache-off run's queueing tail dies at the
    # deadline: the headroom the A/B comparison measures.
    "zipf": Scenario(_plan_zipf, deadline_s=2.0, idempotent=True),
}


def build_runtime(
    plan: ArrivalPlan,
    seed: int,
    shards: int,
    policy: str = "hash",
    default_deadline_s: float = DEFAULT_DEADLINE_S,
    keep_alive_ttl_s: Optional[float] = None,
    prewarm: bool = False,
    hedge=False,
    hedge_percentile: Optional[float] = None,
    overload=False,
    hedge_budget: Optional[float] = None,
    fanout=None,
    reuse=False,
    cache_mb: Optional[float] = None,
    idempotent: bool = False,
    keepalive_policy: str = "ttl",
):
    """Boot a two-DPU deployment for ``plan`` behind a sharded front end.

    The report reads per-stage percentiles from the samples the
    observability hub streams and no trace, so the hub retains none
    (``max_traces=0``).  ``prewarm`` arms the warm-path engine
    (cold-start coalescing + predictive pre-warm); ``hedge`` arms the
    tail-latency hedging engine (pass True for defaults or a
    HedgeConfig for full control);
    ``hedge_percentile`` overrides its trigger percentile and
    ``hedge_budget`` its clone token-bucket ratio, and either one
    implies ``hedge``.  ``overload`` arms the overload controller (True
    for defaults or an OverloadConfig).  All are off by default so
    existing runs stay byte-identical.  ``reuse`` arms the result-cache
    engine (True for defaults or a ReuseConfig; ``cache_mb`` overrides
    its capacity), ``idempotent`` deploys every function
    cache-eligible, and ``keepalive_policy`` selects the warm-pool
    eviction policy (``"ttl"`` LRU+TTL or ``"gdsf"`` FaasCache-style
    greedy-dual).
    """
    sim = Simulator()
    machine = build_cpu_dpu_machine(sim)
    obs = Observability(sim, max_traces=0)
    hedging = None
    if hedge or hedge_percentile is not None or hedge_budget is not None:
        from repro.hedging import HedgeConfig

        hedging = hedge if isinstance(hedge, HedgeConfig) else HedgeConfig()
        if hedge_percentile is not None:
            hedging = replace(hedging, percentile=hedge_percentile)
        if hedge_budget is not None:
            hedging = replace(hedging, budget_ratio=hedge_budget)
    reuse_cfg = None
    if reuse:
        from repro.reuse import ReuseConfig

        reuse_cfg = reuse if isinstance(reuse, ReuseConfig) else ReuseConfig()
        if cache_mb is not None:
            reuse_cfg = replace(reuse_cfg, capacity_mb=cache_mb)
    runtime = MoleculeRuntime(
        sim,
        machine,
        obs=obs,
        seed=seed,
        default_deadline_s=default_deadline_s,
        keep_alive_ttl_s=keep_alive_ttl_s,
        keepalive_policy=keepalive_policy,
        warmpath=True if prewarm else None,
        hedging=hedging,
        overload=overload or None,
        fanout=fanout,
        reuse=reuse_cfg,
    )
    runtime.start()
    for name, import_ms, exec_ms, profiles in _FUNCTIONS:
        runtime.deploy_now(FunctionDef(
            name=name,
            code=FunctionCode(name, language=Language.PYTHON, import_ms=import_ms),
            work=WorkProfile(warm_exec_ms=exec_ms),
            profiles=profiles,
            idempotent=idempotent,
        ))
    frontend = runtime.sharded_frontend(shards, policy=policy)
    return runtime, frontend


def attach_fault_plan(runtime: MoleculeRuntime, plan) -> None:
    """Arm a fault plan on a booted runtime, shifting ``at_s`` triggers
    so they count from workload start (mirrors ``repro faults``)."""
    from repro.faults.injector import FaultInjector
    from repro.faults.plan import FaultPlan

    base = runtime.sim.now
    shifted = FaultPlan.of(*(
        spec if spec.at_s is None else replace(spec, at_s=spec.at_s + base)
        for spec in plan
    ))
    runtime.fault_plan = shifted
    runtime.injector = FaultInjector(runtime, shifted)
    runtime.injector.arm()


def run_load(
    scenario: str,
    seed: Optional[int] = None,
    rps: Optional[float] = None,
    duration_s: Optional[float] = None,
    shards: Optional[int] = None,
    policy: str = "hash",
    quick: bool = False,
    mode: str = "open",
    concurrency: int = 64,
    keep_alive_ttl_s: Optional[float] = None,
    prewarm: bool = False,
    hedge=False,
    hedge_percentile: Optional[float] = None,
    overload=False,
    hedge_budget: Optional[float] = None,
    deadline_s: Optional[float] = None,
    tasks: Optional[int] = None,
    fanout_gather: bool = True,
    reuse=False,
    zipf_s: Optional[float] = None,
    cache_mb: Optional[float] = None,
    keepalive_policy: str = "ttl",
) -> dict:
    """Run one canned load scenario and return its BENCH_load report.

    Unset arguments take the scenario's defaults from SCENARIOS.
    ``tasks`` (fanout scenario only) targets a partition-task count:
    the job schedule is resized so at least that many partition tasks
    run.  ``fanout_gather=False`` (fanout only) disarms straggler
    speculation — the A/B lever behind BENCH_load_fanout.json's p99
    comparison.  ``reuse`` arms the result cache (the ``zipf``
    scenario's A/B lever; on any other scenario it also Zipf-attaches
    input keys so requests are cacheable), ``zipf_s`` overrides the
    input skew of a keyed plan and ``cache_mb`` the cache capacity.
    An argument that cannot apply to the run raises ReproError rather
    than being ignored.
    """
    try:
        row = SCENARIOS[scenario]
    except KeyError:
        raise ReproError(
            f"unknown scenario {scenario!r}; available: {scenario_names()}"
        ) from None
    if mode not in ("open", "closed"):
        raise ReproError(f"unknown drive mode {mode!r}: open or closed")
    keyed = row.idempotent or bool(reuse)
    if not row.fanout and (tasks is not None or not fanout_gather):
        raise ReproError(
            "tasks and fanout_gather (--tasks, --no-gather) apply only "
            f"to the fanout scenario, not {scenario!r}"
        )
    if cache_mb is not None and not reuse:
        raise ReproError("cache_mb (--cache-mb) needs reuse (--reuse)")
    if zipf_s is not None and not keyed:
        raise ReproError(
            "zipf_s (--zipf-s) needs input keys: the zipf scenario or "
            "reuse (--reuse)"
        )
    seed = seed if seed is not None else config.default_seed()
    d_rps, d_duration, d_shards = QUICK_DEFAULTS if quick else FULL_DEFAULTS
    rps = rps if rps is not None else d_rps
    duration_s = duration_s if duration_s is not None else d_duration
    shards = shards if shards is not None else d_shards
    deadline_s = deadline_s if deadline_s is not None else row.deadline_s
    if keep_alive_ttl_s is None:
        keep_alive_ttl_s = row.keep_alive_ttl_s
    prewarm = prewarm or row.fanout
    fanout_cfg = None
    if row.fanout:
        from repro.futures import FanoutConfig

        if tasks is not None:
            # The plan builder turns the nominal request budget into
            # jobs of FANOUT_PARTITIONS tasks each.
            rps = tasks / duration_s
        fanout_cfg = FanoutConfig(
            partitions=FANOUT_PARTITIONS, speculate=fanout_gather
        )

    skew = zipf_s if zipf_s is not None else ZIPF_SKEW
    rng = SeededRng(seed).fork(f"loadgen:{scenario}")
    if row.idempotent:
        plan = row.plan(rng, rps, duration_s, skew=skew)
    else:
        plan = row.plan(rng, rps, duration_s)
        if reuse:
            # Keys off a fresh fork the base plan never consumes, so
            # the cache-off run of the same scenario stays
            # byte-identical.
            plan = attach_zipf_inputs(
                plan,
                SeededRng(seed).fork(f"loadgen:{scenario}:zipf-keys"),
                skew=skew,
            )

    wall_start = time.perf_counter()
    runtime, frontend = build_runtime(
        plan, seed, shards, policy=policy,
        default_deadline_s=deadline_s,
        keep_alive_ttl_s=keep_alive_ttl_s, prewarm=prewarm,
        hedge=hedge, hedge_percentile=hedge_percentile,
        overload=overload, hedge_budget=hedge_budget,
        fanout=fanout_cfg,
        reuse=reuse, cache_mb=cache_mb,
        idempotent=keyed,
        keepalive_policy=keepalive_policy,
    )
    if row.fault_plan is not None:
        attach_fault_plan(runtime, row.fault_plan(duration_s))
    busy_baseline = {
        pu_id: pu.clock.busy_time
        for pu_id, pu in runtime.machine.pus.items()
    }
    invoke_factory = None
    task_weight = None
    if fanout_cfg is not None:
        invoke_factory = fanout_invoke_factory(
            runtime.fanout, frontend, seed
        )
        # One fanned-out arrival holds FANOUT_PARTITIONS tasks plus
        # the two CPU stage requests in flight.
        task_weight = lambda arrival: FANOUT_PARTITIONS + 2  # noqa: E731
    if mode == "open":
        driver = OpenLoopDriver(
            runtime, plan, frontend, invoke_factory=invoke_factory
        )
    else:
        driver = ClosedLoopDriver(
            runtime, plan, concurrency=concurrency, frontend=frontend,
            invoke_factory=invoke_factory, task_weight=task_weight,
        )
    records = driver.run()
    wall_s = time.perf_counter() - wall_start

    hedging = runtime.hedging.config if runtime.hedging is not None else None
    cache = runtime.reuse.config if runtime.reuse is not None else None
    # A key whose value is None is left out, so a report names only the
    # engines and non-default settings its run used.
    params = {
        "seed": seed, "rps": rps, "duration_s": duration_s,
        "shards": shards, "policy": policy, "mode": mode, "quick": quick,
        "prewarm": prewarm,
        "deadline_s": (
            deadline_s if deadline_s != DEFAULT_DEADLINE_S else None
        ),
        "keep_alive_ttl_s": keep_alive_ttl_s,
        "hedge": True if hedging is not None else None,
        "hedge_percentile": (
            hedging.percentile if hedging is not None else None
        ),
        "hedge_budget": hedge_budget,
        "overload": True if runtime.overload is not None else None,
        "zipf_s": skew if keyed else None,
        "reuse": True if cache is not None else None,
        "cache_mb": cache.capacity_mb if cache is not None else None,
        "keepalive_policy": (
            keepalive_policy if keepalive_policy != "ttl" else None
        ),
        "concurrency": concurrency if mode == "closed" else None,
        "fanout": True if row.fanout else None,
        "fanout_gather": fanout_gather if row.fanout else None,
        "tasks": tasks,
    }
    report = build_report(
        runtime,
        plan,
        records,
        scenario,
        params={key: value for key, value in params.items()
                if value is not None},
        wall_s=wall_s,
        frontend=frontend,
        elapsed_s=driver.elapsed_s,
        busy_baseline=busy_baseline,
    )
    report["seed"] = seed
    if runtime.warmpath is not None:
        report["warmpath"] = runtime.warmpath.snapshot()
    return report
