"""Command-line interface.

Usage::

    python -m repro list                 # available experiments
    python -m repro run fig2a fig8      # run selected experiments
    python -m repro run all             # run everything
    python -m repro report              # emit EXPERIMENTS.md to stdout
    python -m repro metrics              # demo run + metrics exposition
    python -m repro faults --check       # fault scenarios, fate-ledger gate
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable

from repro import config
from repro.analysis import ablations
from repro.analysis import experiments as ex
from repro.analysis.report import format_table


def _print_fig2a():
    result = ex.fig2a_density()
    print(format_table(
        ["configuration", "measured", "paper"],
        [(k, result.measured[k], result.paper[k]) for k in result.paper],
    ))


def _print_fig2b():
    result = ex.fig2b_fpga_matrix()
    print(format_table(
        ["kernel", "cpu (us)", "fpga (us)", "speedup"],
        [(r.name, f"{r.cpu_us:.0f}", f"{r.fpga_us:.0f}", f"{r.speedup:.2f}x")
         for r in result.rows],
    ))


def _print_fig8():
    result = ex.fig8_nipc()
    sizes = sorted(next(iter(result.series.values())))
    print(format_table(
        ["series \\ bytes", *map(str, sizes)],
        [(name, *(f"{result.series[name][s]:.1f}" for s in sizes))
         for name in result.series],
    ))


def _print_fig9():
    result = ex.fig9_commercial()
    print(format_table(
        ["system", "startup (ms)", "comm (ms)"],
        [(r.system, f"{r.startup_ms:.2f}", f"{r.comm_ms:.3f}") for r in result.rows],
    ))


def _print_fig10():
    result = ex.fig10_startup()
    print(format_table(
        ["pu", "language", "baseline (ms)", "cfork-local (ms)", "cfork-XPU (ms)"],
        [(r.pu, r.language, f"{r.baseline_local_ms:.1f}",
          f"{r.cfork_local_ms:.1f}", f"{r.cfork_xpu_ms:.1f}") for r in result.rows],
    ))
    print(format_table(
        ["fpga configuration", "latency (s)"],
        [(r.configuration, f"{r.seconds:.3f}") for r in result.fpga_rows],
    ))


def _print_fig11():
    result = ex.fig11a_cfork_breakdown()
    print(format_table(
        ["stage", "measured (ms)", "paper (ms)"],
        [(k, f"{result.measured_ms[k]:.2f}", f"{v:.2f}")
         for k, v in result.paper_ms.items()],
    ))
    memory = ex.fig11bc_memory()
    print(format_table(
        ["instances", "base RSS", "mol RSS", "base PSS", "mol PSS"],
        [(n, f"{memory.baseline_rss[i]:.1f}", f"{memory.molecule_rss[i]:.1f}",
          f"{memory.baseline_pss[i]:.1f}", f"{memory.molecule_pss[i]:.1f}")
         for i, n in enumerate(memory.instance_counts)],
    ))


def _print_fig12():
    result = ex.fig12_dag_comm()
    for case in result.cases:
        print(f"-- {case.case} --")
        print(format_table(
            ["edge", "baseline (ms)", "molecule (ms)", "speedup"],
            [(e, f"{b:.2f}", f"{m:.3f}", f"{b / m:.1f}x")
             for e, b, m in zip(case.edge_names, case.baseline_ms, case.molecule_ms)],
        ))


def _print_fig13():
    result = ex.fig13_fpga_chain()
    print(format_table(
        ["chain length", "copying (us)", "shm (us)"],
        [(n, f"{c:.0f}", f"{s:.0f}")
         for n, c, s in zip(result.lengths, result.copying_us, result.shm_us)],
    ))


def _print_fig14(variant: str) -> Callable[[], None]:
    def printer():
        result = ex.fig14_functionbench(variant)
        print(format_table(
            ["workload", "baseline (ms)", "molecule (ms)", "speedup"],
            [(r.workload, f"{r.baseline_ms:.1f}", f"{r.molecule_ms:.1f}",
              f"{r.speedup:.2f}x") for r in result.rows],
        ))
    return printer


def _print_fig14e():
    result = ex.fig14e_chains()
    print(format_table(
        ["application", "case", "baseline (ms)", "molecule (ms)", "speedup"],
        [(r.application, r.case, f"{r.baseline_ms:.1f}", f"{r.molecule_ms:.1f}",
          f"{r.speedup:.2f}x") for r in result.rows],
    ))


def _print_fig14f():
    result = ex.fig14f_gzip()
    print(format_table(
        ["file (MB)", "cpu (ms)", "fpga (ms)"],
        [(s, f"{c:.1f}", f"{f:.1f}")
         for s, c, f in zip(result.inputs, result.cpu_ms, result.fpga_ms)],
    ))


def _print_fig14g():
    result = ex.fig14g_aml()
    print(format_table(
        ["entries", "cpu (ms)", "fpga (ms)", "speedup"],
        [(int(n), f"{c:.2f}", f"{f:.2f}", f"{c / f:.1f}x")
         for n, c, f in zip(result.inputs, result.cpu_ms, result.fpga_ms)],
    ))


def _print_fig14h():
    result = ex.fig14h_matrix()
    print(f"matrix-comput: cpu {result.cpu_ms[0]:.2f}ms "
          f"fpga {result.fpga_ms[0]:.2f}ms ({result.speedup_at(0):.2f}x)")


def _print_table4():
    result = ex.table4_fpga_resources()
    print(format_table(
        ["resource", "F1 total", "wrapper", "fraction"],
        [(k, f"{result.totals[k]:,.0f}", f"{result.wrapper[k]:,.0f}",
          f"{result.fractions[k]:.1%}") for k in ("luts", "regs", "brams", "dsps")],
    ))


def _print_table5():
    matrix = ex.table5_generality()
    print(format_table(
        ["pu", "kind", "v.sandbox", "communication", "model"],
        [(name, row["kind"], row["vectorized_sandbox"], row["communication"],
          row["programming_model"]) for name, row in matrix.items()],
    ))


def _print_fig15():
    print(format_table(
        ["system", "startup", "same-PU comm", "cross-PU comm"],
        [(p.system, p.startup_class, p.same_pu_comm, p.cross_pu_comm)
         for p in ex.fig15_design_space()],
    ))


def _print_ablations():
    print(format_table(
        ["pu", "transport", "round trip (us)"],
        [(r.pu, r.transport, f"{r.round_trip_us:.1f}")
         for r in ablations.xpucall_transport_ablation()],
    ))
    sync = ablations.sync_strategy_ablation()
    print(f"sync: static 0us, immediate {sync.immediate_us:.1f}us, lazy 0us")
    bus = ablations.dag_direct_vs_bus()
    print(f"dag: direct {bus.direct_total_ms:.2f}ms vs bus "
          f"{bus.bus_total_ms:.2f}ms ({bus.improvement:.2f}x)")


EXPERIMENTS: dict[str, Callable[[], None]] = {
    "fig2a": _print_fig2a,
    "fig2b": _print_fig2b,
    "fig8": _print_fig8,
    "fig9": _print_fig9,
    "fig10": _print_fig10,
    "fig11": _print_fig11,
    "fig12": _print_fig12,
    "fig13": _print_fig13,
    "fig14a": _print_fig14("cold_cpu"),
    "fig14b": _print_fig14("warm_cpu"),
    "fig14c": _print_fig14("cold_bf1"),
    "fig14d": _print_fig14("cold_bf2"),
    "fig14e": _print_fig14e,
    "fig14f": _print_fig14f,
    "fig14g": _print_fig14g,
    "fig14h": _print_fig14h,
    "table4": _print_table4,
    "table5": _print_table5,
    "fig15": _print_fig15,
    "ablations": _print_ablations,
}


def _plot_fig2a():
    from repro.analysis.charts import bar_chart

    result = ex.fig2a_density()
    print(bar_chart(result.measured, unit=" instances"))


def _plot_fig8():
    from repro.analysis.charts import line_chart

    result = ex.fig8_nipc()
    sizes = sorted(next(iter(result.series.values())))
    series = {name: [result.series[name][s] for s in sizes] for name in result.series}
    print(line_chart(series, x_labels=[f"{sizes[0]}B", f"{sizes[-1]}B"]))


def _plot_fig9():
    from repro.analysis.charts import bar_chart

    result = ex.fig9_commercial()
    print("startup latency (ms, log scale):")
    print(bar_chart({r.system: r.startup_ms for r in result.rows}, log_scale=True))
    print("\ncommunication latency (ms, log scale):")
    print(bar_chart({r.system: r.comm_ms for r in result.rows}, log_scale=True))


def _plot_fig13():
    from repro.analysis.charts import line_chart

    result = ex.fig13_fpga_chain()
    print(line_chart(
        {"copying (us)": result.copying_us, "shm (us)": result.shm_us},
        x_labels=[result.lengths[0], result.lengths[-1]],
    ))


def _plot_fig14f():
    from repro.analysis.charts import line_chart

    result = ex.fig14f_gzip()
    print(line_chart(
        {"cpu (ms)": result.cpu_ms, "fpga (ms)": result.fpga_ms},
        x_labels=[f"{result.inputs[0]}MB", f"{result.inputs[-1]}MB"],
    ))


def _plot_fig14e():
    from repro.analysis.charts import speedup_chart

    result = ex.fig14e_chains()
    print(speedup_chart({
        f"{r.application}/{r.case}": (r.baseline_ms, r.molecule_ms)
        for r in result.rows
    }))


PLOTS: dict[str, Callable[[], None]] = {
    "fig2a": _plot_fig2a,
    "fig8": _plot_fig8,
    "fig9": _plot_fig9,
    "fig13": _plot_fig13,
    "fig14e": _plot_fig14e,
    "fig14f": _plot_fig14f,
}


def _run_metrics_demo():
    """A quickstart-style run exercising cold, fork and warm paths."""
    from repro import (
        FunctionCode,
        FunctionDef,
        Language,
        MoleculeRuntime,
        PuKind,
        WorkProfile,
    )

    molecule = MoleculeRuntime.create(num_dpus=1)
    hello = FunctionDef(
        name="hello",
        code=FunctionCode("hello", language=Language.PYTHON, import_ms=120.0),
        work=WorkProfile(warm_exec_ms=15.0),
        profiles=(PuKind.CPU, PuKind.DPU),
    )
    molecule.deploy_now(hello)  # boots cfork templates -> fork starts
    molecule.invoke_now("hello", kind=PuKind.CPU)   # fork start
    molecule.invoke_now("hello", kind=PuKind.CPU)   # warm start
    molecule.invoke_now("hello", kind=PuKind.DPU)   # fork on the DPU
    bare = FunctionDef(
        name="bare",
        code=FunctionCode("bare", language=Language.NODEJS, import_ms=200.0),
        work=WorkProfile(warm_exec_ms=8.0),
    )
    molecule.registry.register(bare)  # no deploy: no template to fork
    molecule.invoke_now("bare")       # baseline cold start
    return molecule


def _print_metrics(as_json: bool) -> None:
    import json

    from repro.analysis.report import (
        format_phase_breakdown,
        format_reliability,
        format_start_kinds,
    )

    molecule = _run_metrics_demo()
    if as_json:
        print(json.dumps(molecule.metrics_snapshot(), indent=2, sort_keys=True))
        return
    snapshot = molecule.metrics_snapshot()
    print("== start kinds ==")
    print(format_start_kinds(snapshot))
    print()
    print("== lifecycle phases ==")
    print(format_phase_breakdown(snapshot))
    print()
    print("== reliability ==")
    print(format_reliability(snapshot))
    print()
    print("== exposition ==")
    print(molecule.metrics_exposition(), end="")


def _print_faults(args) -> int:
    """``repro faults``: run fault scenarios and report the accounting."""
    import json

    from repro.analysis.report import format_reliability, format_table
    from repro.errors import FateImbalance
    from repro.faults import FaultPlan, run_scenario, scenario_names

    names = args.scenarios or scenario_names()
    unknown = [name for name in names if name not in scenario_names()]
    if unknown:
        print(f"unknown scenario(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(scenario_names())}", file=sys.stderr)
        return 2
    plan = None
    if args.plan:
        with open(args.plan, encoding="utf-8") as handle:
            plan = FaultPlan.from_json(handle.read())
    unbalanced = 0
    for name in names:
        try:
            summary = run_scenario(name, seed=args.seed, plan=plan)
        except FateImbalance as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            unbalanced += 1
            continue
        if args.json:
            summary.pop("snapshot")
            print(json.dumps(summary, indent=2, sort_keys=True, default=str))
            continue
        print(f"=== {name} (seed {summary['seed']}) ===")
        print(format_table(
            ["submitted", "answered", "dead-lettered", "lost",
             "retried", "degraded"],
            [(summary["submitted"], summary["answered"],
              summary["dead_lettered"], summary["lost"],
              summary["retried_requests"], summary["degraded_requests"])],
        ))
        for fault in summary["faults_injected"]:
            fired_at = fault.pop("at_s")
            print(f"fault @ {fired_at:.3f}s: {fault}")
        print()
        print(format_reliability(summary["snapshot"]))
        print()
    if args.check and unbalanced:
        print(f"UNBALANCED FATES in {unbalanced} scenario(s)", file=sys.stderr)
        return 1
    return 0


def _compare(report: dict, args, harness) -> int:
    """``--compare``: diff ``report`` against the prior one with the
    ``harness`` module's comparison; exit 1 on a regression only with
    ``--fail-on-regression``."""
    import json

    if args.compare is None:
        return 0
    with open(args.compare, encoding="utf-8") as handle:
        prior = json.load(handle)
    threshold = (
        args.threshold if args.threshold is not None
        else harness.DEFAULT_REGRESSION_THRESHOLD
    )
    regressions = harness.compare_reports(report, prior, threshold)
    print(harness.format_comparison(regressions, threshold))
    return 1 if regressions and args.fail_on_regression else 0


def _print_perf(args) -> int:
    """``repro perf``: run wall-clock benchmarks, write BENCH_perf.json."""
    import json
    import os

    from repro import perf

    try:
        report = perf.run_benchmarks(
            quick=args.quick,
            scenarios=args.scenarios or None,
            profile=args.profile,
        )
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        print(f"available: {', '.join(perf.SCENARIOS)}", file=sys.stderr)
        return 2
    # Kernel counter snapshots go to a sidecar so BENCH_perf.json's
    # schema (and its diff-friendly churn) stays unchanged.
    profiles = report.pop("profiles", None)
    perf.write_report(report, args.output)
    print(perf.format_report(report))
    print(f"\nwrote {args.output}")
    if profiles is not None:
        root, ext = os.path.splitext(args.output)
        sidecar = f"{root}_profile{ext or '.json'}"
        with open(sidecar, "w", encoding="utf-8") as handle:
            json.dump(profiles, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print()
        print(perf.format_profile(profiles))
        print(f"\nwrote {sidecar}")
    return _compare(report, args, perf.bench)


def load_kwargs(args) -> dict:
    """The ``run_load`` keywords in parsed ``repro load`` flags: each
    option's dest is the keyword it sets."""
    import inspect

    from repro.loadgen import run_load

    return {
        name: getattr(args, name)
        for name in inspect.signature(run_load).parameters
    }


def _print_load(args) -> int:
    """``repro load``: run a load scenario, write BENCH_load.json."""
    import json

    from repro import loadgen
    from repro.errors import ReproError

    try:
        report = loadgen.run_load(**load_kwargs(args))
    except ReproError as exc:
        print(exc, file=sys.stderr)
        return 2
    loadgen.write_report(report, args.output)
    if args.json:
        stripped = dict(report)
        stripped.pop("host")
        print(json.dumps(stripped, indent=2, sort_keys=True))
    else:
        print(loadgen.format_report(report))
    print(f"\nwrote {args.output}")
    return _compare(report, args, loadgen.slo)


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Molecule reproduction: regenerate the paper's evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")
    run = sub.add_parser("run", help="run one or more experiments")
    run.add_argument("experiments", nargs="+",
                     help="experiment names, or 'all'")
    plot = sub.add_parser("plot", help="ASCII-plot a figure's shape")
    plot.add_argument("figures", nargs="+",
                      help=f"one of: {', '.join(PLOTS)}")
    sub.add_parser("report", help="emit the full EXPERIMENTS.md to stdout")
    sub.add_parser("validate", help="check every paper claim (conformance)")
    metrics = sub.add_parser(
        "metrics",
        help="run a small demo workload and dump its metrics",
    )
    metrics.add_argument("--json", action="store_true",
                         help="emit the JSON snapshot instead of tables")
    faults = sub.add_parser(
        "faults",
        help="run deterministic fault-injection scenarios",
    )
    faults.add_argument("scenarios", nargs="*",
                        help="scenario names (default: all)")
    faults.add_argument("--seed", type=int, default=None,
                        help="simulation seed (default: config default)")
    faults.add_argument("--plan", metavar="FILE", default=None,
                        help="JSON fault plan overriding the canned one")
    faults.add_argument("--json", action="store_true",
                        help="emit JSON summaries instead of tables")
    faults.add_argument("--check", action="store_true",
                        help="exit 1 if any scenario's request fates do "
                             "not balance")
    perf = sub.add_parser(
        "perf",
        help="wall-clock benchmarks of the simulator's hot paths",
    )
    perf.add_argument("scenarios", nargs="*",
                      help="scenario names (default: all)")
    perf.add_argument("--quick", action="store_true",
                      help="smaller workloads for CI smoke runs")
    perf.add_argument("--output", metavar="FILE", default="BENCH_perf.json",
                      help="report path (default: BENCH_perf.json)")
    perf.add_argument("--profile", action="store_true",
                      help="also write the kernel counter snapshot "
                           "(batch sizes, slab hit rates) to "
                           "<output>_profile.json")
    perf.add_argument("--compare", metavar="FILE", default=None,
                      help="prior BENCH_perf.json to diff rates against")
    perf.add_argument("--threshold", type=float, default=None,
                      help="relative rate drop counted as a regression "
                           "(default: 0.20)")
    perf.add_argument("--fail-on-regression", action="store_true",
                      help="exit 1 when --compare finds a regression "
                           "(default: warn only)")
    load = sub.add_parser(
        "load",
        help="trace-driven load generation over sharded gateways "
             "(SLO percentiles -> BENCH_load.json)",
    )
    load.add_argument("--scenario", default="poisson",
                      help="arrival scenario: poisson, burst, diurnal, "
                           "azure, overload, fanout, zipf "
                           "(default: poisson)")
    load.add_argument("--rps", type=float, default=None,
                      help="peak arrival rate per second "
                           "(default: 200, or 40 with --quick)")
    load.add_argument("--duration", type=float, default=None,
                      dest="duration_s", metavar="SECONDS",
                      help="plan duration in simulated seconds "
                           "(default: 60, or 5 with --quick)")
    load.add_argument("--shards", type=int, default=None,
                      help="gateway shard count (default: 4, or 2 with "
                           "--quick)")
    load.add_argument("--route", default="hash", dest="policy",
                      choices=["hash", "least-outstanding", "locality"],
                      help="shard routing policy (default: hash)")
    load.add_argument("--mode", default="open", choices=["open", "closed"],
                      help="open-loop (admit at trace time) or "
                           "closed-loop driving (default: open)")
    load.add_argument("--concurrency", type=int, default=64,
                      help="worker count for --mode closed (default: 64)")
    load.add_argument("--seed", type=int, default=None,
                      help="simulation seed (default: config default)")
    load.add_argument("--quick", action="store_true",
                      help="smaller run for CI smoke")
    load.add_argument("--prewarm", action="store_true",
                      help="arm the warm-path engine: cold-start "
                           "coalescing, predictive pre-warm and "
                           "adaptive keep-alive TTLs")
    load.add_argument("--keepalive", type=float, default=None,
                      metavar="SECONDS", dest="keep_alive_ttl_s",
                      help="pool-wide keep-alive TTL for idle instances "
                           "(default: keep forever)")
    load.add_argument("--keepalive-policy", default="ttl",
                      choices=("ttl", "gdsf"), dest="keepalive_policy",
                      help="warm-pool eviction policy: ttl (LRU + TTL, "
                           "the default) or gdsf (FaasCache-style "
                           "greedy-dual keep-alive)")
    load.add_argument("--hedge", action="store_true",
                      help="arm the tail-latency hedging engine: clone "
                           "straggling requests onto a second PU and "
                           "take the first answer")
    load.add_argument("--hedge-percentile", type=float, default=None,
                      metavar="PCT",
                      help="latency percentile that triggers a hedge "
                           "clone (default: 95; implies --hedge)")
    load.add_argument("--hedge-budget", type=float, default=None,
                      metavar="RATIO",
                      help="global hedge token bucket: at most RATIO "
                           "clones per answered request (implies "
                           "--hedge)")
    load.add_argument("--overload", action="store_true",
                      help="arm the overload controller: adaptive "
                           "per-shard admission, deadline-aware "
                           "shedding and brownout degradation")
    load.add_argument("--tasks", type=int, default=None,
                      metavar="N",
                      help="fanout scenario: target at least N partition "
                           "tasks (resizes the job schedule)")
    load.add_argument("--no-gather", action="store_false",
                      dest="fanout_gather",
                      help="fanout scenario: disarm straggler-aware "
                           "gather (speculative re-execution)")
    load.add_argument("--reuse", action="store_true",
                      help="arm the result-cache engine: deterministic "
                           "memoization with single-flight de-dup and "
                           "stale-under-pressure serving (the zipf "
                           "scenario's A/B lever)")
    load.add_argument("--zipf-s", type=float, default=None, dest="zipf_s",
                      help="zipf or --reuse: input-popularity skew "
                           "(default: 1.1)")
    load.add_argument("--cache-mb", type=float, default=None,
                      dest="cache_mb",
                      help="--reuse: result-cache capacity in MB "
                           "(default: 8)")
    load.add_argument("--deadline", type=float, default=None,
                      metavar="SECONDS", dest="deadline_s",
                      help="per-request deadline (default: 30, or 2 "
                           "for the overload and zipf scenarios)")
    load.add_argument("--json", action="store_true",
                      help="emit the JSON report (minus host info) "
                           "instead of the summary")
    load.add_argument("--output", metavar="FILE", default="BENCH_load.json",
                      help="report path (default: BENCH_load.json)")
    load.add_argument("--compare", metavar="FILE", default=None,
                      help="prior BENCH_load.json to diff SLOs against")
    load.add_argument("--threshold", type=float, default=None,
                      help="relative SLO change counted as a regression "
                           "(default: 0.20)")
    load.add_argument("--fail-on-regression", action="store_true",
                      help="exit 1 when --compare finds a regression "
                           "(default: warn only)")
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "list":
        for name in EXPERIMENTS:
            print(name)
        return 0
    if args.command == "report":
        from repro.analysis.writeup import generate

        print(generate(), end="")
        return 0
    if args.command == "metrics":
        _print_metrics(args.json)
        return 0
    if args.command == "faults":
        return _print_faults(args)
    if args.command == "perf":
        return _print_perf(args)
    if args.command == "load":
        return _print_load(args)
    if args.command == "validate":
        from repro.analysis.validation import scorecard, validate_all

        results = validate_all()
        print(scorecard(results))
        return 0 if all(r.passed for r in results) else 1
    if args.command == "plot":
        unknown = [name for name in args.figures if name not in PLOTS]
        if unknown:
            print(f"unknown figure(s): {', '.join(unknown)}", file=sys.stderr)
            print(f"available: {', '.join(PLOTS)}", file=sys.stderr)
            return 2
        for name in args.figures:
            print(f"=== {name} ===")
            PLOTS[name]()
            print()
        return 0
    names = list(EXPERIMENTS) if args.experiments == ["all"] else args.experiments
    unknown = [name for name in names if name not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(EXPERIMENTS)}", file=sys.stderr)
        return 2
    for name in names:
        print(f"=== {name} ===")
        EXPERIMENTS[name]()
        print()
    return 0
