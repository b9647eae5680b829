"""The load smoke table: every ``repro load`` config CI runs and checks.

Each row runs two sides, its flags plus ``off`` and its flags plus
``on``; with an ``output`` the lever-on side goes through ``repro
load``, which writes that report.  A row with neither ``on`` nor
``off`` is a determinism row: both sides must report byte-identically
(minus host and wall time).  Hard checks on both sides fail the run;
the A/B comparisons only warn, as the strict ones live in the engines'
tests.  ``python -m repro.loadgen.smoke``, run from any directory,
writes the reports under that directory's ``load-smoke/``, prints one
GitHub ``::error``/``::warning`` annotation (titled with the row's
name) per failed check and exits 1 on any hard failure.
"""

from __future__ import annotations

import json
import operator
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Union

from repro.loadgen.scenarios import run_load
from repro.overload import OverloadConfig
from repro.reuse import ReuseConfig

#: Where ``python -m repro.loadgen.smoke`` writes the rows' reports.
OUTDIR = Path("load-smoke")

#: The repository root, where the checked-in reports a :class:`Warn`
#: names as its baseline live.
REPO_ROOT = Path(__file__).resolve().parents[3]

_P99 = "latency.end_to_end.p99_ms"


@dataclass(frozen=True)
class Warn:
    """A warn-only comparison of one report value (a dotted path)."""

    text: str
    metric: str
    #: ``(on, reference) -> True`` when the warning fires.
    fires: Callable[[float, float], bool]
    #: The reference: the off side, the checked-in report at this
    #: path (relative to the repository root), or a fixed bar.
    baseline: Union[None, str, float] = None


@dataclass(frozen=True)
class Row:
    name: str
    #: ``repro load`` flags both sides share.
    flags: str
    on: str = ""
    off: str = ""
    #: Report file the lever-on side writes through ``repro load``.
    output: Optional[str] = None
    warns: tuple[Warn, ...] = ()
    #: Engine configs no flag can express, passed to both sides
    #: in-process (such a row has no ``output``).
    configs: dict = field(default_factory=dict)


ROWS: tuple[Row, ...] = (
    # The warm path must cut the bursty scenario's cold-start rate.
    Row("warm-path", "--scenario burst --quick --keepalive 1.0",
        on="--prewarm", output="BENCH_load_prewarm.json",
        warns=(Warn("prewarm did not reduce the cold-start rate",
                    "load.cold_start_rate", operator.ge),)),
    # --rps 320 overloads the quick burst so the cold stampede queues:
    # the tail regime hedging exists for.  Hedging must cut the p999 at
    # under 5% mean-cost increase.
    Row("hedging", "--scenario burst --quick --rps 320",
        on="--hedge", output="BENCH_load_hedge.json",
        warns=(Warn("hedging did not cut the burst p999",
                    "latency.end_to_end.p999_ms", operator.ge),
               Warn("hedged mean cost exceeds the 5% bar",
                    "cost.mean_cost_per_answered",
                    lambda on, off: on > off * 1.05))),
    # Chaos under saturation (8x load, 2 s deadline, mid-run DPU
    # crash): the controller must answer more at a lower p99.
    Row("overload", "--scenario overload --quick",
        on="--overload", output="BENCH_load_overload.json",
        warns=(Warn("protected run did not answer more", "load.answered",
                    operator.le),
               Warn("protected p99 among answered did not drop", _P99,
                    operator.ge))),
    # Straggler-aware gather is on by default; the off side disarms it.
    Row("fanout", "--scenario fanout --quick",
        off="--no-gather", output="BENCH_load_fanout.json",
        warns=(Warn("straggler gather did not cut the gather-stage p99",
                    "fanout.stages.gather.p99_ms", operator.ge),)),
    Row("reuse", "--scenario zipf --quick --seed 1234",
        on="--reuse", output="BENCH_load_cache_smoke.json",
        warns=(Warn("hit rate fell below the 50% bar", "reuse.hit_rate",
                    operator.lt, baseline=0.5),
               Warn("the cache did not cut the p99", _P99, operator.ge),
               Warn("hit rate regressed >10% vs the checked-in report",
                    "reuse.hit_rate", lambda on, base: on < 0.9 * base,
                    baseline="BENCH_load_cache.json"),
               Warn("p99 regressed >20% vs the checked-in report", _P99,
                    lambda on, base: on > 1.2 * base,
                    baseline="BENCH_load_cache.json"))),
    # Determinism rows.  A load replay retains no request trace, so
    # the 60 s burst (~3.4k requests) differs from the quick one only
    # in length: it checks the streamed stage samples and metric
    # series for determinism over a longer run.  The chaos mix
    # (overload control, hedging and the warm path with the scenario's
    # mid-run DPU crash) is the engine mix whose deadline races and
    # orphaned hedge primaries are easiest to perturb; the all-engines
    # row adds the result cache on a pinched gate (the
    # tests/loadgen/test_golden_all_engines.py replay).
    Row("burst quick", "--scenario burst --quick --seed 11",
        output="BENCH_load.json"),
    Row("burst 60 s", "--scenario burst --seed 11 --rps 200 --duration 60"),
    Row("hedged burst",
        "--scenario burst --quick --seed 11 --rps 320 --hedge"),
    Row("chaos mix", "--scenario overload --quick --seed 17 --overload "
        "--hedge --prewarm"),
    Row("fanout seed 17", "--scenario fanout --quick --seed 17"),
    Row("zipf + reuse", "--scenario zipf --quick --seed 17 --reuse"),
    Row("all engines",
        "--scenario overload --quick --seed 1234 --hedge --prewarm",
        configs=dict(overload=OverloadConfig(
            initial_limit=2, min_limit=1, max_limit=4, queue_capacity=8,
            throttle_hedges=False), reuse=ReuseConfig(ttl_s=0.05))),
)


def _run(flags: str, configs: dict) -> dict:
    from repro.cli import build_parser, load_kwargs

    args = build_parser().parse_args(["load", *flags.split()])
    return run_load(**{**load_kwargs(args), **configs})


def run_row(row: Row, outdir: Path = OUTDIR) -> tuple[dict, dict]:
    """Both sides of ``row``: ``(off, on)`` reports."""
    from repro.cli import main

    off = _run(f"{row.flags} {row.off}", row.configs)
    if row.output is None:
        return off, _run(f"{row.flags} {row.on}", row.configs)
    path = Path(outdir) / row.output
    path.parent.mkdir(parents=True, exist_ok=True)
    argv = ["load", *row.flags.split(), *row.on.split(), "--output", str(path)]
    if main(argv) != 0:
        raise SystemExit(f"{row.name}: repro load {' '.join(argv[1:])} failed")
    return off, json.loads(path.read_text())


def hard_failures(report: dict) -> list[str]:
    """Every hard check ``report`` fails, as messages."""
    load = report["load"]
    failures = []
    if load["lost"] != 0:
        failures.append(f"lost {load['lost']} requests")
    failures.extend(
        f"{name} books do not balance (conserved: false)"
        for name, section in report.items()
        if isinstance(section, dict) and section.get("conserved") is False
    )
    fates = report["fates"]
    settled = sum(
        sum(fates[fate].values()) for fate in ("answered", "shed", "dead")
    )
    if settled != fates["admitted"]:
        failures.append(f"three-fate conservation violated ({settled} of "
                        f"{fates['admitted']} admitted requests settled)")
    reuse = report.get("reuse")
    if reuse is not None:
        unreasoned = reuse["served_stale"] - sum(
            reuse["stale_by_reason"].values()
        )
        if unreasoned:
            failures.append(f"{unreasoned} stale serves carry no "
                            "pressure/deadline/shed reason")
        if reuse["answered_stale"] != reuse["served_stale"]:
            failures.append("driver-observed stale count disagrees with "
                            "the engine's")
    return failures


def _canonical(report: dict) -> str:
    return json.dumps(
        {k: v for k, v in report.items() if k not in ("host", "wall_s")},
        sort_keys=True,
    )


def _value(report: dict, metric: str) -> float:
    for key in metric.split("."):
        report = report[key]
    return report


def check(row: Row, off: dict, on: dict) -> tuple[list[str], list[str]]:
    """``(errors, warnings)`` for one row's two reports."""
    errors = [
        f"{side} side: {failure}"
        for side, report in (("off", off), ("on", on))
        for failure in hard_failures(report)
    ]
    if not (row.on or row.off) and _canonical(off) != _canonical(on):
        errors.append("same-seed reports differ")
    warnings = []
    for warn in row.warns:
        now = _value(on, warn.metric)
        if warn.baseline is None:
            then = _value(off, warn.metric)
        elif isinstance(warn.baseline, str):
            then = _value(json.loads((REPO_ROOT / warn.baseline).read_text()),
                          warn.metric)
        else:
            then = warn.baseline
        if warn.fires(now, then):
            warnings.append(f"{warn.text} ({warn.metric}: {then:.4g} -> "
                            f"{now:.4g})")
    return errors, warnings


def main() -> int:
    failed = False
    for row in ROWS:
        off, on = run_row(row)
        errors, warnings = check(row, off, on)
        print(f"{row.name}: answered {off['load']['answered']} off, "
              f"{on['load']['answered']} on, "
              f"of {on['load']['offered']} offered")
        for message in warnings:
            print(f"::warning title={row.name}::{message}")
        for message in errors:
            print(f"::error title={row.name}::{message}")
        failed = failed or bool(errors)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
