"""Layer-attributed replay benchmark for ``repro load``.

Run from the repository root::

    python3 perfbench/run.py --workload steady --seed 1 --seconds 20 --trace 0

Each run replays one workload (``spec.WORKLOADS``) through
``repro.loadgen.run_load`` at the given seed, checks every replay, and
prints its metrics by name and unit, then one JSON object as the last
line: ``{"correct", "attempted", "failed", "metrics"}``.

* ``--trace 0`` reports the end-to-end metrics.  Set-up is timed in
  fresh interpreters (median); replays repeat for ``--seconds`` after
  one warm-up replay, and ``replay_rps`` is the median of their rates
  scaled to a reference host speed (``calibration.py``).
* ``--trace 1`` reports the per-layer metrics.  Untraced and traced
  replays alternate for ``--seconds``; the traced ones run with every
  layer's entry points wrapped (``layers.py``).

``attempted`` and ``failed`` count replays (and the paper-claim check);
a replay that fails a check is reported, not timed.  The exit code is
0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import calibration
from spec import END_TO_END, PER_LAYER, WORKLOADS, Workload, moves

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 7


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def source_dir() -> Path:
    """``src`` of the checkout the benchmark runs in."""
    src = Path.cwd() / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"no repro package under {src}: run from the repository root"
        )
    return src


def measure_setup(src: Path, workload: Workload, seed: int) -> dict:
    """Median set-up times over fresh interpreters, scaled to the
    reference host speed."""
    samples: dict[str, list[float]] = {
        "setup_s": [], "setup.import_s": [], "setup.plan_s": [],
        "setup.boot_s": [],
    }
    command = [sys.executable, str(HERE / "setup_probe.py"), str(src),
               str(seed), json.dumps(workload.params)]
    before = calibration.measure()
    for _ in range(SETUP_SAMPLES):
        spawned = perf_counter()
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=120, check=False)
        if done.returncode != 0:
            raise SystemExit(f"set-up probe failed:\n{done.stderr}")
        marks = json.loads(done.stdout.strip().splitlines()[-1])
        samples["setup_s"].append(marks["ready"] - spawned)
        samples["setup.import_s"].append(marks["plan_start"] - spawned)
        samples["setup.plan_s"].append(marks["boot_start"] - marks["plan_start"])
        samples["setup.boot_s"].append(marks["ready"] - marks["boot_start"])
    speed = (before + calibration.measure()) / 2
    return {name: calibration.scale_setup(statistics.median(values), speed)
            for name, values in samples.items()}


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    src = source_dir()
    workload = WORKLOADS[args.workload]
    setup = measure_setup(src, workload, workload.seeds(args.seed)[0])
    sys.path.insert(0, str(src))
    import replay  # imports repro from the checkout's src

    run = replay.Run(workload, args.seed)
    if args.trace:
        metrics = replay.traced_metrics(run, args.seconds)
        metrics.update(
            (name, value) for name, value in setup.items() if name != "setup_s"
        )
        wanted = PER_LAYER
    else:
        metrics = replay.untraced_metrics(run, args.seconds)
        metrics["setup_s"] = setup["setup_s"]
        wanted = END_TO_END
    for seed, sim in sorted(run.sim.items()):
        print(f"seed {seed}: p50 {sim['sim_p50_ms']:.3f} sim_ms, "
              f"p{workload.tail_percentile:g} {sim['sim_tail_ms']:.3f} sim_ms "
              f"over {sim['answered_records']} answered")
    run.validate_claims()
    for problem in run.problems:
        print(f"CHECK FAILED: {problem}")
    missing = [m.name for m in wanted if m.name not in metrics]
    if missing:
        print(f"CHECK FAILED: no value for {missing}")
    result = {
        m.name: {"value": metrics[m.name], "unit": m.unit}
        for m in wanted if m.name in metrics
    }
    for name, entry in result.items():
        print(f"{name:<34} {entry['value']:>16.6f} {entry['unit']:<9} "
              + (f"moves {moves(name)}" if args.trace else ""))
    correct = not run.problems and not missing
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": result,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
