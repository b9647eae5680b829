"""Replays of a workload through ``repro.loadgen.run_load``, checked
and timed.

A replay goes through exactly the path ``repro load`` takes.  Three
hooks observe it without changing it: ``build_runtime`` hands back the
runtime, ``OpenLoopDriver.run`` marks the first arrival (and opens the
layer ledger of a traced replay), and the fan-out job factory records
each job's reduced value.  The replay window runs from the first
arrival through the finished report.
"""

from __future__ import annotations

import gc
import itertools
import resource
import statistics
from dataclasses import dataclass
from time import perf_counter
from typing import Optional

from repro.analysis.validation import validate_all
from repro.loadgen import scenarios
from repro.loadgen.driver import OpenLoopDriver

import calibration
import metrics
from layers import LAYERS, UNATTRIBUTED, Ledger, install
from spec import Workload

#: Paper claims ``validate_all`` checks; all must pass.
PAPER_CLAIMS = 19
MIN_TIMED_REPLAYS = 3


@dataclass
class Replay:
    wall_s: float
    report: dict
    records: list
    runtime: object
    kernel_before: dict
    kernel_after: dict
    job_values: dict
    #: (self_s, calls, resumes) per layer, for a traced replay.
    layers: Optional[tuple[dict, dict, dict]] = None
    #: False when the replay failed a check; it is then not timed.
    ok: bool = True


def run_replay(workload: Workload, seed: int,
               ledger: Optional[Ledger] = None) -> Replay:
    """Replay ``workload`` at ``seed``; a ledger makes it a traced run
    (its wrappers must already be installed)."""
    seen: dict = {}
    job_values: dict[int, object] = {}
    build_runtime = scenarios.build_runtime
    driver_run = OpenLoopDriver.__dict__["run"]
    invoke_factory = scenarios.fanout_invoke_factory

    def hooked_build_runtime(*args, **kwargs):
        runtime, frontend = build_runtime(*args, **kwargs)
        seen["runtime"] = runtime
        return runtime, frontend

    def hooked_run(driver):
        seen["kernel_before"] = driver.runtime.sim.kernel_profile()
        seen["start"] = start = perf_counter()
        if ledger is not None:
            ledger.start(start)
        seen["records"] = driver_run(driver)
        return seen["records"]

    def hooked_factory(engine, frontend, factory_seed):
        factory = invoke_factory(engine, frontend, factory_seed)

        def recording(index, arrival):
            result = yield from factory(index, arrival)
            job_values[index] = result.value
            return result

        return recording

    scenarios.build_runtime = hooked_build_runtime
    OpenLoopDriver.run = hooked_run
    scenarios.fanout_invoke_factory = hooked_factory
    try:
        report = scenarios.run_load(seed=seed, **workload.params)
        end = perf_counter()
        layers = ledger.stop(end) if ledger is not None else None
    finally:
        scenarios.build_runtime = build_runtime
        OpenLoopDriver.run = driver_run
        scenarios.fanout_invoke_factory = invoke_factory
    runtime = seen["runtime"]
    return Replay(
        wall_s=end - seen["start"],
        report=report,
        records=seen["records"],
        runtime=runtime,
        kernel_before=seen["kernel_before"],
        kernel_after=runtime.sim.kernel_profile(),
        job_values=job_values,
        layers=layers,
    )


class Run:
    """Replays of one workload at the seeds one ``--seed`` derives, with
    every failed check.

    The simulated figures are combined over ``seeds_per_run`` derived
    seeds, so they do not hinge on a single arrival plan; host figures
    come from every timed replay, whichever seed it used.
    """

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seeds = workload.seeds(seed)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        #: Derived seed -> digest and simulated figures of its first replay.
        self.digests: dict[int, str] = {}
        self.sim: dict[int, dict] = {}
        # The first replay pays lazy imports and cache fills, so it is
        # not timed.
        first = self.replay(self.seeds[0])
        self.sim_layers = (
            metrics.simulated_layer_metrics(first) if first is not None else {}
        )

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)

    def replay(self, seed: int,
               ledger: Optional[Ledger] = None) -> Optional[Replay]:
        """One checked replay, or None when it raised; every replay at a
        seed must reproduce the simulated outcomes of the first."""
        gc.collect()
        self.attempted += 1
        try:
            replay = run_replay(self.workload, seed, ledger)
        except Exception as exc:  # noqa: BLE001 - reported as a failed replay
            self.fail(f"seed {seed}: replay raised {exc!r}")
            return None
        found = metrics.violations(self.workload, replay, seed)
        digest = metrics.digest(self.workload, replay)
        if seed not in self.digests:
            self.digests[seed] = digest
            self.sim[seed] = metrics.sim_metrics(self.workload, replay)
        elif digest != self.digests[seed]:
            found.append(
                f"simulated outcomes at seed {seed} differ from its first "
                "replay" + (" (traced replay)" if ledger is not None else "")
            )
        if found:
            self.fail(f"seed {seed}: " + "; ".join(found))
        replay.ok = not found
        return replay

    def validate_claims(self) -> None:
        results = validate_all()
        failing = [r.claim_id for r in results if not r.passed]
        if failing or len(results) < PAPER_CLAIMS:
            self.fail(f"paper claims: {len(results)} checked, failing {failing}")


def untraced_metrics(run: Run, seconds: float) -> dict:
    """Replays repeated for ``seconds`` (and until every derived seed
    ran), each timed between two calibrations, plus the combined
    simulated figures."""
    raw, scaled = [], []
    deadline = perf_counter() + seconds
    before = calibration.measure()
    # Round-robin over the derived seeds, starting after the warm-up's.
    for seed in itertools.cycle(run.seeds[1:] + run.seeds[:1]):
        done = (len(raw) >= MIN_TIMED_REPLAYS
                and len(run.sim) == len(run.seeds))
        if (done and perf_counter() >= deadline) or run.failed > MIN_TIMED_REPLAYS:
            break
        replay = run.replay(seed)
        after = calibration.measure()
        if replay is not None and replay.ok:
            rate = metrics.fates(replay)["admitted"] / replay.wall_s
            raw.append(rate)
            scaled.append(calibration.scale(rate, (before + after) / 2))
        before = after
        del replay  # so two replays never share the peak
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(f"timed replays: {len(raw)}; requests per host second: "
          + " ".join(f"{rate:.0f}" for rate in raw))
    print("scaled to the reference host speed: "
          + " ".join(f"{rate:.0f}" for rate in scaled))
    result = metrics.combine(list(run.sim.values())) if run.sim else {}
    if scaled:
        result["replay_rps"] = statistics.median(scaled)
    result["peak_rss_mib"] = peak_kib / 1024
    return result


def traced_metrics(run: Run, seconds: float) -> dict:
    """Per-layer figures at the first derived seed: untraced and traced
    replays alternate for ``seconds``; host figures are medians over
    the traced ones."""
    workload = run.workload
    seed = run.seeds[0]
    plain_walls: list[float] = []
    traced: list[tuple[dict, dict, dict, float]] = []
    deadline = perf_counter() + seconds
    while not traced or perf_counter() < deadline:
        if run.failed > MIN_TIMED_REPLAYS:
            break
        plain = run.replay(seed)
        if plain is not None and plain.ok:
            plain_walls.append(plain.wall_s)
        del plain
        ledger = Ledger()
        installation = install(ledger)
        try:
            replay = run.replay(seed, ledger)
        finally:
            installation.remove()
        if replay is None or not replay.ok:
            continue
        (self_s, calls, resumes), wall_s = replay.layers, replay.wall_s
        del replay
        fired = {layer for layer in LAYERS if calls[layer] + resumes[layer]}
        silent = sorted(set(workload.stresses) - fired)
        stray = sorted(set(workload.bypasses) & fired)
        if silent or stray:
            run.fail(f"wrappers never fired for {silent}; "
                     f"fired for bypassed layers {stray}")
            continue
        traced.append((self_s, calls, resumes, wall_s))
    if not traced or not plain_walls:
        return {}

    def median_of(select):
        return statistics.median(select(sample) for sample in traced)

    wall = median_of(lambda s: s[3])
    result: dict[str, float] = {}
    for layer in LAYERS:
        result[f"{layer}.calls"] = median_of(lambda s: s[1][layer])
        result[f"{layer}.self_s"] = median_of(lambda s: s[0][layer])
    simulated = run.sim_layers
    result.update(simulated)
    result.update({
        "unattributed_s": median_of(lambda s: s[0][UNATTRIBUTED]),
        "unattributed_share": median_of(lambda s: s[0][UNATTRIBUTED] / s[3]),
        "trace_overhead_ratio": wall / statistics.median(plain_walls),
        "sim.self_share": median_of(lambda s: s[0]["sim"] / s[3]),
        "sim.host_us_per_event": (
            result["sim.self_s"] / simulated["sim.events"] * 1e6
        ),
    })
    _print_layer_table(traced, wall)
    return result


def _print_layer_table(traced, wall: float) -> None:
    self_s, calls, resumes, span = sorted(traced, key=lambda s: s[3])[
        len(traced) // 2
    ]
    print(f"traced replays: {len(traced)}; median traced wall {wall:.3f} s; "
          f"the table's self times sum to {sum(self_s.values()):.3f} s of "
          f"its {span:.3f} s window (equal by construction)")
    print(f"{'layer':<18} {'calls':>9} {'resumes':>9} {'self_s':>9} "
          f"{'share':>7}")
    for layer in sorted(self_s, key=self_s.get, reverse=True):
        print(f"{layer:<18} {calls[layer]:>9} {resumes[layer]:>9} "
              f"{self_s[layer]:>9.4f} {self_s[layer] / span:>7.1%}")
