"""Canned fault scenarios for the ``repro faults`` CLI and CI smoke.

Each scenario builds a small deployment, installs a fault plan, drives
a fixed workload, and returns a JSON-friendly summary.  Every admitted
request must settle exactly once, answered or dead-lettered: the run
raises :class:`~repro.errors.FateImbalance` when the runtime's fate
ledger does not balance.  All scenarios are deterministic — the same
seed produces a byte-identical metrics snapshot.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from repro import config
from repro.errors import ReproError
from repro.faults.plan import FaultKind, FaultPlan, FaultSpec
from repro.hardware.machine import (
    build_cpu_dpu_machine,
    build_full_machine,
)
from repro.hardware.pu import PuKind
from repro.core.molecule import MoleculeRuntime
from repro.core.registry import FunctionDef, WorkProfile
from repro.hardware.fpga import FabricResources, KernelSpec
from repro.sandbox.base import FunctionCode, Language
from repro.sim import Simulator


def scenario_names() -> list[str]:
    """Names of every canned scenario, sorted."""
    return sorted(_SCENARIOS)


def default_plan(name: str) -> FaultPlan:
    """The canned fault plan a scenario runs with by default."""
    try:
        return _SCENARIOS[name][1]()
    except KeyError:
        raise ReproError(
            f"unknown scenario {name!r}; available: {scenario_names()}"
        ) from None


def run_scenario(
    name: str,
    seed: Optional[int] = None,
    plan: Optional[FaultPlan] = None,
) -> dict:
    """Run one canned scenario and return its summary dict.

    ``plan`` overrides the canned fault plan (e.g. loaded from a JSON
    file via ``repro faults --plan``).  In scenario plans, ``at_s``
    offsets are relative to *workload start* (after boot and deploy),
    not to simulation time zero.
    """
    try:
        build, plan_factory = _SCENARIOS[name]
    except KeyError:
        raise ReproError(
            f"unknown scenario {name!r}; available: {scenario_names()}"
        ) from None
    seed = seed if seed is not None else config.default_seed()
    runtime, jobs = build(seed)
    _attach_plan(runtime, plan if plan is not None else plan_factory())
    return _drive(name, seed, runtime, jobs)


def _attach_plan(runtime: MoleculeRuntime, plan: FaultPlan) -> None:
    """Install a fault plan on a booted, deployed runtime, shifting
    ``at_s`` triggers so they count from now (= workload start)."""
    from repro.faults.injector import FaultInjector

    base = runtime.sim.now
    shifted = FaultPlan.of(*(
        spec if spec.at_s is None else replace(spec, at_s=spec.at_s + base)
        for spec in plan
    ))
    runtime.fault_plan = shifted
    runtime.injector = FaultInjector(runtime, shifted)
    runtime.injector.arm()


# -- the driver ------------------------------------------------------------------------


def _drive(name: str, seed: int, runtime: MoleculeRuntime, jobs: list[dict]) -> dict:
    """Submit every job as its own sim process, run to completion, and
    account for every request."""
    answered: list[object] = []
    failures: list[str] = []

    def submitter(job: dict):
        delay = job.pop("start_after_s", 0.0)
        fn_name = job.pop("function")
        if delay:
            yield runtime.sim.timeout(delay)
        try:
            result = yield from runtime.invoke(fn_name, **job)
        except ReproError as exc:
            failures.append(type(exc).__name__)
        else:
            answered.append(result)

    for index, job in enumerate(jobs):
        runtime.sim.spawn(submitter(dict(job)), name=f"driver-{index}")
    runtime.sim.run()
    runtime.check_fates()

    reasons: dict[str, int] = {}
    for entry in runtime.dead_letters.entries():
        reasons[entry.reason] = reasons.get(entry.reason, 0) + 1
    registry = runtime.obs.registry
    summary = {
        "scenario": name,
        "seed": seed,
        "submitted": len(jobs),
        "answered": len(answered),
        "dead_lettered": len(runtime.dead_letters),
        "lost": runtime.fates.in_flight,
        "retried_requests": sum(1 for r in answered if r.retried),
        "degraded_requests": sum(1 for r in answered if r.degraded),
        "terminal_errors": sorted(failures),
        "dead_letter_reasons": reasons,
        "retries_total": registry.get("repro_retries_total").total(),
        "deadline_exceeded_total": registry.get(
            "repro_deadline_exceeded_total"
        ).total(),
        "faults_injected": (
            runtime.injector.summary() if runtime.injector else []
        ),
        "breaker_states": runtime.health.states(),
        "snapshot": runtime.metrics_snapshot(),
    }
    return summary


# -- scenario builders -----------------------------------------------------------------


def _plan_fpga_degrade() -> FaultPlan:
    return FaultPlan.of(
        FaultSpec(FaultKind.PU_CRASH, "fpga0", after_requests=4),
    )


def _build_fpga_degrade(seed: int):
    """An FPGA function loses its only FPGA mid-workload and degrades
    to the CPU profile; nothing is lost."""
    sim = Simulator()
    machine = build_full_machine(sim, num_dpus=0, num_fpgas=1, num_gpus=0)
    runtime = MoleculeRuntime(
        sim,
        machine,
        seed=seed,
        default_deadline_s=30.0,
    )
    runtime.start()
    fn = FunctionDef(
        name="vadd",
        code=FunctionCode(
            "vadd",
            language=Language.PYTHON,
            kernel=KernelSpec("vadd", FabricResources(luts=4000), exec_time_s=1e-3),
        ),
        work=WorkProfile(warm_exec_ms=10.0, fpga_exec_ms=1.0),
        profiles=(PuKind.FPGA, PuKind.CPU),
    )
    runtime.deploy_now(fn)
    jobs = [
        {"function": "vadd", "payload_bytes": 4096, "start_after_s": 0.005 * i}
        for i in range(12)
    ]
    return runtime, jobs


def _plan_dpu_crash() -> FaultPlan:
    return FaultPlan.of(
        FaultSpec(
            FaultKind.PU_CRASH, "dpu0", at_s=0.05, reboot_after_s=0.5
        ),
    )


def _build_dpu_crash(seed: int):
    """One of two DPUs crashes and later reboots; in-flight requests
    retry onto the surviving DPU."""
    sim = Simulator()
    machine = build_cpu_dpu_machine(sim, num_dpus=2)
    runtime = MoleculeRuntime(
        sim,
        machine,
        seed=seed,
        default_deadline_s=30.0,
    )
    runtime.start()
    fn = FunctionDef(
        name="resize",
        code=FunctionCode("resize", language=Language.PYTHON, import_ms=20.0),
        work=WorkProfile(warm_exec_ms=8.0),
        profiles=(PuKind.DPU, PuKind.CPU),
    )
    runtime.deploy_now(fn)
    jobs = [
        {"function": "resize", "kind": PuKind.DPU, "start_after_s": 0.01 * i}
        for i in range(16)
    ]
    return runtime, jobs


def _plan_flaky_nipc() -> FaultPlan:
    # Triggered on first admission (not at t=0) so deployment's own
    # nIPC traffic is unaffected; only request traffic sees drops.
    return FaultPlan.of(
        FaultSpec(
            FaultKind.FIFO_DROP, "*", after_requests=1, probability=0.25
        ),
    )


def _build_flaky_nipc(seed: int):
    """XPU-FIFO messages are dropped at random; hung requests are
    rescued by the gateway deadline and dead-lettered, never lost."""
    sim = Simulator()
    machine = build_cpu_dpu_machine(sim, num_dpus=1)
    runtime = MoleculeRuntime(
        sim,
        machine,
        seed=seed,
        default_deadline_s=2.0,
    )
    runtime.start()
    fn = FunctionDef(
        name="etl",
        code=FunctionCode("etl", language=Language.PYTHON, import_ms=10.0),
        work=WorkProfile(warm_exec_ms=5.0),
        profiles=(PuKind.DPU,),
    )
    runtime.deploy_now(fn)
    jobs = [
        {
            "function": "etl",
            "kind": PuKind.DPU,
            "force_cold": True,
            "start_after_s": 0.02 * i,
        }
        for i in range(10)
    ]
    return runtime, jobs


_SCENARIOS = {
    "fpga-degrade": (_build_fpga_degrade, _plan_fpga_degrade),
    "dpu-crash": (_build_dpu_crash, _plan_dpu_crash),
    "flaky-nipc": (_build_flaky_nipc, _plan_flaky_nipc),
}
