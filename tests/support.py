"""Shared helpers for the test suite."""

from __future__ import annotations

from repro.hardware import build_cpu_dpu_machine, build_full_machine
from repro.multios import OsInstance
from repro.sim import Simulator
from repro.xpu import ShimCluster


class Testbed:
    """A wired-up machine: PUs + OSes + XPU-Shim cluster."""

    def __init__(self, sim, machine, cluster, oses):
        self.sim = sim
        self.machine = machine
        self.cluster = cluster
        self.oses = oses  # pu_id -> OsInstance

    def run(self, gen):
        """Spawn a generator, run to completion, return its value."""
        proc = self.sim.spawn(gen)
        self.sim.run()
        return proc.value


#: Seed pinned by the golden-seed determinism test; the checked-in
#: snapshot at ``tests/sim/data/golden_seed_snapshot.json`` was taken
#: at this seed with the pre-fast-path kernel.
GOLDEN_SEED = 20260806


def golden_seed_snapshot(seed: int = GOLDEN_SEED) -> dict:
    """A canned deterministic workload whose metrics snapshot must stay
    byte-identical across kernel changes.

    Combines two fault scenarios (crash/retry/deadline races exercise
    interrupts, ``any_of`` conditions and seeded jitter) with a plain
    cold/fork/warm invocation mix, so the snapshot covers every event
    path the kernel fast paths touch.
    """
    from repro import (
        FunctionCode,
        FunctionDef,
        Language,
        MoleculeRuntime,
        PuKind,
        WorkProfile,
    )
    from repro.faults.scenarios import run_scenario

    crash = run_scenario("dpu-crash", seed=seed)
    nipc = run_scenario("flaky-nipc", seed=seed)

    molecule = MoleculeRuntime.create(num_dpus=1, seed=seed)
    hello = FunctionDef(
        name="hello",
        code=FunctionCode("hello", language=Language.PYTHON, import_ms=120.0),
        work=WorkProfile(warm_exec_ms=15.0),
        profiles=(PuKind.CPU, PuKind.DPU),
    )
    molecule.deploy_now(hello)
    molecule.invoke_now("hello", kind=PuKind.CPU)
    molecule.invoke_now("hello", kind=PuKind.CPU)
    molecule.invoke_now("hello", kind=PuKind.DPU)
    molecule.invoke_now("hello", force_cold=True)

    return {
        "seed": seed,
        "dpu_crash": crash["snapshot"],
        "flaky_nipc": nipc["snapshot"],
        "warm_cold_mix": molecule.metrics_snapshot(),
    }


def build_testbed(num_dpus: int = 1, dpu_model: str = "bf1", full: bool = False) -> Testbed:
    """A CPU+DPU (optionally +FPGA/GPU) machine with shims installed."""
    sim = Simulator()
    if full:
        machine = build_full_machine(sim, num_dpus=num_dpus, dpu_model=dpu_model)
    else:
        machine = build_cpu_dpu_machine(sim, num_dpus=num_dpus, dpu_model=dpu_model)
    cluster = ShimCluster(sim, machine)
    oses = {}
    for pu in machine.general_purpose_pus():
        os_instance = OsInstance(sim, pu)
        oses[pu.pu_id] = os_instance
        cluster.install(pu, os_instance)
    host_shim = cluster.shim_on(machine.host_cpu.pu_id)
    for pu in machine.pus.values():
        if not pu.is_general_purpose:
            cluster.install_virtual(pu, host_shim)
    return Testbed(sim, machine, cluster, oses)


def settled(runtime, fate: str = "answered") -> int:
    """How many requests ``runtime`` settled as ``fate``, once its fate
    ledger has passed the end-of-run check."""
    runtime.check_fates()
    return sum(getattr(runtime.fates, fate).values())
