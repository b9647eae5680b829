"""Tests for placement, admission control and density."""

import pytest

from repro import FunctionCode, FunctionDef, Language, PuKind, WorkProfile
from repro.core.scheduler import Scheduler
from repro.errors import SchedulingError
from repro.hardware import build_cpu_dpu_machine, build_full_machine
from repro.sim import Simulator


def make(num_dpus=2):
    sim = Simulator()
    machine = build_cpu_dpu_machine(sim, num_dpus=num_dpus)
    return machine, Scheduler(machine)


def fn(name="f", profiles=(PuKind.CPU,), memory_mb=60.0):
    return FunctionDef(
        name=name,
        code=FunctionCode(name, language=Language.PYTHON, memory_mb=memory_mb),
        work=WorkProfile(warm_exec_ms=10.0),
        profiles=profiles,
    )


def test_place_reserves_memory():
    machine, scheduler = make()
    f = fn()
    pu = scheduler.place(f)
    assert pu.kind is PuKind.CPU
    assert pu.dram_used_mb == 60.0
    scheduler.release(f, pu)
    assert pu.dram_used_mb == 0.0


def test_place_respects_profile_order():
    machine, scheduler = make()
    f = fn(profiles=(PuKind.DPU, PuKind.CPU))
    assert scheduler.place(f).kind is PuKind.DPU


def test_place_spills_to_next_pu_when_full():
    machine, scheduler = make(num_dpus=2)
    f = fn(profiles=(PuKind.DPU,))
    dpu0_cap = int(machine.pu(1).dram_free_mb // 60)
    placements = [scheduler.place(f) for _ in range(dpu0_cap + 1)]
    assert placements[-1].pu_id == 2  # spilled to the second DPU


def test_place_explicit_kind_must_be_in_profiles():
    machine, scheduler = make()
    with pytest.raises(SchedulingError):
        scheduler.place(fn(profiles=(PuKind.CPU,)), kind=PuKind.DPU)


def test_place_skips_excluded_pu():
    machine, scheduler = make(num_dpus=2)
    f = fn(profiles=(PuKind.DPU, PuKind.CPU))
    dpu0, dpu1 = machine.pu(1), machine.pu(2)
    assert scheduler.place(f, exclude=dpu0) is dpu1
    assert dpu0.dram_used_mb == 0.0
    # Excluding the only candidate leaves nowhere to place.
    machine, scheduler = make(num_dpus=1)
    with pytest.raises(SchedulingError):
        scheduler.place(fn(profiles=(PuKind.DPU,)), exclude=machine.pu(1))


def test_exhaustion_raises_scheduling_error():
    machine, scheduler = make(num_dpus=0)
    f = fn(memory_mb=30000.0)
    scheduler.place(f)
    scheduler.place(f)
    with pytest.raises(SchedulingError):
        scheduler.place(f)


def test_fig2a_density_1000_1256_1512():
    # Fig. 2a: 1000 instances on CPU, +256 per Bluefield DPU.
    f = fn(profiles=(PuKind.CPU, PuKind.DPU))
    for num_dpus, expected in [(0, 1000), (1, 1256), (2, 1512)]:
        machine, scheduler = make(num_dpus=num_dpus)
        density = scheduler.max_density(f, [PuKind.CPU, PuKind.DPU])
        assert density == expected


def test_accelerator_placement_skips_dram_admission():
    sim = Simulator()
    machine = build_full_machine(sim, num_dpus=1, num_fpgas=1, num_gpus=0)
    scheduler = Scheduler(machine)
    from repro.hardware import FabricResources, KernelSpec

    f = FunctionDef(
        name="k",
        code=FunctionCode(
            "k", kernel=KernelSpec("k", FabricResources(luts=1), exec_time_s=1e-3)
        ),
        work=WorkProfile(warm_exec_ms=1.0, fpga_exec_ms=0.1),
        profiles=(PuKind.FPGA,),
    )
    pu = scheduler.place(f)
    assert pu.kind is PuKind.FPGA
