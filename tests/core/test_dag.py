"""Tests for function chains and direct-connect DAG communication."""

import pytest

from repro import (
    Chain,
    ChainStage,
    FunctionCode,
    FunctionDef,
    Language,
    MoleculeRuntime,
    PuKind,
    WorkProfile,
)
from repro.errors import SchedulingError, WorkloadError


def chain_fn(name):
    return FunctionDef(
        name=name,
        code=FunctionCode(name, language=Language.NODEJS),
        work=WorkProfile(warm_exec_ms=3.78, dpu_slowdown=2.0),
        profiles=(PuKind.CPU, PuKind.DPU),
    )


@pytest.fixture
def runtime():
    molecule = MoleculeRuntime.create(num_dpus=2)
    for i in range(5):
        molecule.deploy_now(chain_fn(f"f{i}"))
    return molecule


ALEXA = Chain("alexa", tuple(ChainStage(f"f{i}", 1024) for i in range(5)))


def test_chain_requires_stages():
    with pytest.raises(WorkloadError):
        Chain("empty", ())


def test_chain_edges():
    assert ALEXA.edges == [("f0", "f1"), ("f1", "f2"), ("f2", "f3"), ("f3", "f4")]
    assert ALEXA.function_names == [f"f{i}" for i in range(5)]


def test_run_chain_requires_prepared_instances(runtime):
    cpu = runtime.machine.host_cpu
    with pytest.raises(SchedulingError, match="no warm instance"):
        runtime.run(runtime.run_chain(ALEXA, [cpu] * 5))


def test_run_chain_placement_mismatch_rejected(runtime):
    cpu = runtime.machine.host_cpu
    with pytest.raises(SchedulingError):
        runtime.run(runtime.run_chain(ALEXA, [cpu] * 3))


def test_cpu_only_chain_edges_around_200us(runtime):
    # Fig. 12a: Molecule same-PU edges land around 0.2ms.
    cpu = runtime.machine.host_cpu
    placements = [cpu] * 5
    runtime.run(runtime.dag.prepare(ALEXA, placements))
    result = runtime.run(runtime.run_chain(ALEXA, placements))
    assert len(result.edge_latencies_s) == 4
    for edge in result.edge_latencies_s:
        assert 0.1e-3 < edge < 0.4e-3


def test_dpu_only_chain_edges_slower_but_sub_ms(runtime):
    # Fig. 12b: DPU-DPU edges are higher but still well under 1ms.
    dpu = runtime.machine.pu(1)
    placements = [dpu] * 5
    runtime.run(runtime.dag.prepare(ALEXA, placements))
    result = runtime.run(runtime.run_chain(ALEXA, placements))
    cpu_like = 0.19e-3
    for edge in result.edge_latencies_s:
        assert cpu_like < edge < 1.0e-3


def test_cross_pu_chain_uses_nipc(runtime):
    # Fig. 12c/d: cross-PU edges pay nIPC, still ~0.3ms.
    cpu, dpu = runtime.machine.host_cpu, runtime.machine.pu(1)
    placements = [cpu, dpu, cpu, dpu, cpu]
    runtime.run(runtime.dag.prepare(ALEXA, placements))
    result = runtime.run(runtime.run_chain(ALEXA, placements))
    for edge in result.edge_latencies_s:
        assert 0.15e-3 < edge < 0.6e-3


def test_chain_total_includes_exec_and_comm(runtime):
    cpu = runtime.machine.host_cpu
    placements = [cpu] * 5
    runtime.run(runtime.dag.prepare(ALEXA, placements))
    result = runtime.run(runtime.run_chain(ALEXA, placements))
    assert result.exec_s == pytest.approx(5 * 3.78e-3, rel=0.01)
    assert result.comm_s > 0
    assert result.total_s == pytest.approx(result.exec_s + result.comm_s)


def test_chain_reuses_instances_across_requests(runtime):
    cpu = runtime.machine.host_cpu
    placements = [cpu] * 5
    runtime.run(runtime.dag.prepare(ALEXA, placements))
    cold_boots_before = runtime.runc_on(0).cforks
    runtime.run(runtime.run_chain(ALEXA, placements))
    runtime.run(runtime.run_chain(ALEXA, placements))
    assert runtime.runc_on(0).cforks == cold_boots_before  # no new forks


def test_chain_placements_recorded(runtime):
    cpu, dpu = runtime.machine.host_cpu, runtime.machine.pu(1)
    placements = [cpu, dpu, cpu, dpu, cpu]
    runtime.run(runtime.dag.prepare(ALEXA, placements))
    result = runtime.run(runtime.run_chain(ALEXA, placements))
    assert result.placements == ["cpu0", "dpu0", "cpu0", "dpu0", "cpu0"]


def test_single_stage_chain_runs(runtime):
    # A one-stage chain is a one-node DAG: no edges, and the stage
    # replies to the gateway itself.
    cpu = runtime.machine.host_cpu
    solo = Chain("solo", (ChainStage("f0", 512),))
    runtime.run(runtime.dag.prepare(solo, [cpu]))
    result = runtime.run(runtime.run_chain(solo, [cpu]))
    assert result.edge_latencies_s == []
    assert result.exec_s == pytest.approx(3.78e-3, rel=0.01)
    assert result.comm_s > 0


def test_chain_runs_as_a_path_graph():
    dag = ALEXA.as_dag()
    assert dag.nodes == ALEXA.function_names
    assert [(e.src, e.dst) for e in dag.edges] == ALEXA.edges
    assert dag.entry == "f0" and dag.sinks == ["f4"]
    assert dag.reply_bytes == ALEXA.stages[-1].payload_out_bytes


def test_chain_repeating_a_function_is_rejected(runtime):
    # A path graph names nodes by function, so a repeat is a cycle.
    cpu = runtime.machine.host_cpu
    loop = Chain("loop", (ChainStage("f0"), ChainStage("f1"), ChainStage("f0")))
    with pytest.raises(WorkloadError, match="cycle"):
        runtime.run(runtime.dag.prepare(loop, [cpu] * 3))


def test_fpga_chain_shm_beats_copying():
    # Fig. 13: data retention (shm) ~2x better at 5 chained functions.
    from repro.core import run_fpga_chain
    from repro.hardware import (
        FabricResources,
        KernelSpec,
        build_cpu_fpga_machine,
    )
    from repro.sandbox import FunctionCode as FC, RunfRuntime
    from repro.sim import Simulator

    def build(mode):
        sim = Simulator()
        machine = build_cpu_fpga_machine(sim, num_fpgas=1)
        runf = RunfRuntime(sim, machine.fpga_device(machine.pu(1)))
        entries = [
            (
                f"s{i}",
                FC(
                    f"vec{i}",
                    kernel=KernelSpec(
                        f"vec{i}", FabricResources(luts=1000), exec_time_s=50e-6
                    ),
                ),
            )
            for i in range(5)
        ]
        def setup(sim):
            yield from runf.create_vector(entries)
            for sid, _ in entries:
                yield from runf.start(sid)
        p = sim.spawn(setup(sim))
        sim.run()
        run_proc = sim.spawn(
            run_fpga_chain(runf, [sid for sid, _ in entries], mode=mode)
        )
        sim.run()
        return run_proc.value

    copying = build("copying")
    shm = build("shm")
    assert 1.5 < copying / shm < 2.5


def test_fpga_chain_invalid_mode_rejected():
    from repro.core import run_fpga_chain
    from repro.hardware import build_cpu_fpga_machine
    from repro.sandbox import RunfRuntime
    from repro.sim import Simulator

    sim = Simulator()
    machine = build_cpu_fpga_machine(sim, num_fpgas=1)
    runf = RunfRuntime(sim, machine.fpga_device(machine.pu(1)))
    with pytest.raises(WorkloadError):
        proc = sim.spawn(run_fpga_chain(runf, ["x"], mode="bogus"))
        sim.run()


def test_fpga_chain_shm_requires_retention():
    from repro.core import run_fpga_chain
    from repro.hardware import build_cpu_fpga_machine
    from repro.sandbox import RunfRuntime
    from repro.sim import Simulator

    sim = Simulator()
    machine = build_cpu_fpga_machine(sim, num_fpgas=1, data_retention=False)
    runf = RunfRuntime(sim, machine.fpga_device(machine.pu(1)))
    with pytest.raises(WorkloadError):
        proc = sim.spawn(run_fpga_chain(runf, ["x"], mode="shm"))
        sim.run()
