"""Unit tests for executors (nIPC command channel) and the gateway."""

import pytest

from repro import (
    FunctionCode,
    FunctionDef,
    Language,
    MoleculeRuntime,
    PuKind,
    WorkProfile,
)
from repro.core.executor import Command
from repro.core.gateway import ApiGateway
from repro.errors import XpuError
from repro.sim import Simulator


def fn(name="f"):
    return FunctionDef(
        name=name,
        code=FunctionCode(name, language=Language.PYTHON, memory_mb=60),
        work=WorkProfile(warm_exec_ms=5.0),
        profiles=(PuKind.CPU, PuKind.DPU),
    )


# -- gateway ------------------------------------------------------------------


def test_gateway_admission_charges_overhead_and_counts():
    sim = Simulator()
    gateway = ApiGateway(sim, overhead_ms=0.5, default_deadline_s=2.0)
    assert gateway.overhead_s == pytest.approx(0.5e-3)

    def scenario(sim):
        ids = []
        for _ in range(2):
            began = sim.now
            yield sim.timeout(gateway.overhead_s)
            ids.append(gateway.stamp(began))
        return ids

    proc = sim.spawn(scenario(sim))
    sim.run()
    assert proc.value == [1, 2]
    assert gateway.requests_admitted == 2
    assert sim.now == pytest.approx(2 * 0.5e-3)
    assert gateway.deadline_for(2) == pytest.approx(2.0 + 2 * 0.5e-3)


def test_invoker_admission_pays_the_gateway_overhead(runtime):
    """The invoker yields the gateway's overhead before stamping: the
    request is admitted exactly ``overhead_s`` after it arrived, and
    the admit span and histogram say so."""
    before = runtime.sim.now
    result = runtime.invoke_now("f")
    gateway = runtime.gateway
    assert result.admitted_s - before == pytest.approx(gateway.overhead_s)
    assert gateway.requests_admitted == 1
    admit = runtime.obs.metrics.gateway_admit_seconds.child()
    assert admit.count == 1
    assert admit.sum == pytest.approx(gateway.overhead_s)


# -- executors ------------------------------------------------------------------


@pytest.fixture
def runtime():
    molecule = MoleculeRuntime.create(num_dpus=1)
    molecule.deploy_now(fn())
    return molecule


def test_executor_handles_commands_in_order(runtime):
    client = runtime.executor_client(1)
    results = []

    def scenario(sim):
        for i in range(3):
            sandbox = yield from client.call(
                "cfork", sandbox_id=f"s{i}", code=runtime.registry.get("f").code
            )
            results.append(sandbox.sandbox_id)

    runtime.run(scenario(runtime.sim))
    assert results == ["s0", "s1", "s2"]
    assert runtime._executors[1].commands_handled >= 3


def test_executor_prepare_containers_command(runtime):
    client = runtime.executor_client(1)
    count = runtime.run(client.call("prepare_containers", count=3))
    assert count >= 3
    assert runtime.runc_on(1).pooled_containers >= 3


def test_executor_cold_start_and_delete_commands(runtime):
    client = runtime.executor_client(1)
    code = runtime.registry.get("f").code
    sandbox = runtime.run(client.call("cold_start", sandbox_id="cs", code=code))
    assert sandbox.state.value == "running"
    deleted = runtime.run(client.call("delete", sandbox_id="cs"))
    assert deleted.state.value == "deleted"


def test_executor_unknown_verb_raises(runtime):
    client = runtime.executor_client(1)
    with pytest.raises(XpuError, match="unknown command verb"):
        runtime.run(client.call("frobnicate"))


def test_unexpected_reply_rejected(runtime):
    client = runtime.executor_client(1)
    with pytest.raises(XpuError, match="unexpected executor reply"):
        client.resolve(999, None)


def test_commands_travel_over_real_nipc_channel(runtime):
    # The command FIFO is homed on the executor's PU, the reply FIFO on
    # the host; both carried real messages.
    client = runtime.executor_client(1)
    cmd_fifo = client.cmd_handle.fifo
    assert cmd_fifo.home_pu.pu_id == 1
    before = cmd_fifo.messages_written
    runtime.run(client.call("prepare_containers", count=1))
    assert cmd_fifo.messages_written == before + 1


def test_command_dataclass_shape():
    command = Command(request_id=1, verb="cfork", args={"x": 1})
    assert command.request_id == 1
    assert command.args["x"] == 1
