"""Function chains (serverless DAGs) and nIPC-based DAG calls (§4.3).

Molecule's DAG communication is *direct-connect*: every function
instance creates a ``self_fifo`` named by its globally-unique UUID and
blocks reading it; Molecule injects caller/callee UUIDs per request so
instances write each other's FIFOs directly — local IPC when co-located
on a PU, neighbour IPC across PUs.  No local bus, no engine, and no API
gateway in the path.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Sequence, TYPE_CHECKING

from repro import config
from repro.errors import SchedulingError, WorkloadError
from repro.hardware.pu import ProcessingUnit
from repro.xpu.capability import Permission
from repro.xpu.fifo import FifoEnd

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.records import FunctionInstance
    from repro.core.molecule import MoleculeRuntime
    from repro.sandbox.runf import RunfRuntime


@dataclass(frozen=True)
class ChainStage:
    """One function in a chain, with its outgoing payload size."""

    function: str
    payload_out_bytes: int = 1024


@dataclass(frozen=True)
class Chain:
    """A linear function chain (the dominant serverless DAG shape)."""

    name: str
    stages: tuple[ChainStage, ...]

    def __post_init__(self):
        if not self.stages:
            raise WorkloadError(f"chain {self.name!r} has no stages")

    @property
    def function_names(self) -> list[str]:
        """Stage function names in order."""
        return [stage.function for stage in self.stages]

    @property
    def edges(self) -> list[tuple[str, str]]:
        """(caller, callee) pairs of consecutive stages."""
        names = self.function_names
        return list(zip(names, names[1:]))


@dataclass
class ChainResult:
    """Measured end-to-end run of one chain request."""

    chain: str
    total_s: float
    exec_s: float
    comm_s: float
    #: Latency of each inter-function edge, in stage order.
    edge_latencies_s: list[float]
    placements: list[str]

    @property
    def total_ms(self) -> float:
        """End-to-end latency in milliseconds."""
        return self.total_s / config.MS


class DagEngine:
    """Runs chains over warm instances using direct-connect FIFOs."""

    def __init__(self, runtime: "MoleculeRuntime"):
        self.runtime = runtime
        self._uuid_seq = itertools.count(1)

    @property
    def sim(self):
        return self.runtime.sim

    def prepare(self, chain: Chain, placements: Sequence[ProcessingUnit]):
        """Generator: pre-boot one warm instance per stage (the paper
        pre-boots instances for its communication experiments)."""
        if len(placements) != len(chain.stages):
            raise SchedulingError(
                f"chain {chain.name!r} has {len(chain.stages)} stages but "
                f"{len(placements)} placements"
            )
        for stage, pu in zip(chain.stages, placements):
            yield from self.runtime.invoker.invoke(stage.function, pu=pu)

    def run_chain(
        self,
        chain: Chain,
        placements: Sequence[ProcessingUnit],
        request_bytes: int = 1024,
    ):
        """Generator: execute one chain request, returning a
        :class:`ChainResult` with per-edge latencies."""
        runtime = self.runtime
        cluster = runtime.cluster
        n = len(chain.stages)
        if len(placements) != n:
            raise SchedulingError("placements do not match chain stages")

        # Acquire a warm instance per stage (must be prepared).
        instances = []
        for stage, pu in zip(chain.stages, placements):
            instance = runtime.invoker.pools[pu.pu_id].acquire(stage.function)
            if instance is None:
                raise SchedulingError(
                    f"no warm instance of {stage.function!r} on {pu.name}; "
                    "call prepare() first"
                )
            instances.append(instance)

        # Direct-connect setup: self FIFOs + capability grants.  Setup is
        # per-instance, not per-request, and is excluded from timings.
        groups = [
            cluster.register_process(pu.pu_id, name=f"{chain.name}-{i}")
            for i, pu in enumerate(placements)
        ]
        host = runtime.machine.host_cpu
        gateway_group = runtime.group
        host_shim = cluster.shim_on(host.pu_id)
        response_uuid = f"resp-{next(self._uuid_seq)}"
        response_handle = None
        self_handles = []
        next_handles: list = [None] * n

        def setup(sim):
            nonlocal response_handle
            response_handle = yield from host_shim.xfifo_init(
                gateway_group, response_uuid, response_uuid
            )
            for i, (pu, group) in enumerate(zip(placements, groups)):
                shim = cluster.shim_on(pu.pu_id)
                uuid = f"{chain.name}-{i}-{next(self._uuid_seq)}"
                handle = yield from shim.xfifo_init(group, uuid, uuid)
                self_handles.append(handle)
            for i in range(n):
                shim = cluster.shim_on(placements[i].pu_id)
                if i + 1 < n:
                    target = self_handles[i + 1]
                    yield from cluster.shim_on(placements[i + 1].pu_id).grant_cap(
                        groups[i + 1],
                        groups[i].xpu_pid,
                        target.fifo.obj_id,
                        Permission.WRITE,
                    )
                    next_handles[i] = yield from shim.xfifo_connect(
                        groups[i], target.fifo.global_uuid, FifoEnd.WRITE
                    )
                else:
                    yield from host_shim.grant_cap(
                        gateway_group,
                        groups[i].xpu_pid,
                        response_handle.fifo.obj_id,
                        Permission.WRITE,
                    )
                    next_handles[i] = yield from shim.xfifo_connect(
                        groups[i], response_uuid, FifoEnd.WRITE
                    )

        setup_proc = self.sim.spawn(setup(self.sim))
        yield setup_proc
        entry_grant = cluster.shim_on(placements[0].pu_id).grant_cap(
            groups[0], gateway_group.xpu_pid, self_handles[0].fifo.obj_id,
            Permission.WRITE,
        )
        yield self.sim.spawn(entry_grant)
        entry_handle = yield from host_shim.xfifo_connect(
            gateway_group, self_handles[0].fifo.global_uuid, FifoEnd.WRITE
        )

        # Per-request measurement.
        t_send = [0.0] * n
        t_recv = [0.0] * n
        exec_total = [0.0]

        def msg_time(instance, pu) -> float:
            """Language-runtime serialize/deserialize cost of one side of
            a DAG message on ``pu`` (part of every measured hop)."""
            slowdown = instance.function.work.dpu_slowdown
            from repro.hardware.pu import PuKind

            if pu.kind is PuKind.DPU and slowdown is not None:
                factor = slowdown
            else:
                factor = 1.0 / pu.spec.speed
            return config.DAG_MSG_MS * config.MS * factor

        def stage_proc(i):
            pu = placements[i]
            shim = cluster.shim_on(pu.pu_id)
            payload = yield from shim.xfifo_read(groups[i], self_handles[i])
            yield self.sim.timeout(msg_time(instances[i], pu))  # deserialize
            t_recv[i] = self.sim.now
            duration = instances[i].function.work.exec_time(pu)
            pu.clock.mark_busy()
            yield self.sim.timeout(duration)
            pu.clock.mark_idle()
            exec_total[0] += duration
            instances[i].requests_served += 1
            t_send[i] = self.sim.now
            out_bytes = chain.stages[i].payload_out_bytes
            yield self.sim.timeout(msg_time(instances[i], pu))  # serialize
            yield from shim.xfifo_write(
                groups[i], next_handles[i], payload, out_bytes
            )

        for i in range(n):
            self.sim.spawn(stage_proc(i))

        start = self.sim.now
        # Gateway dispatches the request into the first stage's FIFO.
        yield from host_shim.xfifo_write(
            gateway_group, entry_handle, {"request": True}, request_bytes
        )
        yield from host_shim.xfifo_read(gateway_group, response_handle)
        total_s = self.sim.now - start

        # Release instances back to their pools.
        for instance, pu in zip(instances, placements):
            runtime.invoker.pools[pu.pu_id].release(instance, now=self.sim.now)
        runtime.invoker.notify_idle()

        edges = [t_recv[i + 1] - t_send[i] for i in range(n - 1)]
        return ChainResult(
            chain=chain.name,
            total_s=total_s,
            exec_s=exec_total[0],
            comm_s=total_s - exec_total[0],
            edge_latencies_s=edges,
            placements=[pu.name for pu in placements],
        )


def run_fpga_chain(
    runtime: "RunfRuntime",
    sandbox_ids: Sequence[str],
    mode: str = "shm",
    payload_bytes: int = 4096,
    exec_time_s: Optional[float] = None,
    wrapper_handoff_s: float = 10e-6,
    dispatch_s: float = 5e-6,
):
    """Generator: run an all-FPGA function chain (Fig. 13).

    The chain executes inside the FPGA wrapper, kernel to kernel — it
    does not re-enter the serverless request path per stage, so the only
    per-stage software cost is the wrapper's dispatch.

    ``mode='copying'`` moves the intermediate payload device->host->
    device between stages; ``mode='shm'`` leaves it in the FPGA-attached
    DRAM bank using data retention (§4.3 zero-copy), paying only a
    wrapper handoff.  Returns the end-to-end seconds.
    """
    if mode not in ("copying", "shm"):
        raise WorkloadError(f"unknown FPGA chain mode {mode!r}")
    if mode == "shm" and not runtime.device.data_retention:
        raise WorkloadError("shm mode requires DRAM data retention")
    sim = runtime.sim
    device = runtime.device
    host = device.pu.host_pu
    route = None
    if host is not None:
        from repro.hardware.interconnect import Link, LinkKind

        link = Link(host.pu_id, device.pu.pu_id, LinkKind.DMA)
    start = sim.now

    def dma_leg():
        yield sim.timeout(link.transfer_time(payload_bytes))
        yield sim.timeout(host.copy_time(payload_bytes))

    yield from dma_leg()  # initial input: host -> device
    for index, sandbox_id in enumerate(sandbox_ids):
        sandbox = runtime.get(sandbox_id)
        kernel_name = sandbox.backend.instance.kernel.name
        yield sim.timeout(dispatch_s)
        if exec_time_s is None:
            yield from device.invoke(kernel_name)
        else:
            device.pu.clock.mark_busy()
            yield sim.timeout(exec_time_s)
            device.pu.clock.mark_idle()
        last = index == len(sandbox_ids) - 1
        if last:
            break
        if mode == "copying":
            yield from dma_leg()  # result out to host DRAM
            yield from dma_leg()  # back into the next kernel's bank
        else:
            device.banks[0].payload = f"stage-{index}"
            yield sim.timeout(wrapper_handoff_s)
    yield from dma_leg()  # final output: device -> host
    return sim.now - start
