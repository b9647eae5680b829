"""Function DAGs and nIPC-based DAG calls (§4.3).

Molecule's DAG communication is *direct-connect*: every function
instance creates a ``self_fifo`` named by its globally-unique UUID and
blocks reading it; Molecule injects caller/callee UUIDs per request so
instances write each other's FIFOs directly — local IPC when co-located
on a PU, neighbour IPC across PUs.  No local bus, no engine, and no API
gateway in the path.

§4.1: "Users can also construct a function chain (or DAG)".  A
:class:`FunctionDag` is plain adjacency dicts; a linear :class:`Chain`
(the dominant serverless shape) runs as a path graph.  One
:class:`DagEngine` executes both: a node fires once every predecessor's
message has arrived, then writes every successor's FIFO.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence, TYPE_CHECKING

from repro import config
from repro.errors import SchedulingError, WorkloadError
from repro.hardware.pu import ProcessingUnit, PuKind
from repro.xpu.capability import Permission
from repro.xpu.fifo import FifoEnd

if TYPE_CHECKING:  # pragma: no cover
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

    def as_dag(self) -> "FunctionDag":
        """This chain as a path graph: each edge carries its caller's
        ``payload_out_bytes``, and the last stage replies to the gateway
        with its own."""
        stages = self.stages
        return FunctionDag(
            self.name,
            [
                DagEdge(caller.function, callee.function, caller.payload_out_bytes)
                for caller, callee in zip(stages, stages[1:])
            ],
            nodes=self.function_names,
            reply_bytes=stages[-1].payload_out_bytes,
        )


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


@dataclass(frozen=True)
class DagEdge:
    """One edge with its payload size."""

    src: str
    dst: str
    payload_bytes: int = 1024


class FunctionDag:
    """A DAG of deployed functions, as plain adjacency dicts.

    ``nodes`` names functions up front (a one-node DAG has no edges);
    every sink replies to the gateway with ``reply_bytes``.
    """

    def __init__(self, name: str, edges: Sequence[DagEdge],
                 nodes: Sequence[str] = (), reply_bytes: int = 256):
        self.name = name
        self.reply_bytes = reply_bytes
        #: node -> {successor: payload bytes}, and node -> predecessors,
        #: both in insertion order (a repeated edge keeps its first
        #: position and its last payload).
        self._succ: dict[str, dict[str, int]] = {}
        self._pred: dict[str, dict[str, None]] = {}
        for node in nodes:
            self._succ.setdefault(node, {})
            self._pred.setdefault(node, {})
        for edge in edges:
            for node in (edge.src, edge.dst):
                self._succ.setdefault(node, {})
                self._pred.setdefault(node, {})
            self._succ[edge.src][edge.dst] = edge.payload_bytes
            self._pred[edge.dst][edge.src] = None
        if not self._succ:
            raise WorkloadError(f"DAG {name!r} needs at least one function")
        self._order = self._topological_order()
        roots = [n for n, preds in self._pred.items() if not preds]
        if len(roots) != 1:
            raise WorkloadError(
                f"DAG {name!r} must have exactly one entry function, got {roots}"
            )
        self.entry = roots[0]
        self.sinks = [n for n, succs in self._succ.items() if not succs]

    def _topological_order(self) -> list[str]:
        """Kahn's sort, one generation at a time: each generation lists
        its nodes in the order they became ready."""
        indegree = {n: len(preds) for n, preds in self._pred.items()}
        generation = [n for n, degree in indegree.items() if not degree]
        order: list[str] = []
        while generation:
            order += generation
            ready = []
            for node in generation:
                for child in self._succ[node]:
                    indegree[child] -= 1
                    if not indegree[child]:
                        ready.append(child)
            generation = ready
        if len(order) != len(indegree):
            raise WorkloadError(f"DAG {self.name!r} contains a cycle")
        return order

    @property
    def nodes(self) -> list[str]:
        """Function names in a topological order."""
        return list(self._order)

    @property
    def edges(self) -> list[DagEdge]:
        """All edges with payloads."""
        return [
            DagEdge(src, dst, payload)
            for src, succs in self._succ.items()
            for dst, payload in succs.items()
        ]

    def predecessors(self, node: str) -> list[str]:
        """The nodes with an edge into ``node``."""
        return list(self._pred[node])

    def critical_path(self, exec_time_of) -> list[str]:
        """The execution-weighted longest path from entry to a sink."""
        longest: dict[str, tuple[float, list[str]]] = {}
        for node in self.nodes:
            best = (0.0, [])
            for pred in self._pred[node]:
                cost, path = longest[pred]
                if cost > best[0]:
                    best = (cost, path)
            longest[node] = (best[0] + exec_time_of(node), best[1] + [node])
        return max(longest.values(), key=lambda item: item[0])[1]


@dataclass
class DagRunResult:
    """Measured end-to-end run of one DAG request."""

    dag: str
    total_s: float
    exec_s: float
    #: Edge latency keyed by (src, dst): from the sender's end of
    #: execution to the receiver's end of deserialization (Fig. 12).
    edge_latencies_s: dict[tuple[str, str], float]
    placements: dict[str, str]

    @property
    def total_ms(self) -> float:
        """End-to-end latency in milliseconds."""
        return self.total_s / config.MS


class DagEngine:
    """Runs DAGs and chains over warm instances using direct-connect FIFOs."""

    def __init__(self, runtime: "MoleculeRuntime"):
        self.runtime = runtime
        self._uuid_seq = itertools.count(1)

    @property
    def sim(self):
        return self.runtime.sim

    def co_locate(self, dag: FunctionDag, pu: ProcessingUnit) -> dict[str, ProcessingUnit]:
        """The default chain-aware policy: the whole DAG on one PU (§5)."""
        return {node: pu for node in dag.nodes}

    @staticmethod
    def _graph_of(spec, placements):
        """``(dag, node -> PU)`` for a FunctionDag with its placement
        dict, or for a Chain with one PU per stage."""
        if isinstance(spec, FunctionDag):
            return spec, placements
        if len(placements) != len(spec.stages):
            raise SchedulingError(
                f"chain {spec.name!r} has {len(spec.stages)} stages but "
                f"{len(placements)} placements"
            )
        return spec.as_dag(), dict(zip(spec.function_names, placements))

    def prepare(self, dag, placements):
        """Generator: pre-boot one warm instance per node (the paper
        pre-boots instances for its communication experiments).  Takes a
        FunctionDag with its placement dict, or a Chain with a PU list."""
        dag, placements = self._graph_of(dag, placements)
        for node in dag.nodes:
            if node not in placements:
                raise SchedulingError(f"no placement for DAG node {node!r}")
            yield from self.runtime.invoker.invoke(node, pu=placements[node])

    def run(self, dag: FunctionDag, placements: dict[str, ProcessingUnit],
            request_bytes: int = 1024):
        """Generator: execute one request through the DAG, returning a
        :class:`DagRunResult`.

        The gateway writes the entry node's FIFO; a node executes when
        all in-edges have delivered; sinks reply to the gateway, and the
        request completes when every sink has replied.
        """
        runtime = self.runtime
        cluster = runtime.cluster
        pools = runtime.invoker.pools
        nodes = dag.nodes

        # Acquire a warm instance per node (must be prepared).
        instances = {}
        for node in nodes:
            pu = placements[node]
            instance = pools[pu.pu_id].acquire(node)
            if instance is None:
                raise SchedulingError(
                    f"no warm instance of {node!r} on {pu.name}; "
                    "call prepare() first"
                )
            instances[node] = instance

        # Direct-connect setup: self FIFOs + capability grants.  Setup is
        # per-instance, not per-request, and is excluded from timings.
        shims = {node: cluster.shim_on(placements[node].pu_id) for node in nodes}
        groups = {
            node: cluster.register_process(
                placements[node].pu_id, name=f"{dag.name}-{node}"
            )
            for node in nodes
        }
        host_shim = cluster.shim_on(runtime.machine.host_cpu.pu_id)
        gateway = runtime.group
        response_uuid = f"resp-{next(self._uuid_seq)}"
        fifos = {}
        #: node -> [(write handle, message bytes)] in edge order.
        out_handles: dict[str, list] = {node: [] for node in nodes}

        def wire(owner_shim, owner, writer_shim, writer, target):
            """Grant ``writer`` write access to ``owner``'s FIFO
            ``target`` and open its write end."""
            yield from owner_shim.grant_cap(
                owner, writer.xpu_pid, target.fifo.obj_id, Permission.WRITE
            )
            handle = yield from writer_shim.xfifo_connect(
                writer, target.fifo.global_uuid, FifoEnd.WRITE
            )
            return handle

        response = yield from host_shim.xfifo_init(
            gateway, response_uuid, response_uuid
        )
        for node in nodes:
            uuid = f"{dag.name}-{node}-{next(self._uuid_seq)}"
            fifos[node] = yield from shims[node].xfifo_init(groups[node], uuid, uuid)
        for edge in dag.edges:
            handle = yield from wire(shims[edge.dst], groups[edge.dst],
                                     shims[edge.src], groups[edge.src],
                                     fifos[edge.dst])
            out_handles[edge.src].append((handle, edge.payload_bytes))
        for sink in dag.sinks:
            handle = yield from wire(host_shim, gateway,
                                     shims[sink], groups[sink], response)
            out_handles[sink].append((handle, dag.reply_bytes))
        entry = yield from wire(shims[dag.entry], groups[dag.entry],
                                host_shim, gateway, fifos[dag.entry])

        # Per-request measurement.
        t_done: dict[str, float] = {}
        edge_latencies: dict[tuple[str, str], float] = {}
        exec_total = [0.0]

        def node_proc(node):
            pu, shim, group = placements[node], shims[node], groups[node]
            instance = instances[node]
            preds = dag.predecessors(node)
            for _ in range(max(1, len(preds))):  # the entry reads the gateway
                yield from shim.xfifo_read(group, fifos[node])
            yield self.sim.timeout(self._msg_time(instance, pu))  # deserialize
            for pred in preds:
                edge_latencies[(pred, node)] = self.sim.now - t_done[pred]
            duration = instance.function.work.exec_time(pu)
            pu.clock.mark_busy()
            yield self.sim.timeout(duration)
            pu.clock.mark_idle()
            exec_total[0] += duration
            instance.requests_served += 1
            t_done[node] = self.sim.now
            yield self.sim.timeout(self._msg_time(instance, pu))  # serialize
            for handle, size in out_handles[node]:
                yield from shim.xfifo_write(group, handle, node, size)

        for node in nodes:
            self.sim.spawn(node_proc(node))

        start = self.sim.now
        yield from host_shim.xfifo_write(
            gateway, entry, {"request": True}, request_bytes
        )
        for _sink in dag.sinks:
            yield from host_shim.xfifo_read(gateway, response)
        total_s = self.sim.now - start

        # Release instances back to their pools.
        for node, instance in instances.items():
            pools[placements[node].pu_id].release(instance, now=self.sim.now)
        runtime.invoker.notify_idle()
        return DagRunResult(
            dag=dag.name,
            total_s=total_s,
            exec_s=exec_total[0],
            edge_latencies_s=edge_latencies,
            placements={node: pu.name for node, pu in placements.items()},
        )

    def run_chain(
        self,
        chain: Chain,
        placements: Sequence[ProcessingUnit],
        request_bytes: int = 1024,
    ):
        """Generator: execute one chain request as a path graph,
        returning a :class:`ChainResult` with per-edge latencies."""
        dag, by_node = self._graph_of(chain, placements)
        result = yield from self.run(dag, by_node, request_bytes)
        return ChainResult(
            chain=chain.name,
            total_s=result.total_s,
            exec_s=result.exec_s,
            comm_s=result.total_s - result.exec_s,
            edge_latencies_s=[result.edge_latencies_s[e] for e in chain.edges],
            placements=[pu.name for pu in placements],
        )

    @staticmethod
    def _msg_time(instance, pu) -> float:
        """Language-runtime serialize/deserialize cost of one side of a
        DAG message on ``pu`` (part of every measured hop)."""
        slowdown = instance.function.work.dpu_slowdown
        if pu.kind is PuKind.DPU and slowdown is not None:
            factor = slowdown
        else:
            factor = 1.0 / pu.spec.speed
        return config.DAG_MSG_MS * config.MS * factor


def alexa_tree() -> FunctionDag:
    """The Alexa skill as its real tree shape: smarthome fans out to
    door and light (the Fig. 12 edge names)."""
    return FunctionDag(
        "alexa-tree",
        [
            DagEdge("frontend", "interact", 1024),
            DagEdge("interact", "smarthome", 819),
            DagEdge("smarthome", "door", 512),
            DagEdge("smarthome", "light", 307),
        ],
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
