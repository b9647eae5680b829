"""General function DAGs (fan-out / fan-in), beyond linear chains.

§4.1: "Users can also construct a function chain (or DAG)".  The Alexa
skill is really a tree (smarthome fans out to door and light); this
module models arbitrary DAGs as adjacency dicts, schedules them with
chain-style co-location, and executes them with the same direct-connect
FIFO discipline: a node fires once every predecessor's message has
arrived, then writes every successor's FIFO.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from repro import config
from repro.errors import SchedulingError, WorkloadError
from repro.hardware.pu import ProcessingUnit, PuKind
from repro.xpu.capability import Permission
from repro.xpu.fifo import FifoEnd


@dataclass(frozen=True)
class DagEdge:
    """One edge with its payload size."""

    src: str
    dst: str
    payload_bytes: int = 1024


class FunctionDag:
    """A DAG of deployed functions, as plain adjacency dicts."""

    def __init__(self, name: str, edges: Sequence[DagEdge]):
        if not edges:
            raise WorkloadError(f"DAG {name!r} needs at least one edge")
        self.name = name
        #: node -> {successor: payload bytes}, and node -> predecessors,
        #: both in insertion order (a repeated edge keeps its first
        #: position and its last payload).
        self._succ: dict[str, dict[str, int]] = {}
        self._pred: dict[str, dict[str, None]] = {}
        for edge in edges:
            for node in (edge.src, edge.dst):
                self._succ.setdefault(node, {})
                self._pred.setdefault(node, {})
            self._succ[edge.src][edge.dst] = edge.payload_bytes
            self._pred[edge.dst][edge.src] = None
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
    #: Edge latency keyed by (src, dst).
    edge_latencies_s: dict[tuple[str, str], float]
    placements: dict[str, str]

    @property
    def total_ms(self) -> float:
        """End-to-end latency in milliseconds."""
        return self.total_s / config.MS


class DagGraphEngine:
    """Executes FunctionDags on a MoleculeRuntime."""

    def __init__(self, runtime):
        self.runtime = runtime
        self._uuid_seq = itertools.count(1)

    @property
    def sim(self):
        """The runtime's simulator."""
        return self.runtime.sim

    def co_locate(self, dag: FunctionDag, pu: ProcessingUnit) -> dict[str, ProcessingUnit]:
        """The default chain-aware policy: the whole DAG on one PU (§5)."""
        return {node: pu for node in dag.nodes}

    def prepare(self, dag: FunctionDag, placements: dict[str, ProcessingUnit]):
        """Generator: pre-boot one warm instance per node."""
        for node in dag.nodes:
            if node not in placements:
                raise SchedulingError(f"no placement for DAG node {node!r}")
            yield from self.runtime.invoker.invoke(node, pu=placements[node])

    def run(self, dag: FunctionDag, placements: dict[str, ProcessingUnit],
            request_bytes: int = 1024):
        """Generator: execute one request through the DAG.

        A node executes when all in-edges have delivered; sinks reply to
        the gateway; the request completes when every sink has replied.
        """
        runtime = self.runtime
        cluster = runtime.cluster
        host = runtime.machine.host_cpu
        host_shim = cluster.shim_on(host.pu_id)
        gateway_group = runtime.group

        instances = {}
        for node in dag.nodes:
            pu = placements[node]
            instance = runtime.invoker.pools[pu.pu_id].acquire(node)
            if instance is None:
                raise SchedulingError(
                    f"no warm instance of {node!r} on {pu.name}; prepare() first"
                )
            instances[node] = instance

        groups = {
            node: cluster.register_process(
                placements[node].pu_id, name=f"{dag.name}-{node}"
            )
            for node in dag.nodes
        }
        self_handles: dict[str, object] = {}
        out_handles: dict[str, list[tuple[str, int, object]]] = {n: [] for n in dag.nodes}
        response_uuid = f"dagresp-{next(self._uuid_seq)}"
        response_handle_box = {}

        def setup(sim):
            response_handle_box["h"] = yield from host_shim.xfifo_init(
                gateway_group, response_uuid, response_uuid
            )
            for node in dag.nodes:
                shim = cluster.shim_on(placements[node].pu_id)
                uuid = f"{dag.name}-{node}-{next(self._uuid_seq)}"
                self_handles[node] = yield from shim.xfifo_init(
                    groups[node], uuid, uuid
                )
            for edge in dag.edges:
                src_shim = cluster.shim_on(placements[edge.src].pu_id)
                dst_shim = cluster.shim_on(placements[edge.dst].pu_id)
                target = self_handles[edge.dst]
                yield from dst_shim.grant_cap(
                    groups[edge.dst], groups[edge.src].xpu_pid,
                    target.fifo.obj_id, Permission.WRITE,
                )
                handle = yield from src_shim.xfifo_connect(
                    groups[edge.src], target.fifo.global_uuid, FifoEnd.WRITE
                )
                out_handles[edge.src].append((edge.dst, edge.payload_bytes, handle))
            for sink in dag.sinks:
                shim = cluster.shim_on(placements[sink].pu_id)
                yield from host_shim.grant_cap(
                    gateway_group, groups[sink].xpu_pid,
                    response_handle_box["h"].fifo.obj_id, Permission.WRITE,
                )
                handle = yield from shim.xfifo_connect(
                    groups[sink], response_uuid, FifoEnd.WRITE
                )
                out_handles[sink].append(("__gateway__", 256, handle))
            # Gateway entry into the DAG's single root.
            entry_shim = cluster.shim_on(placements[dag.entry].pu_id)
            yield from entry_shim.grant_cap(
                groups[dag.entry], gateway_group.xpu_pid,
                self_handles[dag.entry].fifo.obj_id, Permission.WRITE,
            )
            handle = yield from host_shim.xfifo_connect(
                gateway_group, self_handles[dag.entry].fifo.global_uuid,
                FifoEnd.WRITE,
            )
            response_handle_box["entry"] = handle

        yield self.sim.spawn(setup(self.sim))

        t_sent: dict[tuple[str, str], float] = {}
        edge_latency: dict[tuple[str, str], float] = {}
        exec_total = [0.0]

        def node_proc(node):
            pu = placements[node]
            shim = cluster.shim_on(pu.pu_id)
            in_degree = max(1, len(dag.predecessors(node)))
            for _ in range(in_degree):
                yield from shim.xfifo_read(groups[node], self_handles[node])
            yield self.sim.timeout(self._msg_time(instances[node], pu))
            for pred in dag.predecessors(node):
                edge_latency[(pred, node)] = self.sim.now - t_sent[(pred, node)]
            duration = instances[node].function.work.exec_time(pu)
            pu.clock.mark_busy()
            yield self.sim.timeout(duration)
            pu.clock.mark_idle()
            exec_total[0] += duration
            instances[node].requests_served += 1
            yield self.sim.timeout(self._msg_time(instances[node], pu))
            for dst, payload, handle in out_handles[node]:
                if dst != "__gateway__":
                    t_sent[(node, dst)] = self.sim.now
                yield from shim.xfifo_write(groups[node], handle, node, payload)

        for node in dag.nodes:
            self.sim.spawn(node_proc(node))

        start = self.sim.now
        yield from host_shim.xfifo_write(
            gateway_group, response_handle_box["entry"], {"req": True}, request_bytes
        )
        for _sink in dag.sinks:
            yield from host_shim.xfifo_read(
                gateway_group, response_handle_box["h"]
            )
        total_s = self.sim.now - start

        for node, instance in instances.items():
            runtime.invoker.pools[placements[node].pu_id].release(
                instance, now=self.sim.now
            )
        runtime.invoker.notify_idle()
        return DagRunResult(
            dag=dag.name,
            total_s=total_s,
            exec_s=exec_total[0],
            edge_latencies_s=edge_latency,
            placements={n: p.name for n, p in placements.items()},
        )

    def _msg_time(self, instance, pu) -> float:
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
