"""Molecule-homo: the paper's homogeneous baseline (§6).

Molecule-homo does not use XPU-Shim, so it runs on a *single* PU (CPU
or DPU, never both), cannot reach accelerators, starts every instance
with a full container cold boot (no cfork), and chains functions with
Node.js Express / Python Flask HTTP hops — the same DAG methods
OpenWhisk uses.  It is deliberately a strong baseline: far faster than
the commercial systems of Fig. 9, which makes Molecule's wins over it
meaningful.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from repro import config
from repro.core.dag import Chain, ChainResult
from repro.core.records import FunctionInstance, InvocationResult
from repro.core.keepalive import WarmPool
from repro.core.registry import FunctionDef, FunctionRegistry
from repro.errors import SchedulingError
from repro.hardware.pu import ProcessingUnit, PuKind, PuSpec
from repro.hardware import specs
from repro.multios.os import OsInstance
from repro.sandbox.base import Language
from repro.sandbox.runc import RuncRuntime
from repro.sim import Simulator


def _hop_ms(language: Language) -> float:
    """Same-PU HTTP hop cost of the baseline DAG method (ref CPU)."""
    if language is Language.NODEJS:
        return config.BASELINE_DAG.express_hop_cpu_ms
    return config.BASELINE_DAG.flask_hop_cpu_ms


class MoleculeHomo:
    """The homogeneous baseline runtime on one PU."""

    def __init__(self, sim: Optional[Simulator] = None, pu_spec: PuSpec = specs.XEON_8160):
        self.sim = sim or Simulator()
        self.pu = ProcessingUnit(self.sim, 0, "pu0", pu_spec)
        self.os = OsInstance(self.sim, self.pu)
        self.runc = RuncRuntime(self.sim, self.os)
        self.registry = FunctionRegistry()
        self.pool = WarmPool(4096)
        self._ids = itertools.count(1)
        self._request_ids = itertools.count(1)

    def run(self, generator):
        """Spawn, run to completion, return the generator's value."""
        proc = self.sim.spawn(generator)
        self.sim.run()
        return proc.value

    def deploy(self, function: FunctionDef) -> FunctionDef:
        """Register a function (no templates: homo has no cfork)."""
        return self.registry.register(function)

    # -- invocation -----------------------------------------------------------------

    def invoke(self, name: str, force_cold: bool = False, exec_time_s: Optional[float] = None):
        """Generator: one request — full container boot when cold."""
        function = self.registry.get(name)
        start = self.sim.now
        yield self.sim.timeout(config.GATEWAY_OVERHEAD_MS * config.MS)
        request_id = next(self._request_ids)
        startup_begin = self.sim.now
        instance = None if force_cold else self.pool.acquire(name)
        cold = instance is None
        if cold:
            sandbox_id = f"{name}-{next(self._ids)}"
            yield from self.runc.create(sandbox_id, function.code)
            sandbox = yield from self.runc.start(sandbox_id)
            instance = FunctionInstance(
                function=function, pu=self.pu, sandbox=sandbox, forked=False
            )
        startup_s = self.sim.now - startup_begin
        exec_begin = self.sim.now
        if cold and function.code.data_ms:
            yield self.sim.timeout(function.code.data_ms * config.MS)
        duration = (
            exec_time_s if exec_time_s is not None
            else self._exec_time(function)
        )
        yield self.sim.timeout(duration)
        instance.requests_served += 1
        exec_s = self.sim.now - exec_begin
        self.pool.release(instance, now=self.sim.now)
        return InvocationResult(
            function=name,
            request_id=request_id,
            pu_name=self.pu.name,
            pu_kind=self.pu.kind,
            cold=cold,
            startup_s=startup_s,
            exec_s=exec_s,
            total_s=self.sim.now - start,
            billed_cost=self.pu.spec.price_class.cost(exec_s),
        )

    def invoke_now(self, name: str, **kwargs) -> InvocationResult:
        """Synchronous convenience wrapper."""
        return self.run(self.invoke(name, **kwargs))

    def _exec_time(self, function: FunctionDef) -> float:
        return function.work.exec_time(self.pu)

    def _chain_factor(self, function: FunctionDef) -> float:
        """Software-cost scaling of hop work on this PU."""
        if self.pu.kind is PuKind.DPU and function.work.dpu_slowdown is not None:
            return function.work.dpu_slowdown
        return 1.0 / self.pu.spec.speed

    # -- chains -----------------------------------------------------------------------

    def run_chain(self, chain: Chain, cross_pu_edges: Sequence[bool] = ()):
        """Generator: execute a chain with Express/Flask HTTP hops.

        ``cross_pu_edges[i]`` marks edge i as crossing PUs (the CrossPU
        configuration of Fig. 14e, where the baseline must hop through
        the host network / gateway).  All functions must be deployed.
        """
        edges = len(chain.stages) - 1
        crosses = list(cross_pu_edges) or [False] * edges
        if len(crosses) != edges:
            raise SchedulingError("cross_pu_edges length must match chain edges")
        start = self.sim.now
        exec_total = 0.0
        edge_latencies = []
        for i, stage in enumerate(chain.stages):
            function = self.registry.get(stage.function)
            duration = self._exec_time(function)
            yield self.sim.timeout(duration)
            exec_total += duration
            if i < edges:
                if crosses[i]:
                    hop_ms = config.BASELINE_DAG.cross_pu_hop_ms
                else:
                    hop_ms = _hop_ms(function.code.language) * self._chain_factor(
                        function
                    )
                hop_ms += (
                    stage.payload_out_bytes / config.KB
                ) * config.BASELINE_DAG.payload_ms_per_kb
                hop_s = hop_ms * config.MS
                yield self.sim.timeout(hop_s)
                edge_latencies.append(hop_s)
        total_s = self.sim.now - start
        return ChainResult(
            chain=chain.name,
            total_s=total_s,
            exec_s=exec_total,
            comm_s=total_s - exec_total,
            edge_latencies_s=edge_latencies,
            placements=[self.pu.name] * len(chain.stages),
        )

    def run_chain_now(self, chain: Chain, **kwargs) -> ChainResult:
        """Synchronous convenience wrapper."""
        return self.run(self.run_chain(chain, **kwargs))
