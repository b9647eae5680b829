"""The Molecule runtime facade (§4).

Wires the whole system together on one heterogeneous computer:

* an :class:`OsInstance` per general-purpose PU (multi-OS),
* the XPU-Shim cluster with a shim per PU (virtual for accelerators),
* a ``runc`` runtime per CPU/DPU, ``runf`` per FPGA, ``runG`` per GPU,
* executors xSpawn-ed onto every non-host PU, commanded over nIPC,
* the gateway, scheduler, invoker, and DAG engine.

Typical use::

    molecule = MoleculeRuntime.create(num_dpus=2)
    molecule.deploy_now(function)
    result = molecule.invoke_now(function.name)
"""

from __future__ import annotations

import importlib
from typing import Optional

from repro import config
from repro.errors import SchedulingError, XpuError
from repro.hardware.machine import (
    HeterogeneousComputer,
    build_cpu_dpu_machine,
)
from repro.hardware.pu import ProcessingUnit, PuKind
from repro.multios.cgroup import CpusetLockMode
from repro.multios.os import OsInstance
from repro.core.billing import BillingLedger
from repro.core.dag import Chain, DagEngine
from repro.core.executor import Executor, ExecutorClient, REPLY_BYTES
from repro.core.gateway import ApiGateway
from repro.core.invoker import Invoker
from repro.core.keepalive import FpgaImagePlanner
from repro.core.registry import FunctionDef, FunctionRegistry
from repro.core.reliability import (
    BREAKER_STATE_VALUE,
    DeadLetterQueue,
    FateLedger,
    HealthRegistry,
    RetryPolicy,
)
from repro.core.scheduler import Scheduler
from repro.obs import Observability
from repro.obs.metrics import MetricSpec
from repro.sandbox.runc import RuncRuntime
from repro.sandbox.runf import RunfRuntime
from repro.sandbox.rung import RungRuntime
from repro.sim import Simulator
from repro.sim.rng import SeededRng
from repro.xpu.capability import Permission
from repro.xpu.fifo import FifoEnd
from repro.xpu.shim import ShimCluster

#: Sim-kernel profile families, registered by the first
#: ``metrics_snapshot(include_kernel=True)`` so golden runs that never
#: publish a profile keep their catalog.
KERNEL_METRICS = {
    "events_processed": MetricSpec(
        "repro_kernel_events_processed", "gauge",
        "Events dispatched by the sim kernel since construction.",
    ),
    "batches_drained": MetricSpec(
        "repro_kernel_batches_drained", "gauge",
        "Timestep batches drained by the batched event loop.",
    ),
    "heap_ops_avoided": MetricSpec(
        "repro_kernel_heap_ops_avoided", "gauge",
        "Events dispatched without a heap pop of their own (drained "
        "from a timestep batch or the URGENT lane).",
    ),
    "mean_batch_size": MetricSpec(
        "repro_kernel_mean_batch_size", "gauge",
        "Mean events dispatched per drained timestep batch.",
    ),
    "dispatched": MetricSpec(
        "repro_kernel_dispatched", "gauge",
        "Events dispatched by the sim kernel, by record kind.",
        ("kind",),
    ),
    "slab_hit_rate": MetricSpec(
        "repro_kernel_slab_hit_rate", "gauge",
        "Fraction of record allocations served by the slab "
        "free-lists, by record kind.",
        ("kind",),
    ),
}


#: The opt-in engines, in wiring order: runtime attribute (and
#: constructor argument), package, config class, engine class.  The
#: overload controller comes after hedging so its brownout can reach
#: the hedge policy's clone token bucket; the result cache comes last
#: so its staleness policy can consult the overload controller.
ENGINES = (
    # Cold-start coalescing, predictive pre-warm, bitstream prefetch.
    ("warmpath", "repro.warmpath", "WarmPathConfig", "WarmPathEngine"),
    # Clones stragglers onto a second healthy PU; first answer wins.
    ("hedging", "repro.hedging", "HedgeConfig", "HedgePolicy"),
    # Per-shard adaptive limits, deadline-aware shedding, brownout.
    ("overload", "repro.overload", "OverloadConfig", "OverloadController"),
    # map/map_reduce over partitioned data with straggler-aware gather.
    ("fanout", "repro.futures", "FanoutConfig", "FanoutEngine"),
    # Deterministic result cache: single-flight, stale-under-pressure.
    ("reuse", "repro.reuse", "ReuseConfig", "ReuseEngine"),
)


class MoleculeRuntime:
    """One Molecule deployment on one worker machine."""

    def __init__(
        self,
        sim: Optional[Simulator] = None,
        machine: Optional[HeterogeneousComputer] = None,
        use_cfork: bool = True,
        cpuset_opt: bool = True,
        no_erase: bool = True,
        warm_pool_capacity: int = 4096,
        keep_alive_ttl_s: Optional[float] = None,
        keepalive_policy: str = "ttl",
        obs: Optional[Observability] = None,
        seed: Optional[int] = None,
        default_deadline_s: Optional[float] = None,
        fault_plan=None,
        warmpath=None,
        hedging=None,
        overload=None,
        fanout=None,
        reuse=None,
    ):
        self.sim = sim or Simulator()
        self.machine = machine or build_cpu_dpu_machine(self.sim, num_dpus=2)
        self.use_cfork = use_cfork
        self.registry = FunctionRegistry()
        self.ledger = BillingLedger()
        #: The observability hub every component reports through.
        self.obs = obs or Observability(self.sim)
        #: Deterministic randomness root; reliability and fault injection
        #: fork named sub-streams so runs with the same seed are
        #: byte-identical.
        self.rng = SeededRng(seed if seed is not None else config.default_seed())
        self.retry_policy = RetryPolicy()
        self.dead_letters = DeadLetterQueue(obs=self.obs)
        #: One fate per admitted request (settled by the invoker).
        self.fates = FateLedger()
        self.health = HealthRegistry(self.sim, obs=self.obs)
        self.gateway = ApiGateway(
            self.sim, obs=self.obs, default_deadline_s=default_deadline_s
        )
        self.scheduler = Scheduler(
            self.machine,
            obs=self.obs,
            health=self.health,
        )
        self.image_planner = FpgaImagePlanner()
        self.image_planner.obs = self.obs
        self.cluster = ShimCluster(self.sim, self.machine, obs=self.obs)

        lock = CpusetLockMode.MUTEX if cpuset_opt else CpusetLockMode.SEMAPHORE
        self.oses: dict[int, OsInstance] = {}
        self.runcs: dict[int, RuncRuntime] = {}
        self.runfs: dict[int, RunfRuntime] = {}
        self.rungs: dict[int, RungRuntime] = {}
        for pu in self.machine.general_purpose_pus():
            os_instance = OsInstance(self.sim, pu, cpuset_lock=lock)
            self.oses[pu.pu_id] = os_instance
            self.cluster.install(pu, os_instance)
            runc = RuncRuntime(self.sim, os_instance)
            runc.obs = self.obs
            self.runcs[pu.pu_id] = runc
        host = self.machine.host_cpu
        host_shim = self.cluster.shim_on(host.pu_id)
        for pu in self.machine.pus.values():
            if pu.is_general_purpose:
                continue
            self.cluster.install_virtual(pu, host_shim)
            if pu.kind is PuKind.FPGA:
                device = self.machine.fpga_device(pu)
                runf = RunfRuntime(self.sim, device, no_erase=no_erase)
                runf.obs = self.obs
                self.runfs[pu.pu_id] = runf
            elif pu.kind is PuKind.GPU:
                rung = RungRuntime(self.sim, pu)
                rung.obs = self.obs
                self.rungs[pu.pu_id] = rung

        #: Molecule's own CAP_Group (the runtime process on the host).
        self.group = self.cluster.register_process(host.pu_id, name="molecule")
        self.invoker = Invoker(
            self,
            warm_pool_capacity=warm_pool_capacity,
            keep_alive_ttl_s=keep_alive_ttl_s,
            keepalive_policy=keepalive_policy,
        )
        self.dag = DagEngine(self)
        self._executors: dict[int, Executor] = {}
        self._clients: dict[int, ExecutorClient] = {}
        self._booted = False
        #: Optional sharded gateway front end (repro.loadgen.sharding);
        #: installed by :meth:`sharded_frontend` or by constructing a
        #: ShardedFrontend over this runtime.
        self.frontend = None
        #: Optional deterministic fault injection (repro.faults).
        self.fault_plan = fault_plan
        self.injector = None
        if fault_plan is not None:
            from repro.faults.injector import FaultInjector

            self.injector = FaultInjector(self, fault_plan)
        # Each opt-in engine takes its config (or True for defaults);
        # one left None keeps the stock byte-identical behavior.
        configs = dict(warmpath=warmpath, hedging=hedging,
                       overload=overload, fanout=fanout, reuse=reuse)
        for attr, module, config_class, engine_class in ENGINES:
            engine = None
            config_obj = configs[attr]
            if config_obj is not None:
                package = importlib.import_module(module)
                if config_obj is True:
                    config_obj = getattr(package, config_class)()
                engine = getattr(package, engine_class)(self, config_obj)
            setattr(self, attr, engine)

    # -- construction helpers -------------------------------------------------------

    @classmethod
    def create(cls, num_dpus: int = 2, dpu_model: str = "bf1", **kwargs) -> "MoleculeRuntime":
        """Build a CPU+DPU Molecule deployment and boot it."""
        sim = Simulator()
        machine = build_cpu_dpu_machine(sim, num_dpus=num_dpus, dpu_model=dpu_model)
        runtime = cls(sim=sim, machine=machine, **kwargs)
        runtime.start()
        return runtime

    def run(self, generator):
        """Spawn a generator, run the simulation, return its value."""
        proc = self.sim.spawn(generator)
        self.sim.run()
        if not proc.processed:
            raise SchedulingError("runtime generator deadlocked")
        return proc.value

    def start(self) -> None:
        """Boot the runtime: launch executors on every neighbour PU."""
        if self._booted:
            return
        self.run(self.boot())
        self._booted = True
        if self.injector is not None:
            self.injector.arm()

    def boot(self):
        """Generator: xSpawn executors and wire their nIPC channels."""
        host = self.machine.host_cpu
        host_shim = self.cluster.shim_on(host.pu_id)
        for pu in self.machine.general_purpose_pus():
            if pu.pu_id == host.pu_id:
                continue
            pu_shim = self.cluster.shim_on(pu.pu_id)
            _pid, exec_group, _process = yield from host_shim.xspawn(
                self.group, pu.pu_id, f"executor-{pu.name}"
            )
            # Command channel: homed on the executor's PU.
            cmd_uuid = f"cmd-{pu.name}"
            cmd_handle_exec = yield from pu_shim.xfifo_init(
                exec_group, cmd_uuid, cmd_uuid
            )
            yield from pu_shim.grant_cap(
                exec_group, self.group.xpu_pid,
                cmd_handle_exec.fifo.obj_id, Permission.WRITE,
            )
            cmd_handle_mol = yield from host_shim.xfifo_connect(
                self.group, cmd_uuid, FifoEnd.WRITE
            )
            # Reply channel: homed on Molecule's PU.
            reply_uuid = f"reply-{pu.name}"
            reply_handle_mol = yield from host_shim.xfifo_init(
                self.group, reply_uuid, reply_uuid
            )
            yield from host_shim.grant_cap(
                self.group, exec_group.xpu_pid,
                reply_handle_mol.fifo.obj_id, Permission.WRITE,
            )
            reply_handle_exec = yield from pu_shim.xfifo_connect(
                exec_group, reply_uuid, FifoEnd.WRITE
            )

            def reply_writer(request_id, result, _shim=pu_shim, _group=exec_group,
                             _handle=reply_handle_exec):
                yield from _shim.xfifo_write(
                    _group, _handle, (request_id, result), REPLY_BYTES
                )

            executor = Executor(
                shim=pu_shim,
                runc=self.runcs[pu.pu_id],
                group=exec_group,
                cmd_handle=cmd_handle_exec,
                reply_writer=reply_writer,
            )
            client = ExecutorClient(host_shim, self.group, cmd_handle_mol)
            self._executors[pu.pu_id] = executor
            self._clients[pu.pu_id] = client
            self.sim.spawn(executor.daemon(), name=f"executor-{pu.name}")
            self.sim.spawn(
                self._reply_pump(client, reply_handle_mol),
                name=f"reply-pump-{pu.name}",
            )

    def _reply_pump(self, client: ExecutorClient, reply_handle):
        host_shim = self.cluster.shim_on(self.machine.host_cpu.pu_id)
        while True:
            request_id, result = yield from host_shim.xfifo_read(
                self.group, reply_handle
            )
            client.resolve(request_id, result)

    # -- component lookup -------------------------------------------------------------

    def runc_on(self, pu_id: int) -> RuncRuntime:
        """The container runtime on a general-purpose PU."""
        try:
            return self.runcs[pu_id]
        except KeyError:
            raise XpuError(f"no runc runtime on PU {pu_id}") from None

    def runf_on(self, pu_id: int) -> RunfRuntime:
        """The FPGA runtime for an FPGA PU."""
        try:
            return self.runfs[pu_id]
        except KeyError:
            raise XpuError(f"no runf runtime on PU {pu_id}") from None

    def rung_on(self, pu_id: int) -> RungRuntime:
        """The GPU runtime for a GPU PU."""
        try:
            return self.rungs[pu_id]
        except KeyError:
            raise XpuError(f"no runG runtime on PU {pu_id}") from None

    def executor_client(self, pu_id: int) -> Optional[ExecutorClient]:
        """The nIPC client for a neighbour PU (None for the host PU)."""
        return self._clients.get(pu_id)

    # -- deployment ---------------------------------------------------------------------

    def deploy(
        self,
        function: FunctionDef,
        dedicated_template: bool = True,
        prepare_containers: int = 1,
    ):
        """Generator: register a function and prepare its PUs.

        Boots template containers (dedicated ones pre-import the
        function's dependencies) and pre-initialises function containers
        on every general-purpose PU the function may run on.
        """
        self.registry.register(function)
        if not self.use_cfork:
            return function
        for pu in self.machine.general_purpose_pus():
            if not function.supports(pu.kind):
                continue
            dedicated = function.code if dedicated_template else None
            client = self.executor_client(pu.pu_id)
            if client is None:
                runc = self.runc_on(pu.pu_id)
                yield from runc.ensure_template(
                    function.code.language, dedicated_to=dedicated
                )
                if prepare_containers:
                    yield from runc.prepare_containers(prepare_containers)
            else:
                yield from client.call(
                    "ensure_template",
                    language=function.code.language,
                    dedicated_to=dedicated,
                )
                if prepare_containers:
                    yield from client.call(
                        "prepare_containers", count=prepare_containers
                    )
        return function

    def deploy_now(self, function: FunctionDef, **kwargs) -> FunctionDef:
        """Synchronous convenience wrapper over :meth:`deploy`."""
        return self.run(self.deploy(function, **kwargs))

    # -- invocation ---------------------------------------------------------------------

    def sharded_frontend(
        self, num_shards: int, policy: str = "hash", **kwargs
    ):
        """Install an N-shard gateway front end over this runtime.

        Subsequent :meth:`invoke` calls route through the shards; the
        original single gateway stays wired for components that bypass
        the front door (e.g. DAG entry requests).
        """
        from repro.loadgen.sharding import ShardedFrontend

        return ShardedFrontend(self, num_shards, policy=policy, **kwargs)

    def invoke(self, name: str, **kwargs):
        """Generator: one request through the front door (see Invoker).

        With a sharded front end installed the request is routed to a
        gateway shard; otherwise it enters through the single gateway.
        """
        if self.frontend is not None:
            result = yield from self.frontend.invoke(name, **kwargs)
        else:
            result = yield from self.invoker.invoke(name, **kwargs)
        return result

    def invoke_now(self, name: str, **kwargs):
        """Synchronous convenience wrapper over :meth:`invoke`."""
        return self.run(self.invoke(name, **kwargs))

    def run_chain(self, chain: Chain, placements, **kwargs):
        """Generator: one chain request with direct-connect DAG calls."""
        result = yield from self.dag.run_chain(chain, placements, **kwargs)
        return result

    # -- reports ------------------------------------------------------------------------

    def _refresh_gauges(self) -> None:
        """Sample point-in-time state (pools, DRAM, controllers) into
        the snapshot-time gauges."""
        m = self.obs.metrics
        for pu_id, pool in self.invoker.pools.items():
            pu = self.machine.pus[pu_id]
            m.pool_size.child(pu.name).set(len(pool))
            m.pool_hits.child(pu.name).set(pool.hits)
            m.pool_misses.child(pu.name).set(pool.misses)
            m.dram_used_mb.child(pu.name).set(pu.dram_used_mb)
        for pu in self.machine.pus.values():
            if self.health.is_down(pu):
                value = 3  # crashed and not yet rebooted
            else:
                value = BREAKER_STATE_VALUE[self.health.breaker(pu).state]
            m.breaker_state.child(pu.name).set(value)
        if self.frontend is not None:
            shard = self.frontend.metrics
            for entry in self.frontend.snapshot():
                label = str(entry["shard"])
                shard.outstanding.child(label).set(entry["outstanding"])
                shard.utilization.child(label).set(entry["utilization"])
        if self.overload is not None:
            overload = self.overload.metrics
            for gate in self.overload.gates():
                overload.limit.child(gate.label).set(gate.limiter.limit)
                overload.queue_depth.child(gate.label).set(len(gate.queue))
            overload.pressure.set(self.overload.pressure())
        if self.reuse is not None:
            reuse = self.reuse.metrics
            reuse.cache_entries.set(len(self.reuse.cache))
            reuse.cache_bytes.set(self.reuse.cache.bytes_used)
            reuse.hit_ratio.set(self.reuse.hit_rate())

    def _publish_kernel_profile(self) -> None:
        kernel = self.obs.registry.register_table(KERNEL_METRICS)
        profile = self.sim.kernel_profile()
        kernel.events_processed.set(profile["events_processed"])
        kernel.batches_drained.set(profile["batches_drained"])
        kernel.heap_ops_avoided.set(profile["heap_ops_avoided"])
        kernel.mean_batch_size.set(profile["mean_batch_size"])
        for kind, count in profile["dispatched_by_kind"].items():
            kernel.dispatched.child(kind).set(count)
        for kind, entry in profile["slab"].items():
            kernel.slab_hit_rate.child(kind).set(entry["hit_rate"])

    @property
    def requests_admitted(self) -> int:
        """Admissions at the default gateway and every frontend shard."""
        admitted = self.gateway.requests_admitted
        if self.frontend is not None:
            admitted += self.frontend.requests_admitted
        return admitted

    def check_fates(self) -> None:
        """Raise :class:`~repro.errors.FateImbalance` unless every
        admitted request settled exactly once, in agreement with the
        gateways, the dead-letter queue and the result cache."""
        self.fates.check(
            self.requests_admitted, self.dead_letters.total, self.reuse
        )

    def metrics_snapshot(self, include_kernel: bool = False) -> dict:
        """A JSON-friendly dump of every metric family, gauges freshly
        sampled, plus summary counters tests and reports key on.

        ``include_kernel=True`` additionally publishes the sim kernel's
        profiling counters (``repro_kernel_*`` families).  Opt-in so the
        metric catalog stays byte-identical for golden runs.
        """
        self._refresh_gauges()
        if include_kernel:
            self._publish_kernel_profile()
        return {
            "sim_time_s": self.sim.now,
            "requests_admitted": self.requests_admitted,
            "cold_invocations": self.invoker.cold_invocations,
            "warm_invocations": self.invoker.warm_invocations,
            "dead_letters": len(self.dead_letters),
            "metrics": self.obs.registry.to_dict(),
        }

    def metrics_exposition(self) -> str:
        """Prometheus text-format exposition of every metric family."""
        self._refresh_gauges()
        return self.obs.registry.expose()

    def support_matrix(self) -> dict[str, dict[str, object]]:
        """The Table 1 / Table 5 support matrix of this deployment."""
        matrix: dict[str, dict[str, object]] = {}
        for pu in self.machine.pus.values():
            kind = pu.kind
            if kind.general_purpose:
                vsandbox = "runc (modified)"
                comm = "RDMA" if kind is PuKind.DPU else "IPC"
                model = "Python / Node.js"
            elif kind is PuKind.FPGA:
                vsandbox = "runf (OpenCL)"
                comm = "DMA"
                model = "OpenCL"
            else:
                vsandbox = "runG (CUDA)"
                comm = "DMA"
                model = "CUDA C++"
            matrix[pu.name] = {
                "kind": kind.value,
                "vectorized_sandbox": vsandbox,
                "xpu_shim": "virtual (host)" if not kind.general_purpose else "native",
                "communication": comm,
                "programming_model": model,
                "cfork": kind.general_purpose,
                "vs_caching": kind is PuKind.FPGA,
                "nipc_dag": True,
            }
        return matrix
