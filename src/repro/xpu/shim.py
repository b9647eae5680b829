"""XPU-Shim: the distributed shim between one serverless runtime and
many local OSes (§3.1).

One :class:`XpuShim` instance runs on every general-purpose PU;
accelerators are fronted by a *virtual* shim instance hosted on a
neighbouring CPU/DPU (§4.1).  The :class:`ShimCluster` holds the global
state all instances agree on — CAP_Groups, distributed objects, FIFO
UUIDs — kept consistent by the strategies in :mod:`repro.xpu.sync`.

All XPUcall methods are simulation generators: they charge the
transport overhead of reaching the local shim daemon (Fig. 7), perform
capability checks, and pay interconnect costs for cross-PU effects.
"""

from __future__ import annotations

import itertools
from typing import Any, Optional, Sequence

from repro import config
from repro.errors import CapabilityError, FifoError, XpuError
from repro.hardware.machine import HeterogeneousComputer
from repro.hardware.pu import ProcessingUnit
from repro.multios.os import OsInstance
from repro.sim import Simulator
from repro.xpu.capability import (
    CapabilityTable,
    CapGroup,
    ObjectId,
    Permission,
    XpuPid,
)
from repro.xpu.fifo import FifoEnd, XpuFifo, XpuFifoHandle
from repro.xpu.sync import SyncManager
from repro.xpu.xpucall import XpucallTransport, default_transport


class FifoFault:
    """One active XPU-FIFO fault window, installed by the fault
    injector.

    ``mode`` is ``"drop"`` (the message is paid for but never
    deposited) or ``"delay"`` (an extra ``delay_s`` is charged before
    the deposit).  ``uuid`` scopes the window to one FIFO, or ``"*"``
    for every FIFO.  ``probability`` draws per message from a seeded
    stream, keeping runs reproducible; ``until_s`` bounds the window.
    """

    def __init__(
        self,
        uuid: str,
        mode: str,
        probability: float = 1.0,
        delay_s: float = 0.0,
        until_s: Optional[float] = None,
        rng=None,
    ):
        if mode not in ("drop", "delay"):
            raise FifoError(f"unknown FIFO fault mode: {mode!r}")
        self.uuid = uuid
        self.mode = mode
        self.probability = probability
        self.delay_s = delay_s
        self.until_s = until_s
        self.rng = rng
        #: Messages this window actually hit.
        self.hits = 0

    def matches(self, fifo_uuid: str, now: float) -> bool:
        """True while the window covers this FIFO at this time."""
        if self.until_s is not None and now > self.until_s:
            return False
        return self.uuid == "*" or self.uuid == fifo_uuid

    def fires(self) -> bool:
        """Draw whether this message is hit (seeded, reproducible)."""
        if self.probability >= 1.0:
            return True
        if self.rng is None:
            return False
        return self.rng.uniform(0.0, 1.0) < self.probability


class ShimCluster:
    """The distributed XPU-Shim deployment on one machine."""

    def __init__(
        self,
        sim: Simulator,
        machine: HeterogeneousComputer,
        obs: Optional[object] = None,
    ):
        self.sim = sim
        self.machine = machine
        self.captable = CapabilityTable()
        self.sync = SyncManager(sim, machine)
        self.shims: dict[int, "XpuShim"] = {}
        self._uid_counters: dict[int, itertools.count] = {}
        #: Sequence numbers for the FIFO uuids minted per DAG request,
        #: shared by every DAG engine on the machine so their global
        #: uuids never collide.
        self.fifo_seq = itertools.count(1)
        #: Optional :class:`repro.obs.Observability` hub; every shim
        #: instance reports XPUcall and nIPC metrics through it.
        self.obs = obs
        #: Active XPU-FIFO fault windows (see :class:`FifoFault`).
        self.fifo_faults: list[FifoFault] = []

    def active_fifo_fault(self, fifo_uuid: str) -> Optional[FifoFault]:
        """The first fault window covering ``fifo_uuid`` right now."""
        for fault in self.fifo_faults:
            if fault.matches(fifo_uuid, self.sim.now):
                return fault
        return None

    # -- deployment --------------------------------------------------------------

    def install(
        self,
        pu: ProcessingUnit,
        os_instance: Optional[OsInstance] = None,
        transport: Optional[XpucallTransport] = None,
    ) -> "XpuShim":
        """Start a shim instance on a general-purpose PU."""
        if not pu.is_general_purpose:
            raise XpuError(
                f"{pu.name} cannot run a shim directly; use install_virtual"
            )
        if pu.pu_id in self.shims:
            raise XpuError(f"shim already installed on {pu.name}")
        shim = XpuShim(self, pu, os_instance, transport or default_transport(pu))
        self.shims[pu.pu_id] = shim
        return shim

    def install_virtual(self, accel_pu: ProcessingUnit, host_shim: "XpuShim") -> "XpuShim":
        """Start a virtual shim for an accelerator on its host PU (§4.1)."""
        if accel_pu.is_general_purpose:
            raise XpuError(f"{accel_pu.name} is general purpose; use install")
        if accel_pu.pu_id in self.shims:
            raise XpuError(f"shim already installed for {accel_pu.name}")
        shim = XpuShim(
            self,
            accel_pu,
            host_shim.os,
            host_shim.transport,
            exec_pu=host_shim.pu,
        )
        self.shims[accel_pu.pu_id] = shim
        return shim

    def shim_on(self, pu_id: int) -> "XpuShim":
        """The shim instance for a PU id."""
        try:
            return self.shims[pu_id]
        except KeyError:
            raise XpuError(f"no XPU-Shim on PU {pu_id}") from None

    # -- global process registry -------------------------------------------------

    def allocate_xpu_pid(self, pu_id: int, local_uid: Optional[int] = None) -> XpuPid:
        """Mint a globally unique xpu_pid.

        Thanks to static partitioning (PU id in the high bits) this is
        purely local — no synchronisation round (§5).
        """
        counter = self._uid_counters.setdefault(pu_id, itertools.count(1))
        uid = local_uid if local_uid is not None else next(counter)
        return XpuPid(pu_id=pu_id, local_uid=uid)

    def register_process(self, pu_id: int, name: str = "", local_uid: Optional[int] = None) -> CapGroup:
        """Create and register a CAP_Group for a new process."""
        xpu_pid = self.allocate_xpu_pid(pu_id, local_uid)
        group = CapGroup(xpu_pid, name=name)
        self.captable.register_group(group)
        return group


class XpuShim:
    """One XPU-Shim instance (real on CPU/DPU, virtual for accelerators)."""

    def __init__(
        self,
        cluster: ShimCluster,
        pu: ProcessingUnit,
        os_instance: Optional[OsInstance],
        transport: XpucallTransport,
        exec_pu: Optional[ProcessingUnit] = None,
    ):
        self.cluster = cluster
        self.pu = pu
        self.os = os_instance
        self.transport = transport
        #: Where this shim's software actually executes: the PU itself,
        #: or the host PU for a virtual (accelerator) shim.
        self.exec_pu = exec_pu or pu
        #: XPUcall counter for tests and reports.
        self.calls_served = 0

    @property
    def sim(self) -> Simulator:
        """The simulator this shim runs on."""
        return self.cluster.sim

    # -- plumbing ----------------------------------------------------------------

    def _xpucall_overhead(self):
        """Generator: charge the local user<->shim transport cost."""
        round_trip = self.transport.round_trip_time(self.exec_pu)
        yield self.sim.timeout(round_trip)
        self.calls_served += 1
        obs = self.cluster.obs
        if obs is not None:
            labels = (self.pu.kind.value, self.transport.value)
            obs.metrics.xpucalls_total.child(*labels).inc()
            obs.metrics.xpucall_seconds.child(*labels).observe(round_trip)

    def _route_to(self, other_pu_id: int):
        return self.cluster.machine.interconnect.route(self.pu.pu_id, other_pu_id)

    # -- Table 2: distributed capability calls --------------------------------------

    def get_xpupid(self, group: CapGroup):
        """XPUcall ``get_xpupid``: the caller's global id."""
        yield from self._xpucall_overhead()
        return group.xpu_pid

    def grant_cap(self, caller: CapGroup, target: XpuPid, obj_id: ObjectId, perm: Permission):
        """XPUcall ``grant_cap``: give ``target`` rights on an object.

        Only an OWNER may grant.  The update synchronises immediately so
        later checks are local everywhere (§5).
        """
        yield from self._xpucall_overhead()
        caller.require(obj_id, Permission.OWNER)
        target_group = self.cluster.captable.group(target)
        yield from self.cluster.sync.immediate(
            self.pu.pu_id, lambda: target_group.add(obj_id, perm)
        )
        return 0

    def revoke_cap(self, caller: CapGroup, target: XpuPid, obj_id: ObjectId, perm: Permission):
        """XPUcall ``revoke_cap``: remove rights previously granted."""
        yield from self._xpucall_overhead()
        caller.require(obj_id, Permission.OWNER)
        target_group = self.cluster.captable.group(target)
        yield from self.cluster.sync.immediate(
            self.pu.pu_id, lambda: target_group.remove(obj_id, perm)
        )
        return 0

    # -- Table 2: neighbour IPC calls ---------------------------------------------------

    def xfifo_init(self, caller: CapGroup, local_uuid: str, global_uuid: str):
        """XPUcall ``xfifo_init``: create an XPU-FIFO homed on this PU.

        The global UUID must be unique machine-wide, so registration is
        an immediate synchronisation round (§5).
        """
        yield from self._xpucall_overhead()
        obj_id = ObjectId("fifo", global_uuid)
        if self.cluster.captable.has_object(obj_id):
            raise FifoError(f"XPU-FIFO uuid {global_uuid!r} already in use")
        fifo = XpuFifo(self.sim, global_uuid, local_uuid, self.pu)
        yield from self.cluster.sync.immediate(
            self.pu.pu_id,
            lambda: self.cluster.captable.register_object(obj_id, fifo),
        )
        caller.add(obj_id, Permission.ALL)
        return XpuFifoHandle(fifo, FifoEnd.BOTH, self.pu)

    def xfifo_connect(self, caller: CapGroup, global_uuid: str, end: FifoEnd = FifoEnd.WRITE):
        """XPUcall ``xfifo_connect``: open a descriptor on an XPU-FIFO.

        The capability check requires read or write permission (§3.2).
        """
        yield from self._xpucall_overhead()
        obj_id = ObjectId("fifo", global_uuid)
        caller.require(obj_id, end.permission())
        fifo = self.cluster.captable.lookup(obj_id)
        assert isinstance(fifo, XpuFifo)
        return XpuFifoHandle(fifo, end, self.pu)

    def xfifo_close(self, caller: CapGroup, handle: XpuFifoHandle):
        """XPUcall ``xfifo_close``: drop a descriptor.

        When the reference count reaches zero the FIFO's resources are
        revoked locally and the UUID reclamation propagates lazily (§5).
        """
        yield from self._xpucall_overhead()
        remaining = handle.close()
        if remaining == 0:
            fifo = handle.fifo
            fifo.closed = True
            self.cluster.sync.lazy(
                lambda: self.cluster.captable.drop_object(fifo.obj_id)
            )
        return 0

    def xfifo_write(self, caller: CapGroup, handle: XpuFifoHandle, payload: Any, size: int):
        """XPUcall ``xfifo_write``: send a message.

        Local fast path: a plain FIFO write (copy + notify), no shim.
        Cross-PU (neighbour IPC): shim transport + interconnect transfer
        + remote deposit.
        """
        handle.require_open()
        if size < 0:
            raise FifoError(f"negative message size: {size}")
        if not handle.end.permission() & Permission.WRITE:
            raise CapabilityError("handle is read-only")
        caller.require(handle.fifo.obj_id, Permission.WRITE)
        obs = self.cluster.obs
        fault = self.cluster.active_fifo_fault(handle.fifo.global_uuid)
        dropped = False
        if fault is not None and fault.fires():
            fault.hits += 1
            if fault.mode == "delay":
                yield self.sim.timeout(fault.delay_s)
                if obs is not None:
                    obs.metrics.nipc_delayed_total.inc()
            else:  # drop: transport costs are still paid below
                dropped = True
        if handle.is_local:
            yield self.sim.timeout(self.exec_pu.copy_time(size))
            yield self.sim.timeout(self.exec_pu.ipc_notify_time())
            if dropped:
                if obs is not None:
                    obs.metrics.nipc_dropped_total.inc()
                return size
            handle.fifo.deposit(payload, size)
            if obs is not None:
                obs.metrics.nipc_messages_total.child("local").inc()
                obs.metrics.nipc_bytes_total.child("local").inc(size)
            return size
        yield from self._xpucall_overhead()
        yield self.sim.timeout(self.exec_pu.copy_time(size))
        route = self._route_to(handle.fifo.home_pu.pu_id)
        yield self.sim.timeout(route.transfer_time(size))
        yield self.sim.timeout(handle.fifo.home_pu.op_time())
        if dropped:
            if obs is not None:
                obs.metrics.nipc_dropped_total.inc()
            return size
        handle.fifo.deposit(payload, size)
        if obs is not None:
            obs.metrics.nipc_messages_total.child("cross").inc()
            obs.metrics.nipc_bytes_total.child("cross").inc(size)
        return size

    def xfifo_read(self, caller: CapGroup, handle: XpuFifoHandle):
        """XPUcall ``xfifo_read``: block until a message arrives.

        Functions block on their self-FIFO with this call (§4.3).
        """
        handle.require_open()
        if not handle.end.permission() & Permission.READ:
            raise CapabilityError("handle is write-only")
        caller.require(handle.fifo.obj_id, Permission.READ)
        payload, size = yield handle.fifo.take()
        if not handle.is_local:
            route = self._route_to(handle.fifo.home_pu.pu_id)
            yield from self._xpucall_overhead()
            yield self.sim.timeout(route.transfer_time(size))
        yield self.sim.timeout(self.exec_pu.copy_time(size))
        return payload

    # -- Table 2: misc -------------------------------------------------------------------

    def xspawn(
        self,
        caller: CapGroup,
        target_pu_id: int,
        name: str,
        exec_ms: float = config.XSPAWN_EXEC_MS,
        capv: Sequence[tuple[ObjectId, Permission]] = (),
    ):
        """XPUcall ``xSpawn``: start a program on a neighbour PU.

        No permission is implicitly shared between parent and child; the
        explicit ``capv`` array carries every granted capability (§3.4).
        Returns the child's (xpu_pid, CapGroup, OsProcess).
        """
        yield from self._xpucall_overhead()
        target_shim = self.cluster.shim_on(target_pu_id)
        if target_shim.os is None:
            raise XpuError(f"PU {target_pu_id} runs no OS; cannot xSpawn onto it")
        route = self._route_to(target_pu_id)
        yield self.sim.timeout(route.transfer_time(256))  # command message
        process = yield from target_shim.os.spawn(name, exec_ms=exec_ms)
        group = self.cluster.register_process(
            target_pu_id, name=name, local_uid=process.pid
        )
        for obj_id, perm in capv:
            caller.require(obj_id, Permission.OWNER)
            group.add(obj_id, perm)
        yield self.sim.timeout(route.transfer_time(64))  # response message
        return group.xpu_pid, group, process
