"""Distributed capabilities (§3.2).

XPU-Shim maintains global resources and permissions with *distributed
objects* and *capabilities*.  Two distributed object kinds exist in the
prototype: ``CAP_Group`` (all capabilities of a process) and ``IPC``
(the XPU-FIFO connection object).

A process is globally identified by an *xpu_pid* encoding (PU-ID,
local UUID) — the static partitioning that lets process creation avoid
any cross-PU synchronisation (§5 "no synchronization").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.errors import CapabilityError, UnknownObjectError


class XpuPid(NamedTuple):
    """Globally unique process id: (PU id, local OS UUID)."""

    pu_id: int
    local_uid: int

    def encode(self) -> int:
        """Pack into a single integer (PU id in the high bits)."""
        return (self.pu_id << 32) | (self.local_uid & 0xFFFFFFFF)

    @classmethod
    def decode(cls, value: int) -> "XpuPid":
        """Unpack an encoded xpu_pid."""
        return cls(pu_id=value >> 32, local_uid=value & 0xFFFFFFFF)


class Permission(enum.Flag):
    """Access rights carried by one capability."""

    NONE = 0
    READ = enum.auto()
    WRITE = enum.auto()
    #: The owner may grant/revoke access to the object (§3.2).
    OWNER = enum.auto()
    ALL = READ | WRITE | OWNER


@dataclass(frozen=True)
class ObjectId:
    """Identity of a distributed object."""

    kind: str  # "fifo" | "cap_group" | ...
    uuid: str

    def __str__(self) -> str:
        return f"{self.kind}:{self.uuid}"


class CapGroup:
    """The CAP_Group distributed object: a process's capability list."""

    def __init__(self, xpu_pid: XpuPid, name: str = ""):
        self.xpu_pid = xpu_pid
        self.name = name
        self._caps: dict[ObjectId, Permission] = {}

    def permissions_for(self, obj_id: ObjectId) -> Permission:
        """Current rights on ``obj_id`` (NONE when absent)."""
        return self._caps.get(obj_id, Permission.NONE)

    def has(self, obj_id: ObjectId, perm: Permission) -> bool:
        """True if this group holds every bit of ``perm`` on the object."""
        return (self.permissions_for(obj_id) & perm) == perm

    def add(self, obj_id: ObjectId, perm: Permission) -> None:
        """Add rights (union with any existing ones)."""
        self._caps[obj_id] = self.permissions_for(obj_id) | perm

    def remove(self, obj_id: ObjectId, perm: Permission) -> None:
        """Remove specific rights; drops the entry if nothing is left."""
        remaining = self.permissions_for(obj_id) & ~perm
        if remaining is Permission.NONE:
            self._caps.pop(obj_id, None)
        else:
            self._caps[obj_id] = remaining

    def require(self, obj_id: ObjectId, perm: Permission) -> None:
        """Raise :class:`CapabilityError` unless ``perm`` is held.

        This is the check performed inside every XPUcall (§3.2).
        """
        if not self.has(obj_id, perm):
            raise CapabilityError(
                f"process {self.xpu_pid} lacks {perm!r} on {obj_id}"
            )

    def capabilities(self) -> dict[ObjectId, Permission]:
        """A snapshot of all held capabilities."""
        return dict(self._caps)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<CapGroup {self.xpu_pid} caps={len(self._caps)}>"


class CapabilityTable:
    """The cluster-wide registry of CAP_Groups and distributed objects.

    Conceptually replicated on every PU; the synchronisation strategies
    of :mod:`repro.xpu.sync` govern when replicas converge.  Capability
    *updates* are synchronised immediately so permission checks always
    complete locally (§5 "Immediate synchronization").
    """

    def __init__(self):
        self._groups: dict[XpuPid, CapGroup] = {}
        self._objects: dict[ObjectId, object] = {}

    # -- groups -----------------------------------------------------------------

    def register_group(self, group: CapGroup) -> None:
        """Add a new process's CAP_Group."""
        if group.xpu_pid in self._groups:
            raise CapabilityError(f"duplicate CAP_Group for {group.xpu_pid}")
        self._groups[group.xpu_pid] = group

    def drop_group(self, xpu_pid: XpuPid) -> None:
        """Remove a CAP_Group (process exit)."""
        self._groups.pop(xpu_pid, None)

    def group(self, xpu_pid: XpuPid) -> CapGroup:
        """CAP_Group of a process (raises for unknown pids)."""
        try:
            return self._groups[xpu_pid]
        except KeyError:
            raise UnknownObjectError(f"no CAP_Group for {xpu_pid}") from None

    def known_pids(self) -> list[XpuPid]:
        """All registered xpu_pids."""
        return sorted(self._groups)

    # -- objects -------------------------------------------------------------------

    def register_object(self, obj_id: ObjectId, obj: object) -> None:
        """Register a distributed object instance."""
        if obj_id in self._objects:
            raise CapabilityError(f"duplicate distributed object {obj_id}")
        self._objects[obj_id] = obj

    def drop_object(self, obj_id: ObjectId) -> None:
        """Remove a distributed object."""
        self._objects.pop(obj_id, None)

    def lookup(self, obj_id: ObjectId) -> object:
        """Resolve a distributed object (raises when missing)."""
        try:
            return self._objects[obj_id]
        except KeyError:
            raise UnknownObjectError(f"no distributed object {obj_id}") from None

    def known_objects(self) -> list[ObjectId]:
        """All registered distributed object ids."""
        return sorted(self._objects, key=str)

    def has_object(self, obj_id: ObjectId) -> bool:
        """True if the object is registered."""
        return obj_id in self._objects
