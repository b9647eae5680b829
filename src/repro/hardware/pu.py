"""Processing-unit model.

A *processing unit* (PU) is one compute element of the heterogeneous
computer: the host CPU, a DPU, an FPGA, or a GPU.  General-purpose PUs
(CPU/DPU) run an OS and arbitrary processes; accelerators (FPGA/GPU)
only run kernels managed through a vectorized sandbox runtime and are
fronted by a virtual XPU-Shim instance on a neighbouring
general-purpose PU (paper §4.1).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro import config
from repro.errors import HardwareError
from repro.sim import Container, PreemptibleClock, Resource, Simulator


class PuKind(enum.Enum):
    """The architectural class of a processing unit."""

    CPU = "cpu"
    DPU = "dpu"
    FPGA = "fpga"
    GPU = "gpu"

    def __init__(self, value: str):
        #: True for PUs that run an OS and arbitrary processes (a plain
        #: attribute: the request path reads it on every attempt).
        self.general_purpose = value in ("cpu", "dpu")


class PriceClass(enum.Enum):
    """Relative billing classes (§4.1: DPU cheapest, FPGA most expensive)."""

    DPU = 0.6
    CPU = 1.0
    GPU = 2.5
    FPGA = 4.0

    def cost(self, duration_s: float, resource_units: float = 1.0) -> float:
        """Billing cost in abstract credit units, 1 ms granularity (§1)."""
        billed_ms = max(1.0, round(duration_s / config.MS))
        return self.value * billed_ms * resource_units


@dataclass(frozen=True)
class PuSpec:
    """Static description of a processing-unit model."""

    model: str
    kind: PuKind
    cores: int
    freq_ghz: float
    #: Single-thread speed relative to the reference Xeon server CPU.
    speed: float
    dram_mb: float
    reserved_mb: float
    costs: config.PuCosts
    price_class: PriceClass

    def usable_dram_mb(self) -> float:
        """DRAM available to function instances."""
        return self.dram_mb - self.reserved_mb


class ProcessingUnit:
    """A live PU inside a simulated machine.

    Owns the core pool (a counted :class:`Resource`), the DRAM pool (a
    :class:`Container` in MB) and a utilisation clock.
    """

    def __init__(self, sim: Simulator, pu_id: int, name: str, spec: PuSpec):
        self.sim = sim
        self.pu_id = pu_id
        self.name = name
        self.spec = spec
        #: Architectural class of this PU (``spec.kind``, as a plain
        #: attribute: the request path reads it several times a request).
        self.kind: PuKind = spec.kind
        self.cores = Resource(sim, capacity=spec.cores)
        self.dram = Container(sim, capacity=spec.usable_dram_mb(), init=0.0)
        self.clock = PreemptibleClock(sim)
        #: For accelerators: the general-purpose PU hosting the virtual
        #: XPU-Shim instance and executor for this device (§4.1).
        self.host_pu: Optional["ProcessingUnit"] = None

    @property
    def is_general_purpose(self) -> bool:
        """True if this PU runs an OS (CPU/DPU)."""
        return self.spec.kind.general_purpose

    # -- memory accounting ----------------------------------------------------

    @property
    def dram_used_mb(self) -> float:
        """MB of instance memory currently allocated."""
        return self.dram.level

    @property
    def dram_free_mb(self) -> float:
        """MB of instance memory still available."""
        return self.dram.capacity - self.dram.level

    def try_reserve_dram(self, mb: float) -> bool:
        """Immediately reserve ``mb`` of DRAM; False if it does not fit.

        Used by admission control: unlike ``dram.put`` this never queues.
        """
        if mb < 0:
            raise HardwareError(f"negative DRAM reservation: {mb}")
        if self.dram.level + mb > self.dram.capacity + 1e-9:
            return False
        self.dram.put(mb)
        return True

    def release_dram(self, mb: float) -> None:
        """Return a reservation made by :meth:`try_reserve_dram`."""
        self.dram.get(mb)

    # -- timing models ----------------------------------------------------------

    def compute_time(self, ref_cpu_seconds: float) -> float:
        """Wall time for work that takes ``ref_cpu_seconds`` on the
        reference CPU, scaled by this PU's relative speed."""
        if ref_cpu_seconds < 0:
            raise HardwareError(f"negative work: {ref_cpu_seconds}")
        return ref_cpu_seconds / self.spec.speed

    def ipc_notify_time(self) -> float:
        """One-way local IPC notification latency on this PU."""
        return self.spec.costs.ipc_notify_us * config.US

    def op_time(self, count: float = 1.0) -> float:
        """Time for ``count`` fixed user-space operations."""
        return self.spec.costs.op_us * count * config.US

    def copy_time(self, nbytes: int) -> float:
        """memcpy time for ``nbytes`` on this PU's cores."""
        return self.spec.costs.copy_us_per_kb * (nbytes / config.KB) * config.US

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<PU {self.pu_id} {self.name} ({self.spec.model})>"
