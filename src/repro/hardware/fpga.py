"""FPGA device model: fabric resources, images, programming, DRAM banks.

The model mirrors how the paper's ``runf`` runtime drives a Xilinx
UltraScale+ device:

* the fabric has a fixed budget of LUTs/REGs/BRAMs/DSPs (Table 4);
* a *bitstream image* packs a wrapper (shell) plus one or more kernel
  instances — vectorized sandboxes flush many instances in one image;
* programming = optional erase + load (Fig. 10c timings);
* the FPGA-attached DRAM is split into banks; with *data retention*
  enabled, bank contents survive re-programming (§4.3 zero-copy chains).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro import config
from repro.errors import FaultInjectedError, FpgaResourceError, FpgaStateError
from repro.hardware.pu import ProcessingUnit, PuKind
from repro.sim import Simulator


@dataclass(frozen=True)
class FabricResources:
    """A bundle of FPGA fabric resources."""

    luts: float = 0.0
    regs: float = 0.0
    brams: float = 0.0
    dsps: float = 0.0

    def __add__(self, other: "FabricResources") -> "FabricResources":
        return FabricResources(
            self.luts + other.luts,
            self.regs + other.regs,
            self.brams + other.brams,
            self.dsps + other.dsps,
        )

    def scaled(self, count: int) -> "FabricResources":
        """This bundle replicated ``count`` times."""
        return FabricResources(
            self.luts * count, self.regs * count, self.brams * count, self.dsps * count
        )

    def fits_within(self, budget: "FabricResources") -> bool:
        """True if every component is within ``budget``."""
        return (
            self.luts <= budget.luts
            and self.regs <= budget.regs
            and self.brams <= budget.brams
            and self.dsps <= budget.dsps
        )

    def fraction_of(self, budget: "FabricResources") -> dict[str, float]:
        """Utilisation fractions per component."""
        return {
            "luts": self.luts / budget.luts if budget.luts else 0.0,
            "regs": self.regs / budget.regs if budget.regs else 0.0,
            "brams": self.brams / budget.brams if budget.brams else 0.0,
            "dsps": self.dsps / budget.dsps if budget.dsps else 0.0,
        }


#: Fabric totals of one AWS F1 UltraScale+ device (Table 4).
F1_TOTALS = FabricResources(
    luts=config.F1_FABRIC.luts,
    regs=config.F1_FABRIC.regs,
    brams=config.F1_FABRIC.brams,
    dsps=config.F1_FABRIC.dsps,
)

#: Static wrapper (shell) overhead included in every image (§6.4: ~5% LUTs).
WRAPPER_OVERHEAD = FabricResources(
    luts=config.WRAPPER_LUTS,
    regs=config.WRAPPER_REGS,
    brams=config.WRAPPER_BRAMS,
    dsps=config.WRAPPER_DSPS,
)


@dataclass(frozen=True)
class KernelSpec:
    """One compiled FPGA kernel (an HLS/OpenCL function)."""

    name: str
    resources: FabricResources
    #: Execution time of one invocation on the fabric (seconds); may be
    #: a base + per-unit model evaluated by the workload layer.
    exec_time_s: float
    #: DRAM bank demand of one instance (MB).
    dram_mb: float = 64.0


@dataclass
class KernelInstance:
    """One placed instance of a kernel inside an image (a vFPGA slot)."""

    kernel: KernelSpec
    slot: int
    dram_bank: Optional[int] = None


class FpgaImage:
    """A bitstream: wrapper + a vector of kernel instances.

    Built by the vectorized ``create`` interface: ``runf`` packs a whole
    vector of sandboxes into one image so later requests hit a cached
    instance without re-programming (§3.5).
    """

    def __init__(self, name: str, kernels: list[KernelSpec]):
        if not kernels:
            raise FpgaResourceError("an FPGA image needs at least one kernel")
        self.name = name
        self.instances = [
            KernelInstance(kernel=kernel, slot=slot)
            for slot, kernel in enumerate(kernels)
        ]

    @property
    def kernel_names(self) -> list[str]:
        """Names of all packed kernel instances (with duplicates)."""
        return [inst.kernel.name for inst in self.instances]

    def resources(self) -> FabricResources:
        """Total fabric demand: wrapper + every instance."""
        total = WRAPPER_OVERHEAD
        for inst in self.instances:
            total = total + inst.kernel.resources
        return total

    def find_instance(self, kernel_name: str) -> Optional[KernelInstance]:
        """First placed instance of ``kernel_name``, if any."""
        for inst in self.instances:
            if inst.kernel.name == kernel_name:
                return inst
        return None

    def count(self, kernel_name: str) -> int:
        """Number of placed instances of ``kernel_name``."""
        return sum(1 for inst in self.instances if inst.kernel.name == kernel_name)


@dataclass
class DramBank:
    """One FPGA-attached DRAM bank.

    ``payload`` holds the tag of the data currently resident; with data
    retention the payload survives image re-programming, enabling the
    zero-copy function chains of §4.3.
    """

    index: int
    size_mb: float
    payload: Optional[str] = None
    owner_slot: Optional[int] = None


class FpgaDevice:
    """A programmable FPGA attached to a host PU via DMA."""

    def __init__(
        self,
        sim: Simulator,
        pu: ProcessingUnit,
        totals: FabricResources = F1_TOTALS,
        num_dram_banks: int = 4,
        dram_bank_mb: float = 16 * 1024,
        data_retention: bool = True,
        costs: config.FpgaCosts = config.FPGA_COSTS,
    ):
        if pu.kind is not PuKind.FPGA:
            raise FpgaStateError(f"PU {pu.name} is not an FPGA")
        self.sim = sim
        self.pu = pu
        self.totals = totals
        self.costs = costs
        self.data_retention = data_retention
        self.image: Optional[FpgaImage] = None
        #: Partial-reconfiguration regions (None until enabled).
        self.regions: Optional[list[Optional[KernelSpec]]] = None
        #: True when the fabric still holds a stale (unerased) image.
        self.dirty = False
        self.banks = [
            DramBank(index=i, size_mb=dram_bank_mb) for i in range(num_dram_banks)
        ]
        #: Cumulative counts for tests/reports.
        self.erase_count = 0
        self.program_count = 0
        #: Fault injection: the next N ``program`` calls fail after
        #: paying the load time (a corrupted / rejected bitstream).
        self.fail_next_programs = 0

    # -- programming -----------------------------------------------------------

    def check_fits(self, image: FpgaImage) -> None:
        """Raise :class:`FpgaResourceError` if ``image`` exceeds the fabric."""
        demand = image.resources()
        if not demand.fits_within(self.totals):
            raise FpgaResourceError(
                f"image {image.name!r} needs {demand} which exceeds {self.totals}"
            )

    def program(self, image: FpgaImage, erase_first: bool = True):
        """Generator: program ``image``, optionally erasing first.

        Skipping the erase is Molecule's "No-Erase" optimisation
        (Fig. 10c): the incoming bitstream simply replaces the old one.
        With data retention, DRAM bank payloads survive; otherwise they
        are cleared.
        """
        if self.partial_reconfig_enabled:
            raise FpgaStateError(
                "fabric is partitioned into regions; use program_region"
            )
        self.check_fits(image)
        if erase_first and self.dirty:
            yield self.sim.timeout(self.costs.erase_s)
            self.erase_count += 1
            self.dirty = False
        yield self.sim.timeout(self.costs.load_image_s)
        if self.fail_next_programs > 0:
            # The load completed but the bitstream did not come up: the
            # fabric is left without a valid image.
            self.fail_next_programs -= 1
            self.image = None
            self.dirty = True
            raise FaultInjectedError(
                f"bitstream load of {image.name!r} failed"
            )
        self.image = image
        self.dirty = True
        self.program_count += 1
        if not self.data_retention:
            for bank in self.banks:
                bank.payload = None
                bank.owner_slot = None
        return image

    # -- partial reconfiguration ---------------------------------------------------

    def enable_partial_reconfiguration(self, num_regions: int) -> None:
        """Split the fabric into ``num_regions`` reconfigurable regions.

        §3.5: "Even with techniques like partial re-configuration, one
        FPGA can only support very limited regions" — each region gets
        an equal slice of the fabric budget, and only whole regions can
        be reprogrammed.  Mutually exclusive with a loaded full image.
        """
        if num_regions < 1 or num_regions > 8:
            raise FpgaStateError(
                f"partial reconfiguration supports 1-8 regions, got {num_regions}"
            )
        if self.image is not None:
            raise FpgaStateError("cannot partition a fabric holding a full image")
        slice_budget = FabricResources(
            luts=self.totals.luts / num_regions,
            regs=self.totals.regs / num_regions,
            brams=self.totals.brams / num_regions,
            dsps=self.totals.dsps / num_regions,
        )
        self.regions: list[Optional[KernelSpec]] = [None] * num_regions
        self._region_budget = slice_budget

    @property
    def partial_reconfig_enabled(self) -> bool:
        """True once the fabric has been partitioned into regions."""
        return getattr(self, "regions", None) is not None

    def program_region(self, region: int, kernel: KernelSpec):
        """Generator: reprogram ONE region without touching the others.

        Loads only a region-sized bitstream (proportionally faster than
        a full-image load), but the kernel must fit the region's slice
        of the fabric — the scaling limitation the paper contrasts with
        vectorized images.
        """
        if not self.partial_reconfig_enabled:
            raise FpgaStateError("partial reconfiguration is not enabled")
        if not 0 <= region < len(self.regions):
            raise FpgaStateError(f"no region {region}")
        demand = kernel.resources + WRAPPER_OVERHEAD.scaled(1)
        if not demand.fits_within(self._region_budget):
            raise FpgaResourceError(
                f"kernel {kernel.name!r} (+shell) exceeds the region budget"
            )
        yield self.sim.timeout(self.costs.load_image_s / len(self.regions))
        self.regions[region] = kernel
        self.program_count += 1
        return kernel

    def region_kernel_names(self) -> list[Optional[str]]:
        """Resident kernel per region (None for empty regions)."""
        if not self.partial_reconfig_enabled:
            return []
        return [k.name if k else None for k in self.regions]

    # -- DRAM banks --------------------------------------------------------------

    def assign_bank(self, slot: int) -> DramBank:
        """Statically assign a free DRAM bank to an instance slot (§5:
        two instances share a bank only if they never run concurrently)."""
        for bank in self.banks:
            if bank.owner_slot is None or bank.owner_slot == slot:
                bank.owner_slot = slot
                return bank
        raise FpgaStateError("no free DRAM bank for instance")

    def bank_with_payload(self, payload: str) -> Optional[DramBank]:
        """Find the bank currently holding ``payload`` (retention hits)."""
        for bank in self.banks:
            if bank.payload == payload:
                return bank
        return None

    # -- execution ---------------------------------------------------------------

    def invoke(self, kernel_name: str):
        """Generator: execute one invocation of a resident kernel
        (from the full image, or from a reconfigurable region)."""
        if self.partial_reconfig_enabled:
            for kernel in self.regions:
                if kernel is not None and kernel.name == kernel_name:
                    self.pu.clock.mark_busy()
                    yield self.sim.timeout(kernel.exec_time_s)
                    self.pu.clock.mark_idle()
                    return kernel
            raise FpgaStateError(f"kernel {kernel_name!r} is in no region")
        if self.image is None:
            raise FpgaStateError("device is not programmed")
        instance = self.image.find_instance(kernel_name)
        if instance is None:
            raise FpgaStateError(
                f"kernel {kernel_name!r} is not in image {self.image.name!r}"
            )
        self.pu.clock.mark_busy()
        yield self.sim.timeout(instance.kernel.exec_time_s)
        self.pu.clock.mark_idle()
        return instance

    def has_kernel(self, kernel_name: str) -> bool:
        """True if the resident image or a region holds ``kernel_name``."""
        if self.partial_reconfig_enabled:
            return kernel_name in self.region_kernel_names()
        return self.image is not None and self.image.find_instance(kernel_name) is not None
