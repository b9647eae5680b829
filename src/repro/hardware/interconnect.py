"""Interconnect model: the links between processing units.

Each pair of directly connected PUs is joined by a :class:`Link` with a
kind (RDMA / DMA / host network / loopback), a base latency and a
bandwidth.  The :class:`Interconnect` owns the link graph, computes
routes (including the paper's CPU-intercepted DPU<->FPGA path, §5
"Limitations") and prices transfers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Optional

from repro import config
from repro.errors import RoutingError
from repro.hardware.pu import ProcessingUnit


class LinkKind(enum.Enum):
    """Physical transport of a link."""

    LOOPBACK = "loopback"  # same PU, shared memory
    RDMA = "rdma"          # CPU <-> DPU over PCIe (the only exported path, §5)
    DMA = "dma"            # CPU <-> FPGA/GPU over PCIe DMA
    NETWORK = "network"    # host networking (used by baselines)


_LINK_COSTS = {
    LinkKind.LOOPBACK: config.LinkCosts(latency_us=0.0, bandwidth_gbps=100.0),
    LinkKind.RDMA: config.RDMA_LINK,
    LinkKind.DMA: config.DMA_LINK,
    LinkKind.NETWORK: config.NETWORK_LINK,
}


@dataclass(frozen=True)
class Link:
    """A direct connection between two PUs."""

    a: int  # pu_id
    b: int  # pu_id
    kind: LinkKind

    @property
    def costs(self) -> config.LinkCosts:
        """Latency/bandwidth parameters for this link kind."""
        return _LINK_COSTS[self.kind]

    def transfer_time(self, nbytes: int) -> float:
        """Wire time to move ``nbytes`` across this link."""
        costs = self.costs
        return costs.latency_us * config.US + nbytes / (
            costs.bandwidth_gbps * config.GB
        )


@dataclass(frozen=True)
class DegradedLink(Link):
    """A link operating under an injected degradation fault.

    Latency is multiplied by ``latency_factor`` and bandwidth divided
    by ``bandwidth_factor`` (both >= 1 for a degradation).  Routes
    computed while the fault is active price transfers accordingly.
    """

    latency_factor: float = 1.0
    bandwidth_factor: float = 1.0

    def transfer_time(self, nbytes: int) -> float:
        costs = self.costs
        bandwidth = costs.bandwidth_gbps / self.bandwidth_factor
        return costs.latency_us * self.latency_factor * config.US + nbytes / (
            bandwidth * config.GB
        )


@dataclass(frozen=True)
class Route:
    """A path between two PUs: an ordered list of links.

    ``intercepted_by`` is set when the route bounces through an
    intermediate general-purpose PU (the CPU-intercepted DPU<->FPGA
    path of §5).
    """

    src: int
    dst: int
    links: tuple[Link, ...]
    intercepted_by: Optional[int] = None

    @property
    def hop_count(self) -> int:
        """Number of physical links traversed."""
        return len(self.links)

    def transfer_time(self, nbytes: int) -> float:
        """Total wire time across all hops (store-and-forward)."""
        return sum(link.transfer_time(nbytes) for link in self.links)


class Interconnect:
    """The link graph of one heterogeneous computer."""

    def __init__(self):
        self._links: dict[frozenset[int], Link] = {}
        self._neighbors: dict[int, set[int]] = {}
        #: Active degradation faults: link key -> (latency, bandwidth)
        #: slowdown factors.
        self._degraded: dict[frozenset[int], tuple[float, float]] = {}

    def add_link(self, a: ProcessingUnit, b: ProcessingUnit, kind: LinkKind) -> Link:
        """Directly connect PUs ``a`` and ``b``."""
        key = frozenset((a.pu_id, b.pu_id))
        if len(key) != 2:
            raise RoutingError("cannot link a PU to itself")
        link = Link(a.pu_id, b.pu_id, kind)
        self._links[key] = link
        self._neighbors.setdefault(a.pu_id, set()).add(b.pu_id)
        self._neighbors.setdefault(b.pu_id, set()).add(a.pu_id)
        return link

    def link_between(self, a: int, b: int) -> Optional[Link]:
        """The direct link between two PU ids, if one exists.

        While a degradation fault is active on the link, a
        :class:`DegradedLink` view with the fault's slowdown factors is
        returned instead of the pristine link.
        """
        key = frozenset((a, b))
        link = self._links.get(key)
        if link is None:
            return None
        factors = self._degraded.get(key)
        if factors is None:
            return link
        return DegradedLink(
            link.a, link.b, link.kind,
            latency_factor=factors[0], bandwidth_factor=factors[1],
        )

    def degrade(
        self, a: int, b: int,
        latency_factor: float = 1.0, bandwidth_factor: float = 1.0,
    ) -> None:
        """Put a degradation fault on the direct link between two PUs."""
        key = frozenset((a, b))
        if key not in self._links:
            raise RoutingError(f"no direct link between PU {a} and PU {b}")
        if latency_factor < 1.0 or bandwidth_factor < 1.0:
            raise RoutingError(
                "degradation factors must be >= 1 "
                f"(got {latency_factor}, {bandwidth_factor})"
            )
        self._degraded[key] = (latency_factor, bandwidth_factor)

    def restore(self, a: int, b: int) -> None:
        """Lift the degradation fault from a link (no-op when absent)."""
        self._degraded.pop(frozenset((a, b)), None)

    def neighbors(self, pu_id: int) -> Iterable[int]:
        """PU ids directly connected to ``pu_id``."""
        return sorted(self._neighbors.get(pu_id, ()))

    def route(self, src: int, dst: int) -> Route:
        """Compute the route between two PUs.

        Same PU -> loopback.  Direct link -> one hop.  Otherwise a
        two-hop CPU-intercepted path through a shared neighbour is used
        (matching the prototype's stated limitation); longer paths are
        found by BFS as a fallback.
        """
        if src == dst:
            loop = Link(src, dst, LinkKind.LOOPBACK)
            return Route(src, dst, (loop,))
        direct = self.link_between(src, dst)
        if direct is not None:
            return Route(src, dst, (direct,))
        shared = set(self._neighbors.get(src, ())) & set(self._neighbors.get(dst, ()))
        if shared:
            via = min(shared)
            first = self.link_between(src, via)
            second = self.link_between(via, dst)
            assert first is not None and second is not None
            return Route(src, dst, (first, second), intercepted_by=via)
        path = self._bfs(src, dst)
        if path is None:
            raise RoutingError(f"no route between PU {src} and PU {dst}")
        links = []
        for a, b in zip(path, path[1:]):
            link = self.link_between(a, b)
            assert link is not None
            links.append(link)
        return Route(src, dst, tuple(links), intercepted_by=path[1])

    def _bfs(self, src: int, dst: int) -> Optional[list[int]]:
        frontier = [[src]]
        seen = {src}
        while frontier:
            next_frontier = []
            for path in frontier:
                for neighbor in self.neighbors(path[-1]):
                    if neighbor in seen:
                        continue
                    new_path = path + [neighbor]
                    if neighbor == dst:
                        return new_path
                    seen.add(neighbor)
                    next_frontier.append(new_path)
            frontier = next_frontier
        return None
