"""Keep-alive policies: which instances stay warm (§4.2, §5).

For CPU/DPU, warm instances live in per-PU pools with LRU eviction
(FaasCache-style greedy keep-alive is a drop-in policy).  For FPGA,
"keeping alive" means choosing which kernels are packed into the next
vectorized image; Molecule tends to cache the functions of one chain in
the same image (§5 "Keep-alive policies").
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Optional, TYPE_CHECKING

from repro.errors import SchedulingError
from repro.obs.metrics import MetricSpec

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.records import FunctionInstance


class WarmPool:
    """LRU pool of idle warm instances on one PU, with optional TTL.

    ``keep_alive_ttl_s`` bounds how long an idle instance survives:
    :meth:`reap_expired` (driven by the invoker's reaper process)
    removes instances idle longer than the TTL — the fixed-keep-alive
    policy commercial platforms use, and the baseline FaasCache-style
    policies improve on (§5).
    """

    def __init__(self, capacity: int = 64, keep_alive_ttl_s: Optional[float] = None):
        if capacity < 1:
            raise SchedulingError(f"warm pool capacity must be >= 1: {capacity}")
        if keep_alive_ttl_s is not None and keep_alive_ttl_s <= 0:
            raise SchedulingError(f"TTL must be positive: {keep_alive_ttl_s}")
        self.capacity = capacity
        self.keep_alive_ttl_s = keep_alive_ttl_s
        #: func_name -> TTL override; adaptive keep-alive (the warm-path
        #: pre-warmer) tunes these per function from the inter-arrival
        #: distribution.  Functions not listed use the pool-wide TTL.
        self.ttl_overrides: dict[str, float] = {}
        #: func_name -> list of (idle_since, instance).
        self._idle: OrderedDict[str, list] = OrderedDict()
        #: Idle instances over every bucket (kept as they come and go,
        #: so a release never sums the buckets).
        self._count = 0
        #: Cache statistics for reports.
        self.hits = 0
        self.misses = 0
        self.expired = 0

    def __len__(self) -> int:
        return self._count

    def acquire(self, func_name: str) -> Optional["FunctionInstance"]:
        """Take a warm instance of ``func_name``; None on a miss."""
        bucket = self._idle.get(func_name)
        if bucket:
            self._idle.move_to_end(func_name)
            self.hits += 1
            self._count -= 1
            _since, instance = bucket.pop()
            if not bucket:
                # Keep the invariant "every bucket is non-empty": an
                # emptied bucket left behind would drift to the LRU
                # front and crash the eviction loop's pop(0).
                del self._idle[func_name]
            return instance
        self.misses += 1
        return None

    def release(self, instance: "FunctionInstance", now: float = 0.0) -> list["FunctionInstance"]:
        """Return an instance to the pool; returns any LRU evictions."""
        name = instance.function.name
        self._idle.setdefault(name, []).append((now, instance))
        self._idle.move_to_end(name)
        self._count += 1
        evicted: list = []
        while self._count > self.capacity:
            oldest_name, bucket = next(iter(self._idle.items()))
            if not bucket:  # defensive: never pop an empty bucket
                del self._idle[oldest_name]
                continue
            evicted.append(bucket.pop(0)[1])
            self._count -= 1
            if not bucket:
                del self._idle[oldest_name]
        return evicted

    def ttl_for(self, func_name: str) -> Optional[float]:
        """The keep-alive TTL governing one function's idle instances."""
        return self.ttl_overrides.get(func_name, self.keep_alive_ttl_s)

    def reap_expired(self, now: float) -> list["FunctionInstance"]:
        """Remove instances idle past their function's keep-alive TTL."""
        if self.keep_alive_ttl_s is None and not self.ttl_overrides:
            return []
        reaped: list = []
        for name in list(self._idle):
            ttl = self.ttl_for(name)
            if ttl is None:
                continue
            bucket = self._idle[name]
            keep = []
            for since, instance in bucket:
                if now - since > ttl:
                    reaped.append(instance)
                else:
                    keep.append((since, instance))
            if keep:
                self._idle[name] = keep
            else:
                del self._idle[name]
        self.expired += len(reaped)
        self._count -= len(reaped)
        return reaped

    def idle_instances(
        self, func_name: Optional[str] = None
    ) -> list["FunctionInstance"]:
        """The idle instances currently pooled (without removing them).

        Public read-only view — tests and observability code should use
        this instead of reaching into the pool's internal buckets.
        ``func_name`` narrows the view to one function.
        """
        if func_name is not None:
            return [inst for _since, inst in self._idle.get(func_name, [])]
        return [
            inst for bucket in self._idle.values() for _since, inst in bucket
        ]

    def drop_all(self, func_name: str) -> list["FunctionInstance"]:
        """Remove every idle instance of one function."""
        dropped = [inst for _since, inst in self._idle.pop(func_name, [])]
        self._count -= len(dropped)
        return dropped

    @property
    def hit_rate(self) -> float:
        """Fraction of acquires served warm."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class GdsfWarmPool(WarmPool):
    """FaasCache-style greedy-dual keep-alive (drop-in WarmPool).

    Capacity evictions pick the function whose warm instances are
    cheapest to lose under the GDSF priority ``clock + freq * cost``
    (cost = the function's import/cold-start cost in ms, one cell per
    function), instead of plain pool-wide LRU.  Frequency counts warm
    hits, so a hot cheap function can still outrank a cold expensive
    one; the aging clock rises on every eviction so idle functions
    decay without any wall-clock input.  TTL reaping (and the adaptive
    per-function overrides) work unchanged on top.
    """

    def __init__(
        self, capacity: int = 64, keep_alive_ttl_s: Optional[float] = None
    ):
        super().__init__(capacity, keep_alive_ttl_s=keep_alive_ttl_s)
        from repro.reuse.gdsf import GreedyDualTracker

        self.tracker = GreedyDualTracker()

    @staticmethod
    def _cost(instance: "FunctionInstance") -> float:
        code = getattr(instance.function, "code", None)
        cost = getattr(code, "import_ms", None)
        return float(cost) if cost else 1.0

    def _sync_tracker(self) -> None:
        """Drop tracker cells for functions with no idle instances."""
        for key in self.tracker.keys():
            if key not in self._idle:
                self.tracker.remove(key)

    def acquire(self, func_name: str) -> Optional["FunctionInstance"]:
        instance = super().acquire(func_name)
        if instance is not None:
            if func_name in self._idle:
                self.tracker.touch(func_name)
            else:
                # Bucket emptied: a take-out is not an eviction.
                self.tracker.remove(func_name)
        return instance

    def release(
        self, instance: "FunctionInstance", now: float = 0.0
    ) -> list["FunctionInstance"]:
        name = instance.function.name
        if name in self.tracker:
            self.tracker.touch(name)
        else:
            self.tracker.admit(name, cost=self._cost(instance))
        self._idle.setdefault(name, []).append((now, instance))
        self._idle.move_to_end(name)
        self._count += 1
        evicted: list = []
        while self._count > self.capacity:
            victim = self.tracker.victim()
            bucket = self._idle[victim]
            evicted.append(bucket.pop(0)[1])
            self._count -= 1
            if not bucket:
                del self._idle[victim]
                self.tracker.remove(victim, evicted=True)
            else:
                self.tracker.age(self.tracker.priority_of(victim))
        return evicted

    def reap_expired(self, now: float) -> list["FunctionInstance"]:
        reaped = super().reap_expired(now)
        if reaped:
            self._sync_tracker()
        return reaped

    def drop_all(self, func_name: str) -> list["FunctionInstance"]:
        dropped = super().drop_all(func_name)
        if dropped:
            self.tracker.remove(func_name)
        return dropped


#: Keep-alive policy names accepted by the invoker/runtime knobs.
KEEPALIVE_POLICIES = ("ttl", "gdsf")


def make_warm_pool(
    policy: str,
    capacity: int,
    keep_alive_ttl_s: Optional[float] = None,
) -> WarmPool:
    """Build one PU's warm pool under the named keep-alive policy."""
    if policy == "ttl":
        return WarmPool(capacity, keep_alive_ttl_s=keep_alive_ttl_s)
    if policy == "gdsf":
        return GdsfWarmPool(capacity, keep_alive_ttl_s=keep_alive_ttl_s)
    raise SchedulingError(
        f"unknown keep-alive policy {policy!r}; one of {KEEPALIVE_POLICIES}"
    )


@dataclass(frozen=True)
class ImagePlan:
    """The kernel packing chosen for the next FPGA image."""

    func_names: tuple[str, ...]
    copies_each: int


#: Registered at the first drop: most runs never overflow an image.
PLANNER_DROPPED = MetricSpec(
    "repro_fpga_planner_dropped_total", "counter",
    "Predicted-hot functions dropped from FPGA image plans "
    "by the max_instances packing cap.",
)


class FpgaImagePlanner:
    """Chooses the kernel vector for the next FPGA image.

    Policy from §5: functions invoked together (a chain) are cached in
    one image; each function gets ``copies_each`` instances (the paper's
    Table 4 wrapper packs 4 copies of 3 kernels = 12 instances).
    """

    def __init__(self, copies_each: int = 4, max_instances: int = 12):
        if copies_each < 1 or max_instances < copies_each:
            raise SchedulingError("invalid image planner configuration")
        self.copies_each = copies_each
        self.max_instances = max_instances
        #: Functions dropped from plans because the predicted set did
        #: not fit ``max_instances`` — visible packing pressure instead
        #: of a silent cap.
        self.dropped = 0
        #: Observability hub (optional); wired by the runtime so drops
        #: surface as ``repro_fpga_planner_dropped_total``.
        self.obs = None

    def plan(self, predicted: Iterable[str]) -> ImagePlan:
        """Pack the predicted-hot functions into one image plan.

        Functions that do not fit ``max_instances`` are dropped least-
        recently-predicted first; every drop is counted on
        :attr:`dropped` (and the planner-drop metric when an
        observability hub is wired) so packing pressure is visible.
        """
        names: list[str] = []
        for name in predicted:
            if name not in names:
                names.append(name)
        if not names:
            raise SchedulingError("image plan needs at least one function")
        copies = min(self.copies_each, self.max_instances // len(names))
        copies = max(copies, 1)
        dropped: list[str] = []
        while len(names) * copies > self.max_instances:
            dropped.append(names.pop())  # drop the least-recently predicted
        if dropped:
            self.dropped += len(dropped)
            if self.obs is not None:
                self.obs.registry.register(PLANNER_DROPPED).inc(len(dropped))
        return ImagePlan(func_names=tuple(names), copies_each=copies)
