"""The sharded gateway front end: N admission shards, pluggable routing.

A single :class:`~repro.core.gateway.ApiGateway` serialises admission
for the whole machine; at production traffic rates the front door has
to scale out.  :class:`ShardedFrontend` runs ``N`` gateway shards over
one shared scheduler/invoker, with three routing policies:

* ``hash`` — consistent hashing of the function name over a virtual-
  node ring, so shard-count changes only remap the keys whose ring
  segment the new shard takes (FDN-style delivery layer stability);
* ``least-outstanding`` — the shard with the fewest in-flight
  requests, skipping shards whose circuit breaker is open;
* ``locality`` — the shard affined to the PU currently holding a warm
  sandbox for the function, falling back to the hash ring when no warm
  instance exists anywhere.

Every shard shares one request-id stream, so the runtime's fate ledger
(``answered + shed + dead == admitted``) spans shards, and each shard
keeps a busy-time integral for the per-shard utilization the SLO report
emits.
"""

from __future__ import annotations

import bisect
import itertools
import zlib
from typing import Optional, TYPE_CHECKING

from repro.core.gateway import ApiGateway
from repro.core.reliability import BreakerState, CircuitBreaker
from repro.errors import RequestShed, SchedulingError
from repro.hardware.pu import PuKind
from repro.obs.metrics import MetricSpec

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.molecule import MoleculeRuntime

#: Routing policy names accepted by :class:`ShardedFrontend`.
ROUTING_POLICIES = ("hash", "least-outstanding", "locality")


def _stable_hash(key: str) -> int:
    """Process-stable 32-bit hash (builtin ``hash`` is randomised)."""
    return zlib.crc32(key.encode())


class HashRing:
    """Consistent-hash ring with virtual nodes.

    Each shard owns ``vnodes`` points on a 32-bit ring; a key routes to
    the owner of the first point at or after its hash.  Adding a shard
    only moves the keys that fall into the new shard's segments —
    the rebalance-boundary stability property the routing tests pin.
    """

    def __init__(self, num_shards: int, vnodes: int = 64):
        if num_shards < 1:
            raise SchedulingError(f"need at least one shard: {num_shards}")
        if vnodes < 1:
            raise SchedulingError(f"need at least one vnode: {vnodes}")
        self.num_shards = num_shards
        self.vnodes = vnodes
        points: list[tuple[int, int]] = []
        for shard in range(num_shards):
            for replica in range(vnodes):
                points.append((_stable_hash(f"shard-{shard}#{replica}"), shard))
        points.sort()
        self._points = points
        self._hashes = [point for point, _shard in points]

    def route(self, key: str) -> int:
        """The shard owning ``key``."""
        value = _stable_hash(key)
        index = bisect.bisect_left(self._hashes, value)
        if index == len(self._points):
            index = 0
        return self._points[index][1]


class GatewayShard:
    """One admission shard: a gateway plus routing bookkeeping.

    ``affinity`` is the tuple of PU ids this shard fronts for locality
    routing.  The breaker lets the least-outstanding policy steer
    around a shard that keeps producing failures (e.g. its affined PUs
    are down); routing never targets an OPEN-breaker shard while a
    healthy one exists.
    """

    def __init__(
        self,
        sim,
        index: int,
        obs=None,
        default_deadline_s: Optional[float] = None,
        request_ids=None,
        affinity: tuple[int, ...] = (),
    ):
        self.sim = sim
        self.index = index
        self.gateway = ApiGateway(
            sim,
            obs=obs,
            default_deadline_s=default_deadline_s,
            request_ids=request_ids,
        )
        self.affinity = affinity
        self.breaker = CircuitBreaker()
        self.outstanding = 0
        self.routed = 0
        self.completed = 0
        self.failed = 0
        #: Integral of wall (sim) time with >= 1 request in flight.
        self.busy_s = 0.0
        self._busy_since: Optional[float] = None

    @property
    def healthy(self) -> bool:
        """True while routing may target this shard."""
        return self.breaker.allows(self.sim.now)

    def begin_request(self) -> None:
        """A request was routed here (before admission)."""
        self.routed += 1
        if self.outstanding == 0:
            self._busy_since = self.sim.now
        self.outstanding += 1
        self.breaker.begin_attempt(self.sim.now)

    def end_request(self, ok: bool) -> None:
        """A routed request finished (answered or terminally failed)."""
        self.outstanding -= 1
        if self.outstanding == 0 and self._busy_since is not None:
            self.busy_s += self.sim.now - self._busy_since
            self._busy_since = None
        if ok:
            self.completed += 1
            self.breaker.record_success(self.sim.now)
        else:
            self.failed += 1
            self.breaker.record_failure(self.sim.now)

    def end_shed(self) -> None:
        """A routed request was shed at admission (repro.overload).

        A shed is deliberate back-pressure, not a shard failure: the
        breaker records nothing — a saturated shard tripping its own
        breaker open would amplify the overload it is shedding against
        — and the runtime's fate ledger counts it apart from ``failed``.
        """
        self.outstanding -= 1
        if self.outstanding == 0 and self._busy_since is not None:
            self.busy_s += self.sim.now - self._busy_since
            self._busy_since = None

    def utilization(self, elapsed_s: float) -> float:
        """Fraction of ``elapsed_s`` this shard had requests in flight."""
        busy = self.busy_s
        if self._busy_since is not None:
            busy += self.sim.now - self._busy_since
        return busy / elapsed_s if elapsed_s > 0 else 0.0


#: Families the sharded front end owns, registered when one is built.
SHARD_METRICS = {
    "routed_total": MetricSpec(
        "repro_shard_routed_total", "counter",
        "Requests routed to a gateway shard, by shard and policy.",
        ("shard", "policy"),
    ),
    "outstanding": MetricSpec(
        "repro_shard_outstanding", "gauge",
        "In-flight requests per gateway shard (snapshot time).",
        ("shard",),
    ),
    "utilization": MetricSpec(
        "repro_shard_utilization", "gauge",
        "Busy-time fraction per gateway shard (snapshot time).",
        ("shard",),
    ),
}


class ShardedFrontend:
    """N gateway shards feeding one runtime's shared scheduler."""

    def __init__(
        self,
        runtime: "MoleculeRuntime",
        num_shards: int,
        policy: str = "hash",
        default_deadline_s: Optional[float] = None,
        vnodes: int = 64,
    ):
        if num_shards < 1:
            raise SchedulingError(f"need at least one shard: {num_shards}")
        if policy not in ROUTING_POLICIES:
            raise SchedulingError(
                f"unknown routing policy {policy!r}; "
                f"available: {', '.join(ROUTING_POLICIES)}"
            )
        self.runtime = runtime
        self.policy = policy
        self.ring = HashRing(num_shards, vnodes=vnodes)
        self.metrics = runtime.obs.registry.register_table(SHARD_METRICS)
        deadline = (
            default_deadline_s
            if default_deadline_s is not None
            else runtime.gateway.default_deadline_s
        )
        request_ids = itertools.count(1)
        pu_ids = sorted(runtime.machine.pus)
        self.shards = [
            GatewayShard(
                runtime.sim,
                index,
                obs=runtime.obs,
                default_deadline_s=deadline,
                request_ids=request_ids,
                affinity=tuple(
                    pu_id for i, pu_id in enumerate(pu_ids)
                    if i % num_shards == index
                ),
            )
            for index in range(num_shards)
        ]
        #: pu_id -> owning shard, from the round-robin affinity split.
        self._pu_shard = {
            pu_id: shard.index
            for shard in self.shards
            for pu_id in shard.affinity
        }
        runtime.frontend = self
        overload = runtime.overload
        if overload is not None:
            overload.attach_frontend(self)

    def __len__(self) -> int:
        return len(self.shards)

    @property
    def requests_admitted(self) -> int:
        """Total admissions across every shard."""
        return sum(s.gateway.requests_admitted for s in self.shards)

    # -- routing ---------------------------------------------------------------

    def route(self, function: str, kind: Optional[PuKind] = None) -> GatewayShard:
        """Pick the shard for one request under the configured policy."""
        if self.policy == "least-outstanding":
            shard = self._route_least_outstanding()
        elif self.policy == "locality":
            shard = self._route_locality(function, kind)
        else:
            shard = self.shards[self.ring.route(function)]
        self.metrics.routed_total.child(str(shard.index), self.policy).inc()
        return shard

    def _route_least_outstanding(self) -> GatewayShard:
        healthy = [s for s in self.shards if s.healthy]
        # With every breaker open there is no good choice; degrade to
        # all shards rather than black-holing the request.
        pool = healthy or self.shards
        return min(pool, key=lambda s: (s.outstanding, s.index))

    def _route_locality(
        self, function: str, kind: Optional[PuKind]
    ) -> GatewayShard:
        fn = self.runtime.registry.get(function)
        pu = self.runtime.scheduler.warm_locality(
            fn, self.runtime.invoker.pools, kind=kind
        )
        if pu is not None:
            shard = self.shards[self._pu_shard[pu.pu_id]]
            if shard.healthy:
                return shard
        # No warm sandbox anywhere (or its shard is unhealthy): fall
        # back to the stable hash placement.
        return self.shards[self.ring.route(function)]

    def shard_for_pu(self, pu_id: int) -> GatewayShard:
        """The shard affined to one PU."""
        return self.shards[self._pu_shard[pu_id]]

    # -- invocation ------------------------------------------------------------

    def invoke(self, name: str, **kwargs):
        """Generator: route one request and run it through its shard."""
        kind = kwargs.get("kind")
        shard = self.route(name, kind)
        if self.runtime.overload is not None:
            # A half-open breaker's single probe must never be shed: it
            # is the only signal that can close the breaker again.
            # Detected before begin_request claims the probe slot (the
            # claim itself flips probe_in_flight).
            kwargs["overload_bypass"] = (
                shard.breaker.state is BreakerState.HALF_OPEN
                and not shard.breaker.probe_in_flight
            )
        shard.begin_request()
        try:
            result = yield from self.runtime.invoker.invoke(
                name, gateway=shard.gateway, **kwargs
            )
        except RequestShed:
            shard.end_shed()
            raise
        except Exception:
            shard.end_request(ok=False)
            raise
        shard.end_request(ok=True)
        result.shard = shard.index
        return result

    # -- reporting --------------------------------------------------------------

    def snapshot(self, elapsed_s: Optional[float] = None) -> list[dict]:
        """Per-shard counters for reports and metric refreshes."""
        elapsed = (
            elapsed_s if elapsed_s is not None else self.runtime.sim.now
        )
        overload = self.runtime.overload
        shed = self.runtime.fates.shed_by_gate
        return [
            {
                "shard": shard.index,
                "routed": shard.routed,
                "admitted": shard.gateway.requests_admitted,
                "completed": shard.completed,
                "failed": shard.failed,
                # Conditional so controller-off reports stay
                # byte-identical to earlier releases.
                **({"shed": shed.get(str(shard.index), 0)}
                   if overload is not None else {}),
                "outstanding": shard.outstanding,
                "utilization": shard.utilization(elapsed),
                "breaker": shard.breaker.state.value,
                "affinity": [
                    self.runtime.machine.pus[pu_id].name
                    for pu_id in shard.affinity
                ],
            }
            for shard in self.shards
        ]
