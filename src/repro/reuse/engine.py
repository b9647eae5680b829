"""The computation-reuse engine: cache consult, staleness policy,
single-flight leadership, and the conservation extension.

Sits between gateway admission and the overload controller's admission
gate inside :meth:`repro.core.invoker.Invoker.invoke`:

* a **fresh** hit answers without a sandbox, a gate slot, or a billing
  charge — the whole point of the cache;
* an **expired-but-present** entry is served *stale* when the overload
  controller's pressure signal is active, or when the request's
  remaining deadline budget is smaller than the gate's predicted queue
  wait — otherwise the request revalidates (executes and refreshes the
  entry);
* concurrent identical misses collapse onto one **single-flight**
  leader; followers park on sim events and are fanned the leader's
  entry (a dead leader wakes them empty-handed to re-elect);
* a request the admission gate would **shed** is downgraded to a stale
  answer when an entry exists — an old answer beats no answer — and
  the controller un-counts the shed so the three-fate invariant
  ``answered + shed + dead == admitted`` keeps holding, with answers
  partitioned ``fresh + stale + executed``.

Optional like every engine here: ``MoleculeRuntime(reuse=None)`` keeps
every code path, metric family and report byte-identical to a runtime
without it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, TYPE_CHECKING

from repro.obs.metrics import MetricSpec
from repro.reuse.cache import (
    CacheEntry,
    Flight,
    ResultCache,
    SingleFlightTable,
    result_payload,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.molecule import MoleculeRuntime
    from repro.core.registry import FunctionDef


@dataclass
class ReuseConfig:
    """Tuning knobs for the result cache."""

    #: Cache budget in megabytes (entry footprint is the request
    #: payload size — the data the memoized result was computed over).
    capacity_mb: float = 8.0
    #: Freshness lifetime of an entry off the sim clock; after it the
    #: entry is stale (servable under pressure, else revalidated).
    ttl_s: float = 30.0
    #: Eviction policy: ``"gdsf"`` (greedy-dual, execution-cost aware)
    #: or ``"lru"``.
    policy: str = "gdsf"
    #: Simulated lookup-and-respond latency of a cache hit.
    hit_latency_s: float = 0.0005
    #: Serve expired entries under pressure / short deadline budget.
    serve_stale: bool = True
    #: Downgrade an admission-gate shed to a stale answer when an
    #: entry (fresh or expired) exists for the request's key.
    shed_to_stale: bool = True

    @property
    def capacity_bytes(self) -> int:
        return int(self.capacity_mb * 1024 * 1024)


class CacheHit:
    """One request answered from the cache (fresh, coalesced or stale)."""

    __slots__ = ("entry", "stale", "reason")

    def __init__(self, entry: CacheEntry, stale: bool, reason: str):
        self.entry = entry
        #: True when the entry was past its TTL at serve time.  A
        #: shed-downgrade of a still-fresh entry is *not* stale — the
        #: flag reflects actual freshness, never the serve path.
        self.stale = stale
        #: "fresh" | "singleflight" | "pressure" | "deadline" | "shed".
        self.reason = reason


#: Families the result-cache engine owns, registered when it is wired.
REUSE_METRICS = {
    "hits": MetricSpec(
        "repro_reuse_hits", "counter",
        "Requests answered from the result cache, by freshness "
        "(fresh | singleflight | stale).",
        ("function", "freshness"),
    ),
    "misses": MetricSpec(
        "repro_reuse_misses", "counter",
        "Cache consults that found no servable entry and led a "
        "single-flight execution.",
        ("function",),
    ),
    "stale": MetricSpec(
        "repro_reuse_stale", "counter",
        "Expired entries served stale, by trigger "
        "(pressure | deadline | shed).",
        ("reason",),
    ),
    "bypass": MetricSpec(
        "repro_reuse_bypass", "counter",
        "Requests that skipped the cache consult, by reason "
        "(probe | nonidempotent | no_key).",
        ("reason",),
    ),
    "singleflight": MetricSpec(
        "repro_reuse_singleflight", "counter",
        "Followers fanned a single-flight leader's result instead "
        "of executing their own copy.",
        ("function",),
    ),
    "evictions": MetricSpec(
        "repro_reuse_evictions", "counter",
        "Entries evicted by the cache's LRU/GDSF policy.",
    ),
    "invalidations": MetricSpec(
        "repro_reuse_invalidations", "counter",
        "Entries dropped by an invalidating deploy of their "
        "function.",
    ),
    "cache_entries": MetricSpec(
        "repro_reuse_cache_entries", "gauge",
        "Entries resident in the result cache.",
    ),
    "cache_bytes": MetricSpec(
        "repro_reuse_cache_bytes", "gauge",
        "Bytes resident in the result cache.",
    ),
    "hit_ratio": MetricSpec(
        "repro_reuse_hit_ratio", "gauge",
        "Cached answers over all cache-consulting answers.",
    ),
}


class ReuseEngine:
    """Deterministic result cache in front of the admission gate."""

    def __init__(self, runtime: "MoleculeRuntime",
                 config: Optional[ReuseConfig] = None):
        self.runtime = runtime
        self.config = config or ReuseConfig()
        self.cache = ResultCache(
            self.config.capacity_bytes, policy=self.config.policy
        )
        self.flights = SingleFlightTable()
        # Answer classes (the conservation partition).
        self.served_fresh = 0
        self.served_stale = 0
        self.executed = 0
        # Diagnostics.
        self.misses = 0
        self.revalidations = 0
        self.stale_by_reason: dict[str, int] = {}
        self.shed_downgrades = 0
        self.bypass_by_reason: dict[str, int] = {}
        self.metrics = None
        if runtime.obs is not None:
            self.metrics = runtime.obs.registry.register_table(REUSE_METRICS)
        runtime.invoker.reuse = self

    @property
    def sim(self):
        return self.runtime.sim

    # -- the consult path (called by Invoker.invoke) -----------------------------------

    def cacheable(self, function: "FunctionDef",
                  input_key: Optional[str]) -> bool:
        """True when this request may touch the cache at all."""
        return function.idempotent and input_key is not None

    def lookup(self, function: "FunctionDef", input_key: Optional[str],
               gateway, request_id: int):
        """Generator: consult the cache for one admitted request.

        Returns ``(hit, flight)``: a :class:`CacheHit` to answer from
        (``flight`` None), or ``hit`` None with ``flight`` set when
        this request leads a new single-flight execution, or both None
        when the request is not cacheable and runs the normal path.
        """
        if not self.cacheable(function, input_key):
            self.note_bypass(
                function,
                "no_key" if function.idempotent else "nonidempotent",
            )
            return (None, None)
        sim = self.sim
        name = function.name
        key = (name, input_key)
        registry = self.runtime.registry
        while True:
            entry = self.cache.get(name, input_key)
            if (entry is not None
                    and entry.generation != registry.generation(name)):
                # An invalidating deploy raced in under the entry: it
                # memoizes a retired version and must never serve.
                self.cache.discard(name, input_key)
                entry = None
            if entry is not None:
                if entry.fresh(sim.now):
                    yield sim.timeout(self.config.hit_latency_s)
                    return (CacheHit(entry, stale=False, reason="fresh"),
                            None)
                reason = self._stale_reason(gateway, request_id)
                if reason is not None:
                    yield sim.timeout(self.config.hit_latency_s)
                    return (CacheHit(entry, stale=True, reason=reason), None)
                # Expired and no pressure: revalidate through the
                # normal execution path (the fill refreshes the entry).
                self.revalidations += 1
            flight = self.flights.lookup(key)
            if flight is None:
                self.misses += 1
                if self.metrics is not None:
                    self.metrics.misses.child(name).inc()
                return (None, self.flights.begin(key))
            waiter = self.flights.join(flight, sim)
            yield waiter
            if waiter.value is not None:
                return (CacheHit(waiter.value, stale=False,
                                 reason="singleflight"), None)
            # The leader died before filling: loop — this request either
            # finds a newer flight or becomes the replacement leader.

    def _stale_reason(self, gateway, request_id: int) -> Optional[str]:
        """Why an expired entry may be served anyway (None: revalidate).

        The two triggers mirror the shedding rationale: when the
        overload controller's pressure signal is up, every executed
        request deepens the saturation a stale answer avoids; and when
        the predicted gate wait already exceeds the request's remaining
        deadline budget, revalidating can only produce a dead letter.
        """
        if not self.config.serve_stale:
            return None
        overload = getattr(self.runtime, "overload", None)
        if overload is None:
            return None
        if (overload.brownout_active
                or overload.pressure() >= overload.config.brownout_on):
            return "pressure"
        deadline_at = gateway.deadline_for(request_id)
        if deadline_at is not None:
            budget = deadline_at - self.sim.now
            wait = overload.gate_for(gateway).estimated_wait_s()
            if wait > max(0.0, budget):
                return "deadline"
        return None

    def shed_fallback(self, function: "FunctionDef",
                      input_key: Optional[str]) -> Optional[CacheHit]:
        """An entry to serve instead of a shed (None: really shed).

        Consulted when the admission gate raised
        :class:`~repro.errors.RequestShed`: any present entry — fresh
        or expired — beats refusing outright, provided it still belongs
        to the current deploy generation.
        """
        if not self.config.shed_to_stale:
            return None
        if not self.cacheable(function, input_key):
            return None
        entry = self.cache.peek(function.name, input_key)
        if entry is None:
            return None
        if entry.generation != self.runtime.registry.generation(function.name):
            return None
        self.shed_downgrades += 1
        return CacheHit(entry, stale=not entry.fresh(self.sim.now),
                        reason="shed")

    # -- accounting (called by Invoker) -------------------------------------------------

    def note_served(self, function: "FunctionDef", hit: CacheHit) -> None:
        """One request answered from the cache."""
        hit.entry.hits += 1
        if hit.stale:
            self.served_stale += 1
            self.stale_by_reason[hit.reason] = (
                self.stale_by_reason.get(hit.reason, 0) + 1
            )
        else:
            self.served_fresh += 1
        metrics = self.metrics
        if metrics is not None:
            metrics.hits.child(
                function.name, "stale" if hit.stale else hit.reason
            ).inc()
            if hit.stale:
                metrics.stale.child(hit.reason).inc()

    def note_executed(self) -> None:
        """One request answered by real execution (cacheable or not)."""
        self.executed += 1

    def note_bypass(self, function: "FunctionDef", reason: str) -> None:
        """One request that skipped the cache consult entirely.

        ``probe`` bypasses matter most: a half-open breaker's probe
        must reach a real PU — a cached answer would starve the probe
        and pin the shard's breaker open.
        """
        self.bypass_by_reason[reason] = (
            self.bypass_by_reason.get(reason, 0) + 1
        )
        if self.metrics is not None:
            self.metrics.bypass.child(reason).inc()

    def fill(self, flight: Flight, function: "FunctionDef", result,
             payload_bytes: int) -> CacheEntry:
        """The single-flight leader finished executing: memoize its
        result, stamp the payload onto it, and fan the entry to every
        parked follower."""
        self.executed += 1
        name, digest = flight.key
        now = self.sim.now
        payload = result_payload(name, digest)
        result.payload = payload
        entry = CacheEntry(
            function=name,
            digest=digest,
            payload=payload,
            size_bytes=max(1, int(payload_bytes)),
            stored_at_s=now,
            expires_at_s=now + self.config.ttl_s,
            generation=self.runtime.registry.generation(name),
            exec_s=result.exec_s,
        )
        evicted = self.cache.put(entry)
        served = self.flights.finish(flight, entry)
        metrics = self.metrics
        if metrics is not None:
            if evicted:
                metrics.evictions.inc(len(evicted))
            if served:
                metrics.singleflight.child(name).inc(served)
        return entry

    def abort(self, flight: Flight) -> None:
        """The single-flight leader died before filling: close the
        flight so followers re-elect instead of wedging."""
        self.flights.abort(flight)

    def invalidate(self, name: str) -> int:
        """Eagerly drop every entry of ``name`` (redeploy hook; the
        generation check also catches entries lazily)."""
        dropped = self.cache.invalidate_function(name)
        if dropped and self.metrics is not None:
            self.metrics.invalidations.inc(dropped)
        return dropped

    # -- reporting ---------------------------------------------------------------------

    def hit_rate(self) -> float:
        """Cached answers over all cache-consulting answers."""
        served = self.served_fresh + self.served_stale
        consults = served + self.misses
        return served / consults if consults else 0.0

    def conserved(self, answered: int) -> bool:
        """The answer partition: fresh + stale + executed == answered."""
        return self.served_fresh + self.served_stale + self.executed \
            == answered

    def snapshot(self) -> dict:
        """Deterministic lifetime accounting for the SLO report."""
        return {
            "policy": self.cache.policy,
            "capacity_bytes": self.cache.capacity_bytes,
            "entries": len(self.cache),
            "bytes_used": self.cache.bytes_used,
            "served_fresh": self.served_fresh,
            "served_stale": self.served_stale,
            "executed": self.executed,
            "misses": self.misses,
            "hit_rate": round(self.hit_rate(), 9),
            "revalidations": self.revalidations,
            "stale_by_reason": dict(sorted(self.stale_by_reason.items())),
            "shed_downgrades": self.shed_downgrades,
            "bypass_by_reason": dict(sorted(self.bypass_by_reason.items())),
            "evictions": self.cache.evictions,
            "invalidations": self.cache.invalidations,
            "singleflight": {
                "flights": self.flights.flights_opened,
                "followers_joined": self.flights.followers_joined,
                "followers_served": self.flights.followers_served,
                "followers_requeued": self.flights.followers_requeued,
                "leader_failures": self.flights.leader_failures,
            },
        }
