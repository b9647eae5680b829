"""The computation-reuse engine: cache consult, staleness policy and
single-flight leadership.

Its :meth:`ReuseEngine.cache_stage` is the request pipeline's cache
stage, between gateway admission and the overload controller's gate
stage (see :mod:`repro.core.invoker`):

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
  answer when an entry exists — an old answer beats no answer.  The
  request settles once, as answered, in the runtime's
  :class:`~repro.core.reliability.FateLedger`, whose end-of-run check
  holds its ``fresh``, ``stale`` and executed answers to this engine's
  counters.

Optional like every engine here: ``MoleculeRuntime(reuse=None)`` keeps
every code path, metric family and report byte-identical to a runtime
without it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, TYPE_CHECKING

from repro.core.records import InvocationResult
from repro.errors import RequestShed
from repro.obs.metrics import MetricSpec
from repro.obs.spans import START_CACHED
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


#: Simulated lookup-and-respond latency of a cache hit.
HIT_LATENCY_S = 0.0005


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
    #: Serve expired entries under pressure / short deadline budget.
    serve_stale: bool = True
    #: Downgrade an admission-gate shed to a stale answer when an
    #: entry (fresh or expired) exists for the request's key.
    shed_to_stale: bool = True

    @property
    def capacity_bytes(self) -> int:
        return int(self.capacity_mb * 1024 * 1024)


class CacheHit(NamedTuple):
    """One request answered from the cache (fresh, coalesced or stale)."""

    entry: CacheEntry
    #: True when the entry was past its TTL at serve time.  A
    #: shed-downgrade of a still-fresh entry is *not* stale — the flag
    #: reflects actual freshness, never the serve path.
    stale: bool
    #: "fresh" | "singleflight" | "pressure" | "deadline" | "shed".
    reason: str


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
        self.bypass_by_reason: dict[str, int] = {}
        self.metrics = None
        if runtime.obs is not None:
            self.metrics = runtime.obs.registry.register_table(REUSE_METRICS)
        runtime.invoker.reuse = self

    @property
    def sim(self):
        return self.runtime.sim

    # -- the cache stage ----------------------------------------------------------------

    def cache_stage(self, inner, gateway, request, bypass: bool,
                    input_key: Optional[str]):
        """Generator: the request pipeline's cache stage, around the
        gate stage (``inner``).

        A fresh entry answers without ever taking a gate slot or
        touching a sandbox; an expired one is served stale when
        :meth:`_stale_reason` allows, else revalidated.  A miss on a
        key another request is executing parks on that single-flight
        and is fanned its entry; otherwise the request leads a new
        flight, runs ``inner`` and fills the cache with its result.

        This is also the one place a shed request is answered stale:
        when the gate refuses the request with :class:`RequestShed` and
        an entry is present, an old answer beats no answer (the request
        then settles as answered, never as shed).  Either way a leader
        that did not execute aborts its flight, so followers re-elect
        rather than wedge (the stale entry is this request's answer,
        not theirs).  Half-open breaker probes (``bypass``) skip the
        consult: a cached answer would starve the probe and pin the
        shard's breaker open.
        """
        function = request.function
        flight = None
        if bypass:
            self.note_bypass(function, "probe")
        elif not self.cacheable(function, input_key):
            self.note_bypass(
                function,
                "no_key" if function.idempotent else "nonidempotent",
            )
        else:
            sim = self.sim
            name = function.name
            key = (name, input_key)
            registry = self.runtime.registry
            while True:
                entry = self.cache.get(name, input_key)
                if (entry is not None
                        and entry.generation != registry.generation(name)):
                    # An invalidating deploy raced in under the entry:
                    # it memoizes a retired version and must never serve.
                    self.cache.discard(name, input_key)
                    entry = None
                if entry is not None:
                    reason = (
                        "fresh" if entry.fresh(sim.now)
                        else self._stale_reason(gateway, request.request_id)
                    )
                    if reason is not None:
                        yield sim.timeout(HIT_LATENCY_S)
                        return self._answer(
                            request, CacheHit(entry, reason != "fresh", reason)
                        )
                    # Expired and no pressure: revalidate through the
                    # normal execution path (the fill refreshes the entry).
                    self.revalidations += 1
                joined = self.flights.lookup(key)
                if joined is None:
                    # Nobody is executing this key: lead the flight.
                    self.misses += 1
                    if self.metrics is not None:
                        self.metrics.misses.child(name).inc()
                    flight = self.flights.begin(key)
                    break
                waiter = self.flights.join(joined, sim)
                yield waiter
                if waiter.value is not None:
                    return self._answer(
                        request, CacheHit(waiter.value, False, "singleflight")
                    )
                # The leader died before filling: loop — this request
                # either finds a newer flight or becomes the new leader.
        try:
            result = yield from inner
        except RequestShed:
            if flight is not None:
                self.flights.abort(flight)
            hit = self.shed_fallback(function, input_key)
            if hit is None:
                raise
            return self._answer(request, hit)
        except BaseException:
            if flight is not None:
                self.flights.abort(flight)
            raise
        if flight is not None:
            self.fill(flight, function, result, request.payload_bytes)
        else:
            self.executed += 1
        return result

    def _answer(self, request, hit: "CacheHit"):
        """The result of a request answered from the cache.

        No sandbox ran and no PU core was held, so nothing is charged
        to the billing ledger — near-zero-cost hits are the point of
        memoization.
        """
        hit.entry.hits += 1
        freshness = "stale" if hit.stale else "fresh"
        if hit.stale:
            self.served_stale += 1
            self.stale_by_reason[hit.reason] = (
                self.stale_by_reason.get(hit.reason, 0) + 1
            )
        else:
            self.served_fresh += 1
        if self.metrics is not None:
            self.metrics.hits.child(
                request.function.name, "stale" if hit.stale else hit.reason
            ).inc()
            if hit.stale:
                self.metrics.stale.child(hit.reason).inc()
        request.trace.annotate(
            pu="cache",
            pu_kind="cache",
            start_kind=START_CACHED,
            cache=freshness,
            cache_reason=hit.reason,
        )
        return InvocationResult(
            function=request.function.name,
            request_id=request.request_id,
            pu_name="cache",
            pu_kind=None,
            cold=False,
            startup_s=0.0,
            exec_s=0.0,
            total_s=self.sim.now - request.start,
            billed_cost=0.0,
            payload=hit.entry.payload,
            cache=freshness,
            cache_reason=hit.reason,
        )

    def cacheable(self, function: "FunctionDef",
                  input_key: Optional[str]) -> bool:
        """True when this request may touch the cache at all."""
        return function.idempotent and input_key is not None

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
        return CacheHit(entry, stale=not entry.fresh(self.sim.now),
                        reason="shed")

    # -- accounting ---------------------------------------------------------------------

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
            "shed_downgrades": self.runtime.fates.downgraded,
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
