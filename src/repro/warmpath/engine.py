"""The warm-path engine: coalescing, predictive pre-warm, prefetch.

:class:`WarmPathEngine` sits beside the invoker and attacks the three
places the reactive warm pool still pays cold starts (§5 keep-alive is
purely LRU+TTL):

* **cold-start coalescing** — concurrent misses for one
  ``(function, PU)`` join a single-flight fork batch
  (:mod:`repro.warmpath.coalesce`) instead of each forking its own
  sandbox: a storm of N misses is served by a capped set of recycled
  instances, so the PU's DRAM admits the storm instead of rejecting
  the overflow into placement-retry failures;
* **predictive pre-warm** — a per-function arrival estimator
  (:mod:`repro.warmpath.predictor`) fed by gateway admissions drives a
  ``PreWarmer`` sim process that forks instances ahead of predicted
  demand and adapts per-function keep-alive TTLs from the
  inter-arrival distribution, with wasted-prewarm accounting shrinking
  the horizon when predictions misfire;
* **bitstream prefetch** — the same predictor plans the next
  vectorized FPGA image and starts its (multi-second) programming
  before the triggering request arrives; a request landing mid-program
  joins the in-flight programming instead of repacking a second
  device.

Everything is deterministic (pure arithmetic over sim timestamps; the
instances themselves go through the normal seeded paths) and the whole
engine is optional: a runtime constructed without a
:class:`WarmPathConfig` behaves byte-identically to one predating this
module.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional, TYPE_CHECKING

from repro.errors import ReproError, SchedulingError
from repro.hardware.pu import ProcessingUnit, PuKind
from repro.obs.metrics import MetricSpec
from repro.obs.spans import NULL_TRACE
from repro.warmpath.coalesce import CoalescedBatch, ColdStartCoalescer
from repro.warmpath.predictor import ArrivalPredictor

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.invoker import Invoker
    from repro.core.records import FunctionInstance
    from repro.core.molecule import MoleculeRuntime
    from repro.core.registry import FunctionDef


#: Total instances one coalesced batch may produce (leader + extras).
MAX_BATCH = 8
#: Pre-warmer tick period (sim seconds).
PREWARM_PERIOD_S = 0.25
#: How far ahead of predicted demand to stock instances (seconds of
#: predicted arrivals).
HORIZON_S = 1.0
#: Cap on pre-warmed idle instances per function.
MAX_PREWARM_PER_FUNCTION = 8
#: EWMA smoothing for the arrival-rate estimator.
RATE_ALPHA = 0.3
#: Inter-arrival percentile a pre-warmed instance must outlive.
TTL_PERCENTILE = 99.0
#: Safety margin over that percentile gap.
TTL_MARGIN = 1.5
#: Clamp for adaptive keep-alive TTLs (seconds).
MIN_TTL_S = 0.5
MAX_TTL_S = 120.0
#: Recent pre-warm outcomes considered by the self-correction loop.
WASTED_WINDOW = 32
#: Wasted fraction above which the pre-warm horizon halves.
WASTED_THRESHOLD = 0.5
#: Minimum predicted rate before programming an FPGA ahead of time.
PREFETCH_MIN_RPS = 0.5


@dataclass
class WarmPathConfig:
    """Knobs of the warm-path engine (all mechanisms individually
    togglable; the engine absent ⇒ stock behavior)."""

    #: Single-flight cold-start coalescing on/off.
    coalesce: bool = True
    #: Predictive pre-warm on/off.
    prewarm: bool = True
    #: Bitstream prefetch on/off.
    prefetch: bool = True


#: Families the warm-path engine owns, registered when it is wired.
WARMPATH_METRICS = {
    "coalesced_starts": MetricSpec(
        "repro_coalesced_starts", "counter",
        "Requests served by a coalesced single-flight cold-start "
        "batch instead of an independent cold start.",
        ("function",),
    ),
    "prewarm_spawned": MetricSpec(
        "repro_prewarm_spawned", "counter",
        "Instances forked ahead of demand by the pre-warmer.",
        ("function",),
    ),
    "prewarm_hits": MetricSpec(
        "repro_prewarm_hits", "counter",
        "Pre-warmed instances claimed by a request before any use.",
        ("function",),
    ),
    "prewarm_wasted": MetricSpec(
        "repro_prewarm_wasted", "counter",
        "Pre-warmed instances destroyed without serving anything.",
        ("function",),
    ),
    "predicted_rps": MetricSpec(
        "repro_predicted_rps", "gauge",
        "Predicted near-term arrival rate per function "
        "(refreshed every pre-warmer tick).",
        ("function",),
    ),
    "prefetch_started": MetricSpec(
        "repro_bitstream_prefetch_started", "counter",
        "FPGA images programmed ahead of the triggering request.",
        ("function",),
    ),
    "prefetch_hits": MetricSpec(
        "repro_bitstream_prefetch_hits", "counter",
        "FPGA starts served warm off a prefetched image.",
        ("function",),
    ),
}


class WarmPathEngine:
    """Coalescing + pre-warm + prefetch over one runtime's invoker."""

    def __init__(self, runtime: "MoleculeRuntime",
                 config: Optional[WarmPathConfig] = None):
        self.runtime = runtime
        self.config = config or WarmPathConfig()
        self.predictor = ArrivalPredictor(alpha=RATE_ALPHA)
        self.coalescer = ColdStartCoalescer()
        # -- lifetime counters (reports and tests) ------------------------------
        self.coalesced_served = 0
        self.extra_spawned = 0
        self.prewarm_spawned = 0
        self.prewarm_hits = 0
        self.prewarm_wasted = 0
        self.prewarm_reaped = 0
        self.prefetch_started = 0
        self.prefetch_hits = 0
        self.ticks = 0
        # -- pre-warm state -----------------------------------------------------
        #: func_name -> pre-warm forks still in flight.
        self._prewarm_inflight: dict[str, int] = {}
        #: Recent pre-warm outcomes (True = wasted) for self-correction.
        self._outcomes: deque = deque(maxlen=WASTED_WINDOW)
        #: Multiplier on the pre-warm horizon, shrunk when predictions
        #: keep producing wasted instances.
        self.horizon_scale = 1.0
        self._admitted_since_tick = 0
        self._wakeup = None
        # -- prefetch state -----------------------------------------------------
        #: pu_id -> (functions being programmed, completion event).
        self._prefetch_inflight: dict[int, tuple] = {}
        #: (pu_id, func_name) pairs programmed ahead of demand and not
        #: yet claimed by a request (consumed on first warm FPGA start).
        self._prefetched: set = set()

        self.metrics = None
        if runtime.obs is not None:
            self.metrics = runtime.obs.registry.register_table(WARMPATH_METRICS)
        runtime.invoker.engine = self
        if self.config.prewarm or self.config.prefetch:
            runtime.sim.spawn(self._prewarm_loop(), name="warmpath-prewarmer")

    # -- admission feed ----------------------------------------------------------

    def on_admission(self, function: "FunctionDef",
                     kind: Optional[PuKind]) -> None:
        """One request admitted: feed the predictor, wake the pre-warmer."""
        self.predictor.observe(function.name, self.runtime.sim.now)
        self._admitted_since_tick += 1
        if self._wakeup is not None and not self._wakeup.triggered:
            self._wakeup.succeed()

    # -- cold-start coalescing ------------------------------------------------------

    def joinable_batch(self, function: "FunctionDef", kind, pu,
                       exclude=None) -> Optional[CoalescedBatch]:
        """An open batch this miss may join (None: become a leader).

        ``exclude`` is hedge anti-affinity: a clone never parks on a
        batch bound to its primary's PU.
        """
        if not self.config.coalesce:
            return None
        if pu is not None:
            pu_ids = (pu.pu_id,)
        else:
            pu_ids = tuple(
                c.pu_id
                for c in self.runtime.scheduler.candidates(function, kind)
            )
        if exclude is not None:
            pu_ids = tuple(i for i in pu_ids if i != exclude.pu_id)
        return self.coalescer.lookup(function.name, pu_ids)

    def open_batch(self, function: "FunctionDef",
                   target: ProcessingUnit) -> Optional[CoalescedBatch]:
        """The calling request becomes leader of a new batch."""
        if not self.config.coalesce:
            return None
        return self.coalescer.begin(function.name, target.pu_id)

    def abort_batch(self, batch: CoalescedBatch) -> None:
        """The leader's cold start failed: wake every follower to retry."""
        self.coalescer.close(batch)

    def on_follower_joined(self, batch: CoalescedBatch) -> None:
        """A miss just parked on ``batch``: fork an extra instance for
        it right away if the batch is under its size cap.

        Forking at join time (not when the leader completes) keeps a
        coalesced miss latency-competitive with the independent cold
        start it replaced — the extra fork runs concurrently with the
        leader's.  The cap plus DRAM admission is where coalescing
        beats per-request forking: followers past the cap are served by
        recycled instances (see :meth:`offer_released`) instead of
        failing placement or stacking up sandboxes.
        """
        func_name, pu_id = batch.key
        if 1 + batch.requested >= MAX_BATCH:
            return
        runtime = self.runtime
        try:
            function = runtime.registry.get(func_name)
        except ReproError:  # pragma: no cover - unregistered name
            return
        target = runtime.machine.pus[pu_id]
        if target.kind.general_purpose and not target.try_reserve_dram(
            function.code.memory_mb
        ):
            return  # admission control: recycle instead of growing
        batch.requested += 1
        batch.spawning += 1
        runtime.sim.spawn(
            self._spawn_batch_instance(batch, function, target),
            name=f"coalesce:{func_name}@{target.name}.{batch.requested}",
        )

    def leader_done(self, batch: CoalescedBatch, function: "FunctionDef",
                    target: ProcessingUnit) -> None:
        """The leader's instance is up: serve parked followers from the
        warm pool (requests completing meanwhile released instances
        there).  The batch stays open while its instances keep
        recycling; :meth:`_maybe_close` retires it."""
        batch.leader_ready = True
        batch.live += 1  # the leader's own instance
        invoker = self.runtime.invoker
        pool = invoker.pools[target.pu_id]
        while batch.waiters and pool.idle_instances(function.name):
            instance = pool.acquire(function.name)
            if instance is None:
                break
            if not invoker._is_alive(instance):
                invoker.sim.spawn(invoker._destroy(instance))
                continue
            self.on_warm_acquire(instance)
            self.coalescer.deliver(batch, instance)
        self._maybe_close(batch)

    def _maybe_close(self, batch: CoalescedBatch) -> None:
        """Close a batch that can no longer serve anyone: the leader is
        done, no extra fork is in flight, and either nobody waits or no
        live instance remains to recycle to them."""
        if (
            batch.open
            and batch.leader_ready
            and batch.spawning == 0
            and (not batch.waiters or batch.live <= 0)
        ):
            self.coalescer.close(batch)

    def _spawn_batch_instance(self, batch: CoalescedBatch,
                              function: "FunctionDef",
                              target: ProcessingUnit):
        """Generator: fork one extra batch instance and hand it over."""
        invoker = self.runtime.invoker
        instance = None
        try:
            instance = yield from invoker._cold_start(
                function, target, NULL_TRACE
            )
        except ReproError:
            # The fork died (injected fault / crashed PU): give back
            # the DRAM reserved for it in on_follower_joined.
            self.runtime.scheduler.release(function, target)
        if instance is not None:
            batch.extra_spawned += 1
            batch.live += 1
            self.extra_spawned += 1
            if not invoker._is_alive(instance):
                invoker.sim.spawn(invoker._destroy(instance))
            elif not self.coalescer.deliver(batch, instance):
                # Nobody left waiting: stock the warm pool instead.
                invoker._pool(instance)
        batch.spawning -= 1
        self._maybe_close(batch)

    def offer_released(self, instance: "FunctionInstance") -> bool:
        """Recycle a just-released instance straight to a parked
        follower of its ``(function, PU)`` batch, bypassing the pool.

        This is what lets a storm of N misses finish with far fewer
        than N sandboxes: requests completing on batch instances feed
        the followers the batch's size cap could not fork for.
        Returns False when nobody is waiting (normal pool release).
        """
        if not self.config.coalesce:
            return False
        batch = self.coalescer.peek(
            instance.function.name, instance.pu.pu_id
        )
        if batch is None or not batch.waiters:
            return False
        return self.coalescer.deliver(batch, instance)

    def on_coalesced_start(self, func_name: str) -> None:
        """A follower was served by a batch instead of a cold start."""
        self.coalesced_served += 1
        if self.metrics is not None:
            self.metrics.coalesced_starts.child(func_name).inc()

    # -- pre-warm accounting ---------------------------------------------------------

    def on_warm_acquire(self, instance: "FunctionInstance") -> None:
        """A pooled instance is about to serve a request: credit it if
        it was pre-warmed and this is its first claim."""
        if instance.prewarmed:
            instance.prewarmed = False
            if instance.requests_served == 0:
                self.prewarm_hits += 1
                self._outcomes.append(False)
                if self.metrics is not None:
                    self.metrics.prewarm_hits.child(instance.function.name).inc()

    def on_instance_destroyed(self, instance: "FunctionInstance") -> None:
        """Invoker hook: an instance died; debit it if it was a
        pre-warmed instance no request ever used, and let its batch
        re-check whether it can still serve its waiters."""
        batch = self.coalescer.peek(
            instance.function.name, instance.pu.pu_id
        )
        if batch is not None:
            # Decrement is a lower bound (the destroyed instance may
            # predate the batch); an early close only requeues waiters,
            # never strands them.
            batch.live = max(0, batch.live - 1)
            self._maybe_close(batch)
        if instance.prewarmed and instance.requests_served == 0:
            instance.prewarmed = False
            self.prewarm_wasted += 1
            self._outcomes.append(True)
            if self.metrics is not None:
                self.metrics.prewarm_wasted.child(instance.function.name).inc()

    # -- the PreWarmer process -------------------------------------------------------

    def _prewarm_loop(self):
        """Daemon: periodically stock pools ahead of predicted demand.

        Event-driven like the keep-alive reaper: with no admissions and
        no predicted demand the process parks on a wakeup event, so an
        idle simulation can drain; :meth:`on_admission` wakes it.
        """
        sim = self.runtime.sim
        while True:
            if not self._work_pending():
                self._wakeup = sim.event()
                yield self._wakeup
                self._wakeup = None
            yield sim.timeout(PREWARM_PERIOD_S)
            self._tick()

    def _work_pending(self) -> bool:
        """True while the pre-warmer should keep ticking."""
        if self._admitted_since_tick:
            return True
        now = self.runtime.sim.now
        for name in self.predictor.functions():
            predicted = self.predictor.predicted_rps(name, now)
            if self.config.prewarm and self._desired_instances(predicted) > 0:
                return True
            if self.config.prefetch and predicted >= PREFETCH_MIN_RPS:
                return True
        return False

    def _desired_instances(self, predicted_rps: float) -> int:
        """Instances worth holding warm for one function right now."""
        raw = predicted_rps * HORIZON_S * self.horizon_scale
        return min(int(raw), MAX_PREWARM_PER_FUNCTION)

    def _update_horizon_scale(self) -> None:
        """Self-correction: shrink the horizon while predictions keep
        producing wasted instances; recover slowly once they land."""
        if len(self._outcomes) < 8:
            return
        wasted = sum(1 for w in self._outcomes if w) / len(self._outcomes)
        if wasted > WASTED_THRESHOLD:
            self.horizon_scale = max(0.25, self.horizon_scale * 0.5)
        elif wasted < WASTED_THRESHOLD / 2:
            self.horizon_scale = min(1.0, self.horizon_scale * 1.25)

    def _tick(self) -> None:
        """One pre-warmer pass: TTLs, instance deficits, prefetch."""
        runtime = self.runtime
        now = runtime.sim.now
        self.ticks += 1
        self._admitted_since_tick = 0
        self._update_horizon_scale()
        metrics = self.metrics
        for name in self.predictor.functions():
            try:
                function = runtime.registry.get(name)
            except ReproError:  # pragma: no cover - unregistered name
                continue
            predicted = self.predictor.predicted_rps(name, now)
            if metrics is not None:
                metrics.predicted_rps.child(name).set(predicted)
            self._adapt_ttl(function)
            if self.config.prewarm:
                self._stock(function, predicted)
            if self.config.prefetch and function.supports(PuKind.FPGA):
                self._maybe_prefetch(function, predicted)
        self._reap(now)

    def _gp_kind(self, function: "FunctionDef") -> Optional[PuKind]:
        """The function's first general-purpose profile kind."""
        for kind in function.profiles:
            if kind.general_purpose:
                return kind
        return None

    def _adapt_ttl(self, function: "FunctionDef") -> None:
        """Set the function's keep-alive TTL from its gap distribution."""
        gap = self.predictor.gap_percentile(function.name, TTL_PERCENTILE)
        if gap is None:
            return
        ttl = min(max(gap * TTL_MARGIN, MIN_TTL_S), MAX_TTL_S)
        kind = self._gp_kind(function)
        if kind is None:
            return
        for pu in self.runtime.scheduler.candidates(function, kind):
            self.runtime.invoker.pools[pu.pu_id].ttl_overrides[
                function.name
            ] = ttl

    def _stock(self, function: "FunctionDef", predicted_rps: float) -> None:
        """Fork instances to cover the function's predicted deficit."""
        overload = getattr(self.runtime, "overload", None)
        if overload is not None and overload.suppress_prewarm():
            # Brownout: speculative capacity competes with admitted
            # requests for the cores that are already oversubscribed.
            return
        kind = self._gp_kind(function)
        if kind is None:
            return
        desired = self._desired_instances(predicted_rps)
        if desired <= 0:
            return
        runtime = self.runtime
        invoker = runtime.invoker
        idle = sum(
            len(invoker.pools[pu.pu_id].idle_instances(function.name))
            for pu in runtime.scheduler.candidates(function, kind)
        )
        inflight = self._prewarm_inflight.get(function.name, 0)
        deficit = desired - idle - inflight
        for i in range(max(0, deficit)):
            try:
                target = runtime.scheduler.place(function, kind)
            except SchedulingError:
                break  # admission control: the machine is full
            self._prewarm_inflight[function.name] = (
                self._prewarm_inflight.get(function.name, 0) + 1
            )
            runtime.sim.spawn(
                self._spawn_prewarm(function, target),
                name=f"prewarm:{function.name}@{target.name}.{i}",
            )

    def _spawn_prewarm(self, function: "FunctionDef",
                       target: ProcessingUnit):
        """Generator: fork one instance ahead of demand."""
        invoker = self.runtime.invoker
        instance = None
        try:
            instance = yield from invoker._cold_start(
                function, target, NULL_TRACE
            )
        except ReproError:
            self.runtime.scheduler.release(function, target)
        finally:
            self._prewarm_inflight[function.name] -= 1
        if instance is None:
            return
        instance.prewarmed = True
        self.prewarm_spawned += 1
        if self.metrics is not None:
            self.metrics.prewarm_spawned.child(function.name).inc()
        if not invoker._is_alive(instance):
            invoker.sim.spawn(invoker._destroy(instance))
            return
        invoker._pool(instance)

    def _reap(self, now: float) -> None:
        """Apply adaptive TTLs on pools the stock reaper does not cover
        (the invoker only runs its reaper with a pool-wide TTL set)."""
        invoker = self.runtime.invoker
        if any(
            pool.keep_alive_ttl_s is not None
            for pool in invoker.pools.values()
        ):
            # A stock reaper exists; it honours ttl_overrides itself.
            invoker.notify_idle()
            return
        self.prewarm_reaped += invoker._reap(now)

    # -- bitstream prefetch ----------------------------------------------------------

    def _maybe_prefetch(self, function: "FunctionDef",
                        predicted_rps: float) -> None:
        """Start programming the next image ahead of the first request."""
        if predicted_rps < PREFETCH_MIN_RPS:
            return
        runtime = self.runtime
        try:
            candidates = runtime.scheduler.candidates(function, PuKind.FPGA)
        except ReproError:  # pragma: no cover - no FPGA profile
            return
        if not candidates:
            return
        for pu in candidates:
            runf = runtime.runfs.get(pu.pu_id)
            if (
                runf is not None
                and runf.cached_sandbox_for(function.name) is not None
            ):
                return  # already resident: nothing to hide
        for funcs, _event in self._prefetch_inflight.values():
            if function.name in funcs:
                return  # already being programmed
        target = self.idle_fpga(candidates)
        if target is None:
            return
        runtime.sim.spawn(
            self._run_prefetch(function, target),
            name=f"prefetch:{function.name}@{target.name}",
        )

    def idle_fpga(self, candidates) -> Optional[ProcessingUnit]:
        """The least-programmed FPGA among ``candidates`` that is not
        mid-prefetch (None when every one is): where both a prefetch
        and a request's repack program their next image."""
        free = [
            pu for pu in candidates
            if pu.pu_id not in self._prefetch_inflight
        ]
        if not free:
            return None
        runf_on = self.runtime.runf_on
        return min(free, key=lambda pu: runf_on(pu.pu_id).device.program_count)

    def _run_prefetch(self, function: "FunctionDef",
                      target: ProcessingUnit):
        """Generator: plan and program one image before demand lands."""
        runtime = self.runtime
        runf = runtime.runf_on(target.pu_id)
        func_names, entries = runtime.invoker._image_entries(runf, function)
        done = runtime.sim.event()
        self._prefetch_inflight[target.pu_id] = (set(func_names), done)
        ok = False
        try:
            yield from runf.create_vector(entries)
            ok = True
        except ReproError:
            pass  # injected bitstream failure: requests fall back cold
        finally:
            self._prefetch_inflight.pop(target.pu_id, None)
            if not done.triggered:
                done.succeed()
        if not ok:
            return
        self.prefetch_started += 1
        if self.metrics is not None:
            self.metrics.prefetch_started.child(function.name).inc()
        # The previous image (and any unclaimed marks on it) is gone.
        self._prefetched = {
            (pu_id, name) for pu_id, name in self._prefetched
            if pu_id != target.pu_id
        }
        for name in func_names:
            self._prefetched.add((target.pu_id, name))

    def join_bitstream_prefetch(self, function: "FunctionDef"):
        """Generator: if a device is mid-programming an image holding
        this function, wait for it (instead of repacking another)."""
        for funcs, event in list(self._prefetch_inflight.values()):
            if function.name in funcs:
                if not event.triggered:
                    yield event
                return
        return
        yield  # pragma: no cover - makes this a generator when the loop is empty

    def note_fpga_start(self, func_name: str, pu_id: int,
                        cold: bool) -> None:
        """Invoker hook: one FPGA start resolved (warm or cold)."""
        if cold:
            # The request repacked the image: whatever had been
            # prefetched onto this device was overwritten.
            self._prefetched = {
                (p, n) for p, n in self._prefetched if p != pu_id
            }
            return
        if (pu_id, func_name) in self._prefetched:
            self._prefetched.discard((pu_id, func_name))
            self.prefetch_hits += 1
            if self.metrics is not None:
                self.metrics.prefetch_hits.child(func_name).inc()

    # -- reporting -------------------------------------------------------------------

    def snapshot(self) -> dict:
        """Engine counters for reports and tests."""
        return {
            "coalesced_served": self.coalesced_served,
            "batches_opened": self.coalescer.batches_opened,
            "extra_spawned": self.extra_spawned,
            "followers_requeued": self.coalescer.followers_requeued,
            "prewarm_spawned": self.prewarm_spawned,
            "prewarm_hits": self.prewarm_hits,
            "prewarm_wasted": self.prewarm_wasted,
            "prewarm_reaped": self.prewarm_reaped,
            "prefetch_started": self.prefetch_started,
            "prefetch_hits": self.prefetch_hits,
            "horizon_scale": self.horizon_scale,
            "ticks": self.ticks,
        }
