"""Overload control for the sharded frontend.

Demand past capacity used to collapse goodput for *everyone*: every
request was admitted, queued on PU cores past its deadline, and then
either dead-lettered or answered too late — while its orphaned attempt
kept burning the very cores the next request needed.  This module adds
the three classic defenses as one optional controller:

* **Adaptive concurrency limits** (:class:`AdaptiveLimit`) — an AIMD
  limit per gateway shard, driven by observed service latency against a
  moving minimum: completions near the floor grow the limit additively,
  congested or failed completions shrink it multiplicatively.  The
  limit is enforced by an :class:`AdmissionGate` with a bounded FIFO
  admission queue in front.

* **Deadline-aware load shedding** — a request is shed with a distinct
  :class:`~repro.errors.RequestShed` outcome (never retried, never
  dead-lettered) when the admission queue is full, when its estimated
  queue wait already exceeds its remaining deadline budget, or when the
  budget actually drains while it is parked.  Sheds are counted where
  every fate is, in the runtime's
  :class:`~repro.core.reliability.FateLedger`.

* **Brownout degradation** — a pressure signal (worst shard's
  queue-fill x limit-utilization) with on/off hysteresis.  While the
  brownout is active, accelerator functions fall back to their
  CPU-degraded profile, the warm-path engine stops spawning pre-warm
  instances, and the hedging engine's clone token bucket is throttled
  shut: under saturation, speculative and background work is exactly
  the capacity live requests are missing.

Like ``repro.warmpath`` and ``repro.hedging`` the controller is fully
optional: ``MoleculeRuntime(overload=None)`` leaves every code path,
metric family and report byte-identical to a runtime that never heard
of it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.errors import RequestShed
from repro.obs.metrics import MetricSpec

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.molecule import MoleculeRuntime


#: Shed-log records retained for the report (counters are lifetime
#: regardless).
SHED_LOG_CAPACITY = 10000


@dataclass
class OverloadConfig:
    """Tuning knobs for the overload controller."""

    #: Starting concurrency limit per shard gate.
    initial_limit: float = 64.0
    #: The AIMD limit never falls below this (a saturated shard must
    #: keep probing capacity or it can never recover — and it should
    #: never sink below the parallelism of the PUs behind it).
    min_limit: float = 16.0
    #: ... and never grows past this.
    max_limit: float = 1024.0
    #: A completion slower than (moving-minimum x tolerance) counts as
    #: congestion.  Generous by default: cold starts legitimately run
    #: one to two orders of magnitude past warm latency, and only
    #: sustained queueing should shrink the limit.
    latency_tolerance: float = 100.0
    #: Additive increase per good completion (scaled by 1/limit, the
    #: classic one-per-RTT shape; >1 recovers faster after a burst
    #: crushed the limit).
    increase: float = 8.0
    #: Multiplicative decrease applied on congestion or failure.
    decrease: float = 0.9
    #: Completions the moving-minimum window remembers.
    min_window: int = 256
    #: Bounded admission-queue depth per shard gate; arrivals past it
    #: are shed ``queue_full``.  Sized as a burst absorber: the
    #: predictive deadline check below is meant to shed first, the hard
    #: cap is the backstop.
    queue_capacity: int = 512
    #: Shed up front when the estimated queue wait exceeds this
    #: fraction of the request's remaining deadline budget (None
    #: disables the predictive check; the in-queue deadline race still
    #: sheds requests whose budget actually drains).
    predictive_budget_fraction: Optional[float] = 0.25
    #: Brownout hysteresis over the pressure signal: enter at/above
    #: ``brownout_on``, leave at/below ``brownout_off``.  Entering
    #: early is cheap (degraded answers beat sheds), so the on
    #: threshold sits low.
    brownout_on: float = 0.25
    brownout_off: float = 0.15
    #: Minimum dwell before a brownout may end.  The pressure signal is
    #: measured at the gates, and the brownout's own relief (degraded
    #: execution, suppressed pre-warm) collapses it almost immediately
    #: — without a dwell the controller flaps between degraded-and-fine
    #: and undegraded-and-drowning.
    brownout_min_s: float = 2.0
    #: Close the hedge-clone token bucket during brownout (the one
    #: brownout effect defeatable for tests/tuning).
    throttle_hedges: bool = True
    #: Capacity installed on the runtime's DeadLetterQueue when the
    #: controller arms and the queue is still unbounded (None leaves
    #: it unbounded).
    dead_letter_capacity: Optional[int] = 4096


class AdaptiveLimit:
    """AIMD concurrency limit driven by latency vs a moving minimum.

    The moving minimum over the last ``min_window`` successful service
    latencies stands in for the uncongested round-trip floor; a
    completion within ``latency_tolerance`` of it is evidence of spare
    capacity (additive increase), anything slower — or any failure —
    is evidence of congestion (multiplicative decrease).
    """

    def __init__(self, config: OverloadConfig):
        self.config = config
        self._limit = float(config.initial_limit)
        self._window: deque[float] = deque(maxlen=config.min_window)
        #: EWMA of successful service latency (admission-gate grant to
        #: completion, queue wait excluded) — the gate's wait estimator.
        self.ewma_latency: Optional[float] = None
        self.increases = 0
        self.decreases = 0

    @property
    def limit(self) -> int:
        """The enforced (integer) concurrency limit."""
        return int(self._limit)

    def on_complete(self, latency_s: float, ok: bool) -> None:
        """Feed one finished request into the control loop."""
        config = self.config
        floor = min(self._window) if self._window else None
        if ok:
            # Failures stay out of the window: a fast failure would
            # otherwise drag the floor down and mislabel every healthy
            # completion as congestion.
            self._window.append(latency_s)
            self.ewma_latency = (
                latency_s if self.ewma_latency is None
                else 0.9 * self.ewma_latency + 0.1 * latency_s
            )
        congested = not ok or (
            floor is not None and latency_s > floor * config.latency_tolerance
        )
        if congested:
            self._limit = max(config.min_limit, self._limit * config.decrease)
            self.decreases += 1
        else:
            self._limit = min(
                config.max_limit, self._limit + config.increase / self._limit
            )
            self.increases += 1


class _QueueEntry:
    """One parked request in a gate's bounded admission queue."""

    __slots__ = ("event", "enqueued_s", "cancelled")

    def __init__(self, event, enqueued_s: float):
        self.event = event
        self.enqueued_s = enqueued_s
        #: Set when the waiter's deadline budget drained before a grant;
        #: the drain loop skips cancelled entries.
        self.cancelled = False


class AdmissionGate:
    """Adaptive concurrency limit + bounded FIFO queue for one shard."""

    def __init__(self, controller: "OverloadController", gateway, label: str):
        self.controller = controller
        self.gateway = gateway
        self.label = label
        self.limiter = AdaptiveLimit(controller.config)
        self.inflight = 0
        self.queue: deque[_QueueEntry] = deque()
        # Lifetime accounting.
        self.arrived = 0
        self.admitted = 0
        self.bypassed = 0
        self.queued = 0
        self.max_queue_depth = 0
        self.queue_wait_s = 0.0
        #: (sim time, integer limit) — appended whenever the enforced
        #: limit moves; the report downsamples this trajectory.
        self.trajectory: list[tuple[float, int]] = []
        self.limit_min_seen = self.limiter.limit
        self.limit_max_seen = self.limiter.limit

    @property
    def sim(self):
        return self.controller.runtime.sim

    # -- admission -------------------------------------------------------------------

    def estimated_wait_s(self) -> float:
        """Up-front queueing estimate for a new arrival: requests ahead
        of it over the gate's observed service rate.  Zero until the
        latency EWMA warms (never shed on a cold estimator)."""
        ewma = self.limiter.ewma_latency
        if ewma is None:
            return 0.0
        limit = max(1, self.limiter.limit)
        ahead = len(self.queue) + max(0, self.inflight - limit) + 1
        return ahead * ewma / limit

    def acquire(self, function, request_id: int, deadline_at: Optional[float],
                trace, bypass: bool):
        """Generator: take one concurrency slot, parking in the bounded
        queue when the shard is at its limit.  Raises
        :class:`RequestShed` instead of parking (or after parking, when
        the budget drains) for requests that cannot be served in time.
        """
        sim = self.sim
        controller = self.controller
        self.arrived += 1
        if bypass:
            # A half-open breaker's probe: the only signal that can
            # close the breaker again, so it never queues and is never
            # shed.
            self.bypassed += 1
            self.admitted += 1
            self.inflight += 1
            return
        if self.inflight < self.limiter.limit and not self.queue:
            self.admitted += 1
            self.inflight += 1
            return
        config = controller.config
        if len(self.queue) >= config.queue_capacity:
            controller.shed_request(self, function, request_id,
                                    "queue_full", 0.0)
        budget = None if deadline_at is None else deadline_at - sim.now
        if budget is not None:
            if budget <= 0.0:
                controller.shed_request(self, function, request_id,
                                        "deadline", 0.0)
            fraction = config.predictive_budget_fraction
            if (fraction is not None
                    and self.estimated_wait_s() > budget * fraction):
                controller.shed_request(self, function, request_id,
                                        "predicted_wait", 0.0)
        entry = _QueueEntry(sim.event(), sim.now)
        self.queue.append(entry)
        self.queued += 1
        if len(self.queue) > self.max_queue_depth:
            self.max_queue_depth = len(self.queue)
        controller.note_pressure()
        queue_span = trace.begin_phase("queue", shard=self.label)
        if budget is None:
            yield entry.event
        else:
            yield sim.any_of([entry.event, sim.timeout(budget)])
        waited = sim.now - entry.enqueued_s
        self.queue_wait_s += waited
        trace.end_phase(queue_span)
        if not entry.event.triggered:
            # The deadline budget drained while parked: shed, not dead.
            # (On the knife's edge where grant and deadline land on the
            # same instant, the triggered grant wins and the retry loop
            # expires the request normally.)
            entry.cancelled = True
            try:
                self.queue.remove(entry)
            except ValueError:
                pass
            controller.note_pressure()
            controller.shed_request(self, function, request_id,
                                    "deadline", waited)
        # Granted: _drain already took the slot on this waiter's behalf.
        self.admitted += 1
        return

    def release(self, service_s: float, ok: bool) -> None:
        """One in-flight request finished: feed the limiter, drain the
        queue into any capacity the new limit allows."""
        self.inflight -= 1
        before = self.limiter.limit
        self.limiter.on_complete(service_s, ok)
        after = self.limiter.limit
        if after != before:
            self.trajectory.append((round(self.sim.now, 9), after))
            self.limit_min_seen = min(self.limit_min_seen, after)
            self.limit_max_seen = max(self.limit_max_seen, after)
        self._drain()
        self.controller.note_pressure()

    def _drain(self) -> None:
        """Grant parked waiters FIFO while slots are free."""
        while self.queue and self.inflight < self.limiter.limit:
            entry = self.queue.popleft()
            if entry.cancelled:
                continue
            self.inflight += 1
            entry.event.succeed()

    # -- reporting -------------------------------------------------------------------

    def snapshot(self) -> dict:
        """Deterministic lifetime accounting for the SLO report."""
        trajectory = self.trajectory
        if len(trajectory) > 100:
            step = len(trajectory) / 100.0
            trajectory = [trajectory[int(i * step)] for i in range(100)]
        return {
            "shard": self.label,
            "limit": self.limiter.limit,
            "limit_min": self.limit_min_seen,
            "limit_max": self.limit_max_seen,
            "arrived": self.arrived,
            "admitted": self.admitted,
            "bypassed": self.bypassed,
            "shed": self.controller.runtime.fates.shed_by_gate.get(
                self.label, 0),
            "queued": self.queued,
            "max_queue_depth": self.max_queue_depth,
            "queue_wait_s": round(self.queue_wait_s, 9),
            "inflight": self.inflight,
            "queue_depth": len(self.queue),
            "limit_trajectory": [list(point) for point in trajectory],
        }


#: Families the overload controller owns, registered when it is wired.
OVERLOAD_METRICS = {
    "shed_total": MetricSpec(
        "repro_shed_total", "counter",
        "Requests shed at shard admission by the overload "
        "controller, by reason (queue_full | predicted_wait | "
        "deadline).",
        ("function", "reason"),
    ),
    "limit": MetricSpec(
        "repro_overload_limit", "gauge",
        "Adaptive AIMD concurrency limit per gateway shard "
        "(snapshot time).",
        ("shard",),
    ),
    "queue_depth": MetricSpec(
        "repro_overload_queue_depth", "gauge",
        "Bounded admission-queue depth per gateway shard "
        "(snapshot time).",
        ("shard",),
    ),
    "pressure": MetricSpec(
        "repro_overload_pressure", "gauge",
        "Saturation signal: worst shard's queue-fill x limit "
        "utilization (snapshot time).",
    ),
    "brownout_total": MetricSpec(
        "repro_overload_brownout_total", "counter",
        "Brownout state transitions (enter | exit).",
        ("state",),
    ),
}


class OverloadController:
    """Per-shard adaptive admission, deadline shedding and brownout.

    Construction self-wires like the other optional engines: it hangs
    itself off ``runtime.invoker.overload``, bounds the runtime's
    dead-letter queue, registers the lazy ``repro_overload_*`` /
    ``repro_shed_*`` metric families, and (when a hedging policy is
    armed) makes sure it carries a throttleable clone token bucket for
    the brownout to close.
    """

    def __init__(self, runtime: "MoleculeRuntime",
                 config: Optional[OverloadConfig] = None):
        self.runtime = runtime
        self.config = config or OverloadConfig()
        self._gates: dict[int, AdmissionGate] = {}
        self._gate_list: list[AdmissionGate] = []
        #: Every shed raised, including those the result cache went on
        #: to answer (repro.reuse shed-to-stale).
        self.shed_log: deque[dict] = deque(maxlen=SHED_LOG_CAPACITY)
        self.brownout_active = False
        self.brownout_entries = 0
        self._brownout_s = 0.0
        self._brownout_since: Optional[float] = None
        self.prewarm_suppressed = 0
        self.degraded_forced = 0
        self.metrics = runtime.obs.registry.register_table(OVERLOAD_METRICS)
        runtime.invoker.overload = self
        # Bound the dead-letter queue so a sustained overload cannot
        # grow it without limit (drop-oldest; see DeadLetterQueue).
        dead_letters = runtime.dead_letters
        if (self.config.dead_letter_capacity is not None
                and dead_letters.capacity is None):
            dead_letters.capacity = self.config.dead_letter_capacity
        # The brownout throttles hedge clones through the hedging
        # engine's global token bucket; install an unlimited-but-
        # throttleable bucket when the policy has none configured.
        hedging = runtime.hedging
        if hedging is not None and self.config.throttle_hedges:
            if hedging.budget is None:
                from repro.hedging.budget import HedgeBudget

                hedging.budget = HedgeBudget()

    @property
    def sim(self):
        return self.runtime.sim

    # -- gates -----------------------------------------------------------------------

    def attach_frontend(self, frontend) -> None:
        """Create one admission gate per gateway shard."""
        for shard in frontend.shards:
            self.gate_for(shard.gateway, label=str(shard.index))

    def gate_for(self, gateway, label: Optional[str] = None) -> AdmissionGate:
        """The gate guarding ``gateway`` (created on first use, so an
        unsharded runtime gets a single implicit gate)."""
        gate = self._gates.get(id(gateway))
        if gate is None:
            gate = AdmissionGate(
                self, gateway,
                label if label is not None else f"g{len(self._gate_list)}",
            )
            self._gates[id(gateway)] = gate
            self._gate_list.append(gate)
        return gate

    def gates(self) -> list[AdmissionGate]:
        return list(self._gate_list)

    # -- admission -------------------------------------------------------------------

    def gate_stage(self, inner, gateway, request, bypass: bool):
        """Generator: the request pipeline's gate stage, around the
        retry stage (``inner``).

        Takes a concurrency slot on the gateway's gate after gateway
        admission (so sheds still count against ``admitted``) and
        before the retry loop (so a shed is never retried or
        dead-lettered): the request may park in the gate's bounded
        queue, or be refused with :class:`RequestShed`.  ``bypass``
        exempts half-open breaker probes.  The slot is returned when
        ``inner`` finishes, its outcome feeding the AIMD limiter
        (service latency is grant-to-completion, so queue wait never
        counts against the limit).
        """
        gate = self.gate_for(gateway)
        yield from gate.acquire(
            request.function, request.request_id,
            gateway.deadline_for(request.request_id), request.trace, bypass,
        )
        granted_s = self.sim.now
        ok = False
        try:
            result = yield from inner
            ok = True
        finally:
            gate.release(self.sim.now - granted_s, ok)
        return result

    def shed_request(self, gate: AdmissionGate, function, request_id: int,
                     reason: str, waited_s: float):
        """Log one shed and raise :class:`RequestShed`; the request's
        fate is counted where it settles, in the runtime's fate ledger."""
        self.shed_log.append({
            "request_id": request_id,
            "function": function.name,
            "shard": gate.label,
            "reason": reason,
            "at_s": round(self.sim.now, 9),
            "waited_s": round(waited_s, 9),
        })
        self.metrics.shed_total.child(function.name, reason).inc()
        raise RequestShed(
            f"request {request_id} for {function.name!r} shed at "
            f"admission ({reason})",
            reason=reason,
            request_id=request_id,
            gate=gate.label,
        )

    # -- brownout --------------------------------------------------------------------

    def pressure(self) -> float:
        """The saturation signal: worst shard's queue-fill x limit
        utilization (both clamped to [0, 1]).

        Queue fill is normalised by the gate's *limit*, not its queue
        capacity: a backlog as deep as the concurrency window already
        means a full extra service time of queueing, which is pressure
        worth reacting to long before the capacity backstop fills.
        """
        worst = 0.0
        for gate in self._gate_list:
            limit = max(1.0, float(gate.limiter.limit))
            fill = min(1.0, len(gate.queue) / limit)
            util = min(1.0, gate.inflight / limit)
            worst = max(worst, fill * util)
        return worst

    def note_pressure(self) -> None:
        """Re-evaluate the brownout state machine (hysteresis plus a
        minimum dwell)."""
        pressure = self.pressure()
        if not self.brownout_active and pressure >= self.config.brownout_on:
            self._enter_brownout()
        elif (self.brownout_active
              and pressure <= self.config.brownout_off
              and (self._brownout_since is None
                   or self.sim.now - self._brownout_since
                   >= self.config.brownout_min_s)):
            self._exit_brownout()

    def _enter_brownout(self) -> None:
        self.brownout_active = True
        self.brownout_entries += 1
        self._brownout_since = self.sim.now
        self._set_hedge_throttle(True)
        self.metrics.brownout_total.child("enter").inc()

    def _exit_brownout(self) -> None:
        self.brownout_active = False
        if self._brownout_since is not None:
            self._brownout_s += self.sim.now - self._brownout_since
            self._brownout_since = None
        self._set_hedge_throttle(False)
        self.metrics.brownout_total.child("exit").inc()

    def _set_hedge_throttle(self, active: bool) -> None:
        if not self.config.throttle_hedges:
            return
        hedging = self.runtime.hedging
        if hedging is not None and hedging.budget is not None:
            hedging.budget.throttled = active

    def brownout_s(self) -> float:
        """Total simulated seconds spent in brownout (open interval
        included when currently active)."""
        active = (self.sim.now - self._brownout_since
                  if self._brownout_since is not None else 0.0)
        return self._brownout_s + active

    # -- brownout effects (consulted by invoker / warmpath) ----------------------------

    def degrade_accelerated(self) -> bool:
        """True while accelerator functions should fall back to their
        CPU-degraded profile."""
        return self.brownout_active

    def note_degraded(self) -> None:
        self.degraded_forced += 1

    def suppress_prewarm(self) -> bool:
        """True while the warm-path engine must not spawn pre-warm
        instances (each call during brownout counts one suppressed
        stocking pass)."""
        if self.brownout_active:
            self.prewarm_suppressed += 1
            return True
        return False

    # -- reporting -------------------------------------------------------------------

    def snapshot(self) -> dict:
        """Deterministic lifetime accounting for the SLO report."""
        fates = self.runtime.fates
        return {
            "shed": sum(fates.shed.values()),
            "shed_by_reason": dict(sorted(fates.shed.items())),
            "sheds_downgraded": fates.downgraded,
            "brownout_active": self.brownout_active,
            "brownout_entries": self.brownout_entries,
            "brownout_s": round(self.brownout_s(), 9),
            "prewarm_suppressed": self.prewarm_suppressed,
            "degraded_forced": self.degraded_forced,
            "gates": [gate.snapshot() for gate in self._gate_list],
        }
