"""Tail-latency hedging by request cloning.

A hedged request runs as two racing *copies* of one attempt: the
primary is dispatched normally, and when it is still in flight once its
elapsed latency crosses the function's observed upper percentile (the
*trigger*), a clone is launched onto a second healthy PU distinct from
the primary's (anti-affinity).  The first copy to complete answers the
request; the loser is cancelled at its next checkpoint inside the
invoker, and any execution it already burned is charged to the billing
ledger as hedge waste.

The policy layer here owns the *decisions* and the *accounting*:

* :class:`HedgeConfig` — percentile, warm-up sample floor, trigger
  clamps;
* :class:`HedgePolicy` — eligibility (healthy distinct candidates,
  general-purpose path only), the per-function
  :class:`~repro.hedging.tracker.LatencyTracker` that feeds the
  percentile trigger, lifetime counters, and the per-hedge event log
  the golden hedge trace pins down;
* :class:`_HedgeState` — the shared first-wins join state of one
  hedged attempt (claim, loser detection, completion notification).

* :func:`hedge_stage` — the race itself, the request pipeline's
  hedge stage: the retry loop runs it in place of a plain attempt and
  it spawns the racing copies; each copy runs the invoker's
  general-purpose path, whose cancellation checkpoints ask the join
  state whether the copy already lost.

Like the warm-path engine, hedging is fully optional:
``MoleculeRuntime(hedging=None)`` leaves every code path and every
metric family byte-identical to a runtime that never heard of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.errors import HedgeCancelled, ReproError, SchedulingError
from repro.hedging.tracker import LatencyTracker
from repro.obs.metrics import MetricSpec
from repro.obs.spans import NULL_TRACE, START_HEDGED

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.molecule import MoleculeRuntime


@dataclass
class HedgeConfig:
    """Tuning knobs for the hedge policy."""

    #: Latency percentile that arms the trigger: a request still in
    #: flight past its function's observed q-th percentile is hedged.
    percentile: float = 95.0
    #: Completions a function must accumulate before its percentile is
    #: trusted; below the floor the fallback trigger (if any) applies.
    min_samples: int = 10
    #: Fixed trigger delay (seconds) used while a function is below
    #: ``min_samples``.  None disables hedging until the tracker warms —
    #: but the burst tails hedging exists for form *before* any tracker
    #: could warm (the first cold stampede), so the default fires a
    #: conservative 250 ms fallback from the first request.
    default_trigger_s: Optional[float] = 0.25
    #: Floor under the trigger delay: never hedge earlier than this,
    #: whatever the histogram says (sub-ms triggers would clone nearly
    #: every request).
    min_trigger_s: float = 0.002
    #: Global clone budget (repro.hedging.budget): tokens accrue at
    #: this ratio per answered request and every clone spends one, so
    #: lifetime ``fired <= budget_burst + budget_ratio * answered``
    #: whatever the latency distribution.  None disables rate limiting
    #: (the overload controller still installs a throttleable bucket
    #: for its brownout when needed).
    budget_ratio: Optional[float] = None
    #: Token-bucket depth: clones the budget may burst ahead of accrual.
    budget_burst: float = 4.0
    #: Refuse clones while hedge-wasted cost exceeds this fraction of
    #: the total bill so far (None: no waste ceiling).
    budget_waste_ceiling: Optional[float] = None


class _HedgeState:
    """First-wins join state shared by the copies of one hedged attempt.

    The racing copies run in separate simulated processes; this object
    is how they agree on a winner.  ``claim`` is called
    synchronously at a copy's final checkpoint (no yields between the
    check and the claim), so exactly one copy ever wins.
    """

    __slots__ = (
        "function", "request_id", "trigger_s", "exclude", "pu_hint",
        "winner", "failures", "pending", "fired", "event", "policy",
        "trigger_event", "_waiter",
    )

    def __init__(self, function, request_id: int, trigger_s: float):
        self.function = function
        self.request_id = request_id
        #: Seconds of primary flight time before the clone launches.
        self.trigger_s = trigger_s
        #: The policy that opened this state (stamped by ``begin``); the
        #: invoker's checkpoints charge waste through it so a per-job
        #: speculation policy (repro.futures) is billed separately from
        #: the runtime-wide hedger.
        self.policy = None
        #: Externally fired clone trigger (repro.futures straggler
        #: gather): when set, the join loop waits on this event instead
        #: of the ``trigger_s`` timer.
        self.trigger_event = None
        #: The primary's PU at fire time: the clone never lands on it.
        self.exclude = None
        #: Best-known PU of a primary that has no placement yet (a
        #: parked coalesced follower inherits its batch's PU).
        self.pu_hint = None
        #: (tag, result, (placed PU, crash epoch)) of the first
        #: completed copy.
        self.winner = None
        #: Errors of copies that failed outright (oldest first).
        self.failures: list = []
        #: Copies still in flight.
        self.pending = 0
        #: True once the clone actually launched.
        self.fired = False
        #: The policy's event-log record for this hedge (None until
        #: fired); mutated in place as the race resolves.
        self.event = None
        self._waiter = None

    def arm(self, sim):
        """Create the completion event the join loop waits on."""
        self._waiter = sim.event()
        return self._waiter

    def disarm(self) -> None:
        self._waiter = None

    def notify(self) -> None:
        """Wake the join loop after a copy completed, failed, or was
        cancelled."""
        if self._waiter is not None and not self._waiter.triggered:
            self._waiter.succeed()

    def claim(self, tag: str, result, placement) -> bool:
        """Atomically claim the win for ``tag``; False if already won."""
        if self.winner is None:
            self.winner = (tag, result, placement)
            return True
        return False

    def lost(self, tag: str) -> bool:
        """True once the *other* copy has won (this one must cancel):
        the probe behind every cancellation checkpoint."""
        return self.winner is not None and self.winner[0] != tag

    def avoid(self, tag: str):
        """The PU the ``tag`` copy must not land on (clone
        anti-affinity), or None."""
        return self.exclude if tag == "clone" else None


#: Families the hedging engine owns, registered when a policy is built.
HEDGE_METRICS = {
    "fired": MetricSpec(
        "repro_hedge_fired", "counter",
        "Hedge clones launched after the percentile trigger fired "
        "with the primary copy still in flight.",
        ("function",),
    ),
    "won": MetricSpec(
        "repro_hedge_won", "counter",
        "Hedged requests answered by the clone (the primary lost "
        "the first-wins race).",
        ("function",),
    ),
    "cancelled": MetricSpec(
        "repro_hedge_cancelled", "counter",
        "Hedge clones torn down at a cancellation checkpoint after "
        "the primary answered first.",
        ("function",),
    ),
    "wasted_seconds": MetricSpec(
        "repro_hedge_wasted_seconds", "counter",
        "Execution seconds burned by losing hedge copies and then "
        "discarded.",
        ("function",),
    ),
    "throttled": MetricSpec(
        "repro_hedge_throttled", "counter",
        "Hedge clones refused by the global token-bucket budget "
        "(out of tokens, waste ceiling, or overload brownout).",
        ("function",),
    ),
}


class HedgePolicy:
    """Decides when to hedge and accounts for what hedging cost."""

    def __init__(self, runtime: "MoleculeRuntime",
                 config: Optional[HedgeConfig] = None, wire: bool = True):
        self.runtime = runtime
        self.config = config or HedgeConfig()
        self.tracker = LatencyTracker()
        # Lifetime counters (also exported as repro_hedge_* metrics).
        self.fired = 0
        self.won = 0
        self.cancelled = 0
        self.skipped = 0
        self.throttled = 0
        self.losers_completed = 0
        self.wasted_s = 0.0
        self.wasted_cost = 0.0
        self.observed = 0
        #: One record per fired hedge, in fire order; mutated in place
        #: as each race resolves.  The golden hedge trace pins these.
        self.events: list[dict] = []
        #: Global clone token bucket (None: unbudgeted and, absent an
        #: overload controller, unthrottleable).
        self.budget = None
        if (self.config.budget_ratio is not None
                or self.config.budget_waste_ceiling is not None):
            from repro.hedging.budget import HedgeBudget

            self.budget = HedgeBudget(
                ratio=self.config.budget_ratio,
                burst=self.config.budget_burst,
                waste_ceiling=self.config.budget_waste_ceiling,
            )
        self.metrics = runtime.obs.registry.register_table(HEDGE_METRICS)
        # ``wire=False`` builds a free-standing policy (the fan-out
        # engine's straggler speculation) that must not become the
        # runtime-wide hedger: it is passed per request instead.
        if wire:
            runtime.invoker.hedging = self

    # -- trigger ---------------------------------------------------------------------

    def observe(self, func_name: str, latency_s: float) -> None:
        """Feed one successful completion into the latency tracker."""
        self.tracker.observe(func_name, latency_s)
        self.observed += 1
        if self.budget is not None:
            self.budget.on_answered()

    def trigger_delay(self, function) -> Optional[float]:
        """Seconds a request may fly before its clone launches, or
        None when this function cannot be hedged yet."""
        config = self.config
        if self.tracker.count(function.name) >= config.min_samples:
            delay = self.tracker.latency_percentile(
                function.name, config.percentile
            )
        else:
            delay = config.default_trigger_s
        if delay is None:
            return None
        return max(config.min_trigger_s, delay)

    def can_trigger(self, function) -> bool:
        """Whether a clone trigger can arm for ``function`` yet (its
        percentile is trusted, or a fallback delay applies)."""
        return self.trigger_delay(function) is not None

    def eligible(self, function, kind, resolved_kind, pu, force_cold) -> bool:
        """Whether this attempt should run hedged.

        Only the general-purpose path hedges (accelerated attempts have
        no cancellation checkpoints), only when the caller did not pin a
        PU, and only when at least two healthy PUs could host the
        function — otherwise the clone could never satisfy
        anti-affinity.
        """
        if pu is not None or force_cold:
            return False
        if not resolved_kind.general_purpose:
            return False
        if not self.can_trigger(function):
            return False
        try:
            candidates = self.runtime.scheduler.candidates(function, kind)
        except SchedulingError:
            return False
        return len(candidates) >= 2

    # -- race lifecycle --------------------------------------------------------------

    def begin(self, function, request_id: int) -> _HedgeState:
        """Open the join state for one hedged attempt."""
        state = _HedgeState(function, request_id, self.trigger_delay(function))
        state.policy = self
        return state

    def fire(self, state: _HedgeState, function, kind, primary_pu) -> bool:
        """Decide whether the clone actually launches.

        ``primary_pu`` is the primary's PU at trigger time (or its
        batch's PU if it is still parked).  Unknown placement or no
        healthy distinct candidate means no clone — counted skipped.
        """
        candidates = ()
        if primary_pu is not None:
            try:
                candidates = self.runtime.scheduler.clone_candidates(
                    function, kind, exclude=primary_pu
                )
            except SchedulingError:
                candidates = ()
        if not candidates:
            self.skipped += 1
            return False
        if self.budget is not None:
            total_cost = (self.runtime.ledger.total_cost
                          if self.budget.waste_ceiling is not None else 0.0)
            if not self.budget.try_fire(self.wasted_cost, total_cost):
                self.skipped += 1
                self.throttled += 1
                self.metrics.throttled.child(function.name).inc()
                return False
        state.fired = True
        state.exclude = primary_pu
        state.pending += 1
        self.fired += 1
        self.metrics.fired.child(function.name).inc()
        state.event = {
            "request_id": state.request_id,
            "function": function.name,
            "primary_pu": primary_pu.name,
            "clone_pu": None,
            "winner": None,
            "wasted_ms": 0.0,
        }
        self.events.append(state.event)
        return True

    def on_won(self, state: _HedgeState, tag: str, result) -> None:
        """A copy claimed the win."""
        if state.event is not None:
            state.event["winner"] = tag
            if tag == "clone":
                state.event["clone_pu"] = result.pu_name
        if tag == "clone":
            self.won += 1
            self.metrics.won.child(state.function.name).inc()

    def on_cancelled(self, state: _HedgeState, tag: str, placed,
                     wasted_s: float) -> None:
        """A losing copy was torn down (or died after the win);
        ``placed`` is the PU it had landed on, if any."""
        if tag == "clone":
            self.cancelled += 1
            self.metrics.cancelled.child(state.function.name).inc()
            if (state.event is not None and state.event["clone_pu"] is None
                    and placed is not None):
                state.event["clone_pu"] = placed.name
        if wasted_s > 0.0:
            self.wasted_s += wasted_s
            self.metrics.wasted_seconds.child(state.function.name).inc(
                wasted_s
            )
            if state.event is not None:
                state.event["wasted_ms"] += round(wasted_s * 1000.0, 6)

    def on_loser_completed(self, state: _HedgeState, tag: str, result) -> None:
        """Defensive: a loser ran to completion without hitting a
        cancellation checkpoint (the general-purpose path always has
        one before responding, so this staying zero is itself a tested
        invariant)."""
        self.losers_completed += 1
        self.on_cancelled(state, tag, None, result.exec_s)

    def charge_waste(self, request_id: int, function, pu, exec_s: float):
        """Bill the execution a cancelled loser already burned."""
        entry = self.runtime.ledger.charge(
            request_id, function.name, pu, exec_s, hedge_waste=True
        )
        self.wasted_cost += entry.cost
        return entry

    # -- reporting -------------------------------------------------------------------

    def snapshot(self) -> dict:
        """Lifetime accounting (stable keys, deterministic values;
        budget keys appear only when a bucket is installed, keeping
        unbudgeted reports identical to earlier releases)."""
        snap = {
            "fired": self.fired,
            "won": self.won,
            "cancelled": self.cancelled,
            "skipped": self.skipped,
            "losers_completed": self.losers_completed,
            "wasted_s": round(self.wasted_s, 9),
            "wasted_cost": round(self.wasted_cost, 9),
            "observed": self.observed,
        }
        if self.budget is not None:
            snap["throttled"] = self.throttled
            snap["budget"] = self.budget.snapshot()
        return snap


# -- the hedge stage ---------------------------------------------------------------


def hedge_stage(invoker, hedger, attempt):
    """Generator: one attempt, hedged.

    Runs the primary copy normally, arms the percentile trigger, and —
    if the primary is still in flight when it fires — launches a clone
    onto a healthy PU distinct from the primary's.  The first copy to
    complete answers; the loser tears itself down at its next
    cancellation checkpoint in the invoker's general-purpose path.
    ``hedger`` is the request's policy (the runtime-wide hedger, or a
    per-request one such as repro.futures' straggler speculation).
    """
    sim = invoker.sim
    function, request_id = attempt.function, attempt.request_id
    state = hedger.begin(function, request_id)
    state.pending = 1
    trace = attempt.trace
    # The primary writes its spans to the request's trace.  If the
    # clone wins, the primary is orphaned exactly like a
    # deadline-orphaned attempt: it keeps running only to release its
    # resources through the normal paths, and the request closes its
    # trace in the same step, so the primary's late writes are dropped.
    primary = attempt.copy(attempt.kind, attempt.pu, trace, state, "primary")
    sim.spawn(
        _race_copy(invoker, hedger, primary),
        name=f"hedge-primary:{function.name}#{request_id}",
    )
    # Phase 1: primary vs the clone trigger — the percentile timer, or
    # an externally fired event (repro.futures straggler gather).
    waiter = state.arm(sim)
    trigger = (
        state.trigger_event
        if state.trigger_event is not None
        else sim.timeout(state.trigger_s)
    )
    yield sim.any_of([waiter, trigger])
    state.disarm()
    if state.winner is None and not state.failures:
        # Trigger fired with the primary still in flight: clone it.
        primary_pu = primary.placed or state.pu_hint
        if hedger.fire(state, function, attempt.kind, primary_pu):
            clone = attempt.copy(attempt.kind, None, NULL_TRACE, state, "clone")
            sim.spawn(
                _race_copy(invoker, hedger, clone),
                name=f"hedge-clone:{function.name}#{request_id}",
            )
    # Phase 2: first completed copy wins; all copies failing loses.
    while state.winner is None:
        if state.pending == 0:
            raise state.failures[-1]
        waiter = state.arm(sim)
        yield waiter
        state.disarm()
    tag, result, placement = state.winner
    attempt.placed, attempt.epoch = placement
    if tag == "clone":
        # The primary lost: close its dangling phase spans and restamp
        # the root with the clone's identity.
        trace.unwind()
        trace.annotate(
            pu=result.pu_name,
            pu_kind=result.pu_kind.value,
            start_kind=START_HEDGED,
        )
    if state.fired:
        result.hedged = True
        result.hedge_winner = tag
        trace.annotate(hedged=True)
    return result


def _race_copy(invoker, hedger, attempt):
    """Generator: one copy (primary or clone) of a hedged attempt.

    Runs the invoker's general-purpose path so the copy's process never
    fails unwaited: errors and cancellations are absorbed into the
    shared :class:`_HedgeState` and surfaced to the join loop via
    ``notify``.
    """
    state, tag = attempt.hedge, attempt.tag
    try:
        result = yield from invoker._attempt_general(attempt)
    except HedgeCancelled as exc:
        hedger.on_cancelled(state, tag, attempt.placed, exc.wasted_s)
    except ReproError as exc:
        if state.winner is not None:
            # The loser died on its own (e.g. its PU crashed after the
            # winner answered): nothing further to account.
            hedger.on_cancelled(state, tag, attempt.placed, 0.0)
        else:
            state.failures.append(exc)
            if attempt.placed is not None:
                invoker.health.record_failure(attempt.placed)
    else:
        # The winner keeps the copy's placement, not the copy itself:
        # the copy points back at this state, and the cycle would leave
        # every race to the cyclic collector.
        if state.claim(tag, result, (attempt.placed, attempt.epoch)):
            hedger.on_won(state, tag, result)
        else:
            # Ran to completion without hitting a checkpoint after the
            # winner claimed (defensive: the general-purpose path
            # always checkpoints before responding).
            hedger.on_loser_completed(state, tag, result)
    state.pending -= 1
    state.notify()
