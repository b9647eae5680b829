"""The reliability layer: retry policy, circuit breakers, dead letters
and the fate ledger.

Molecule spans loosely coupled PUs — DPUs running their own OS behind
RDMA, FPGAs behind DMA — exactly the setting where partial failure is
routine.  This module holds the mechanisms the invoker and scheduler
use to survive it:

* :class:`RetryPolicy` — bounded retries with exponential backoff and
  deterministic (seeded) jitter;
* :class:`CircuitBreaker` / :class:`HealthRegistry` — per-PU
  consecutive-failure breakers with half-open probing, plus hard
  up/down state driven by injected crashes; the scheduler excludes
  unavailable PUs from placement candidates;
* :class:`DeadLetterQueue` — requests exhausted of retries land here
  rather than vanishing;
* :class:`FateLedger` — every admitted request settles exactly once,
  as answered, shed or dead.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Optional, TYPE_CHECKING

from repro import config
from repro.errors import (
    DeadlineExceeded, FateImbalance, RetriesExhaustedError,
)
from repro.obs.metrics import MetricSpec
from repro.sim.rng import SeededRng

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.records import Attempt
    from repro.errors import RequestShed
    from repro.hardware.pu import ProcessingUnit
    from repro.obs import Observability
    from repro.reuse.engine import ReuseEngine


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff + deterministic jitter."""

    max_attempts: int = config.RELIABILITY.max_attempts
    backoff_base_ms: float = config.RELIABILITY.backoff_base_ms
    backoff_multiplier: float = config.RELIABILITY.backoff_multiplier
    backoff_max_ms: float = config.RELIABILITY.backoff_max_ms
    jitter: float = config.RELIABILITY.backoff_jitter

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1: {self.max_attempts}")
        if self.backoff_base_ms < 0 or self.backoff_max_ms < 0:
            raise ValueError("backoff durations must be non-negative")
        if not 0 <= self.jitter < 1:
            raise ValueError(f"jitter must be in [0, 1): {self.jitter}")

    def backoff_s(self, attempt: int, rng: Optional[SeededRng] = None) -> float:
        """Pause before retry number ``attempt`` (1 = first retry).

        Jitter is drawn from ``rng`` — a seeded stream — so the same
        seed reproduces the same retry timeline.
        """
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1: {attempt}")
        base = self.backoff_base_ms * self.backoff_multiplier ** (attempt - 1)
        base = min(base, self.backoff_max_ms)
        if rng is not None and self.jitter and base > 0:
            base *= 1.0 + rng.uniform(-self.jitter, self.jitter)
        return base * config.MS


class BreakerState(enum.Enum):
    """Circuit-breaker lifecycle states."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


#: Numeric encoding for the ``repro_breaker_state`` gauge.
BREAKER_STATE_VALUE = {
    BreakerState.CLOSED: 0,
    BreakerState.HALF_OPEN: 1,
    BreakerState.OPEN: 2,
}


class CircuitBreaker:
    """Consecutive-failure breaker over one PU.

    CLOSED counts consecutive failures; at the threshold it trips OPEN
    and rejects the PU for ``open_s``.  After that cool-down the next
    availability check moves it to HALF_OPEN, where exactly one probe
    attempt is admitted: success closes the breaker, failure re-opens
    it for another full cool-down.
    """

    def __init__(
        self,
        failure_threshold: int = config.RELIABILITY.breaker_failure_threshold,
        open_s: float = config.RELIABILITY.breaker_open_s,
    ):
        if failure_threshold < 1:
            raise ValueError(f"failure threshold must be >= 1: {failure_threshold}")
        if open_s <= 0:
            raise ValueError(f"open duration must be positive: {open_s}")
        self.failure_threshold = failure_threshold
        self.open_s = open_s
        self.state = BreakerState.CLOSED
        self.consecutive_failures = 0
        self.opened_at: Optional[float] = None
        self.probe_in_flight = False
        #: (sim_time, new_state) transition log for tests and reports.
        self.transitions: list[tuple[float, BreakerState]] = []
        #: Invoked (with no arguments) on every state transition; the
        #: health registry hooks this to invalidate availability caches.
        self.on_change: Optional[callable] = None

    def _transition(self, state: BreakerState, now: float) -> None:
        if state is self.state:
            return
        self.state = state
        self.transitions.append((now, state))
        if self.on_change is not None:
            self.on_change()

    def allows(self, now: float) -> bool:
        """True if an attempt may target this PU at ``now``.

        Moves OPEN -> HALF_OPEN once the cool-down elapsed; in
        HALF_OPEN only one probe is admitted until it resolves.
        """
        if self.state is BreakerState.OPEN:
            if self.opened_at is not None and now - self.opened_at >= self.open_s:
                self._transition(BreakerState.HALF_OPEN, now)
                self.probe_in_flight = False
            else:
                return False
        if self.state is BreakerState.HALF_OPEN:
            return not self.probe_in_flight
        return True

    def begin_attempt(self, now: float) -> bool:
        """Mark an attempt in flight; True when it claims the half-open
        probe slot (the only case that changes :meth:`allows`)."""
        if self.state is BreakerState.HALF_OPEN and not self.probe_in_flight:
            self.probe_in_flight = True
            return True
        return False

    def record_success(self, now: float) -> None:
        """An attempt on this PU completed: close the breaker."""
        self.consecutive_failures = 0
        self.probe_in_flight = False
        if self.state is not BreakerState.CLOSED:
            self._transition(BreakerState.CLOSED, now)

    def record_failure(self, now: float) -> None:
        """An attempt on this PU failed: count it, maybe trip open."""
        self.probe_in_flight = False
        if self.state is BreakerState.HALF_OPEN:
            # The probe failed: straight back to OPEN for a new cool-down.
            self.opened_at = now
            self._transition(BreakerState.OPEN, now)
            return
        self.consecutive_failures += 1
        if (
            self.state is BreakerState.CLOSED
            and self.consecutive_failures >= self.failure_threshold
        ):
            self.opened_at = now
            self._transition(BreakerState.OPEN, now)


class HealthRegistry:
    """Per-PU health: crash state plus a circuit breaker each.

    The scheduler consults :meth:`available` when building placement
    candidates; the invoker reports attempt outcomes through
    :meth:`record_success` / :meth:`record_failure`.
    """

    def __init__(
        self,
        sim,
        failure_threshold: int = config.RELIABILITY.breaker_failure_threshold,
        open_s: float = config.RELIABILITY.breaker_open_s,
        obs: Optional["Observability"] = None,
    ):
        self.sim = sim
        self.failure_threshold = failure_threshold
        self.open_s = open_s
        self.obs = obs
        self._breakers: dict[int, CircuitBreaker] = {}
        #: Ids of the PUs a crash took offline (read-only outside this
        #: class; the invoker reads it directly on every attempt).
        self.down: set[int] = set()
        #: Crash generation per PU id: incremented on every mark_down so
        #: an in-flight attempt can detect "my PU crashed while I ran"
        #: even if the PU rebooted before the attempt finished
        #: (read-only outside this class, like :attr:`down`).
        self.epochs: dict[int, int] = {}
        #: Names for metric labels, filled lazily.
        self._names: dict[int, str] = {}
        #: Bumped on every availability-affecting change (crashes,
        #: reboots, breaker transitions, probe claims).  The scheduler
        #: keys its candidate cache on this.
        self.version = 0

    def _bump(self) -> None:
        self.version += 1

    def breaker(self, pu: "ProcessingUnit") -> CircuitBreaker:
        """The breaker guarding one PU (created on first use)."""
        self._names[pu.pu_id] = pu.name
        breaker = self._breakers.get(pu.pu_id)
        if breaker is None:
            breaker = CircuitBreaker(self.failure_threshold, self.open_s)
            breaker.on_change = self._bump
            self._breakers[pu.pu_id] = breaker
        return breaker

    # -- crash state -------------------------------------------------------------

    def mark_down(self, pu: "ProcessingUnit") -> None:
        """A crash took this PU offline (until :meth:`mark_up`)."""
        self._names[pu.pu_id] = pu.name
        self.down.add(pu.pu_id)
        self.epochs[pu.pu_id] = self.epochs.get(pu.pu_id, 0) + 1
        self._bump()

    def mark_up(self, pu: "ProcessingUnit") -> None:
        """The PU rebooted: back in service with a fresh breaker."""
        self.down.discard(pu.pu_id)
        breaker = self.breaker(pu)
        breaker.consecutive_failures = 0
        breaker.probe_in_flight = False
        breaker._transition(BreakerState.CLOSED, self.sim._now)
        self._bump()

    def is_down(self, pu: "ProcessingUnit") -> bool:
        """True while the PU is crashed."""
        return pu.pu_id in self.down

    def epoch(self, pu: "ProcessingUnit") -> int:
        """How many times this PU has crashed so far."""
        return self.epochs.get(pu.pu_id, 0)

    # -- availability ------------------------------------------------------------

    def available(self, pu: "ProcessingUnit") -> bool:
        """True if the scheduler may place onto this PU right now."""
        if pu.pu_id in self.down:
            return False
        return self.breaker(pu).allows(self.sim._now)

    def filter_available(self, pus) -> tuple[tuple, float]:
        """``(available_pus, valid_until)`` for a candidate list.

        ``valid_until`` is the earliest simulated time at which an
        excluded OPEN breaker finishes its cool-down and could move to
        HALF_OPEN — i.e. when this filtering result may silently become
        stale without any registry mutation.  ``inf`` when no excluded
        PU can recover on its own.
        """
        now = self.sim._now
        available: list = []
        valid_until = float("inf")
        for pu in pus:
            if self.available(pu):
                available.append(pu)
                continue
            breaker = self._breakers.get(pu.pu_id)
            if (
                pu.pu_id not in self.down
                and breaker is not None
                and breaker.state is BreakerState.OPEN
                and breaker.opened_at is not None
            ):
                valid_until = min(valid_until, breaker.opened_at + breaker.open_s)
        return tuple(available), valid_until

    # -- attempt outcomes ----------------------------------------------------------

    def begin_attempt(self, pu: "ProcessingUnit") -> None:
        """An attempt is about to target ``pu``.  Only claiming a
        half-open probe slot changes availability, so only that bumps
        :attr:`version`; ordinary attempts keep the scheduler's
        candidate cache valid.  A CLOSED breaker has no slot to claim,
        so an existing one returns at once."""
        breaker = self._breakers.get(pu.pu_id)
        if breaker is not None and breaker.state is BreakerState.CLOSED:
            return
        if self.breaker(pu).begin_attempt(self.sim._now):
            self._bump()

    def record_success(self, pu: "ProcessingUnit") -> None:
        """An attempt on ``pu`` succeeded.  A settled breaker (CLOSED,
        no failures counted, no probe in flight) has nothing to reset,
        so it returns at once."""
        breaker = self._breakers.get(pu.pu_id)
        if (breaker is not None and breaker.state is BreakerState.CLOSED
                and not breaker.consecutive_failures
                and not breaker.probe_in_flight):
            return
        breaker = self.breaker(pu)
        before = breaker.state
        breaker.record_success(self.sim._now)
        self._observe(pu, before, breaker.state)

    def record_failure(self, pu: "ProcessingUnit") -> None:
        """An attempt on ``pu`` failed."""
        breaker = self.breaker(pu)
        before = breaker.state
        breaker.record_failure(self.sim._now)
        self._observe(pu, before, breaker.state)

    def _observe(self, pu, before: BreakerState, after: BreakerState) -> None:
        if self.obs is not None and before is not after:
            self.obs.metrics.breaker_transitions_total.child(
                pu.name, after.value
            ).inc()

    # -- reporting ---------------------------------------------------------------

    def states(self) -> dict[str, str]:
        """PU name -> breaker state (``down`` overrides), for reports."""
        out: dict[str, str] = {}
        for pu_id, breaker in sorted(self._breakers.items()):
            name = self._names.get(pu_id, str(pu_id))
            out[name] = "down" if pu_id in self.down else breaker.state.value
        for pu_id in sorted(self.down):
            out.setdefault(self._names.get(pu_id, str(pu_id)), "down")
        return out


@dataclass
class DeadLetter:
    """One request that exhausted its retry budget (or its deadline)."""

    request_id: int
    function: str
    attempts: int
    errors: tuple[str, ...]
    enqueued_at: float
    reason: str = "retries_exhausted"


#: Registered at the first eviction: only bounded queues that actually
#: overflow ever see it.
DEAD_LETTER_OVERFLOW = MetricSpec(
    "repro_dead_letter_overflow_total", "counter",
    "Dead letters evicted (drop-oldest) by a bounded "
    "dead-letter queue at capacity.",
)


class DeadLetterQueue:
    """Terminal parking lot for undeliverable requests.

    ``capacity`` bounds how many entries are *retained*: when a push
    overflows a bounded queue the oldest retained entry is dropped
    (drop-oldest — under sustained overload the recent dead letters are
    the ones an operator can still act on) and ``overflowed`` counts
    the evictions, mirrored to the lazy
    ``repro_dead_letter_overflow_total`` counter when ``obs`` is wired.
    ``len()`` deliberately keeps reporting the *total* ever
    dead-lettered, not the retained count, so the machine-wide
    conservation invariant (``answered + shed + dead == admitted``)
    survives overflow.  The default (``capacity=None``) is unbounded
    and behaves exactly as before; the overload controller installs a
    bound when it arms.
    """

    def __init__(self, capacity: Optional[int] = None, obs=None):
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1: {capacity}")
        self.capacity = capacity
        self.obs = obs
        self._entries: deque[DeadLetter] = deque()
        self.total = 0
        self.overflowed = 0

    def push(self, entry: DeadLetter) -> DeadLetter:
        """Record one undeliverable request (a bounded queue at
        capacity evicts its oldest entry)."""
        self.total += 1
        self._entries.append(entry)
        if self.capacity is not None and len(self._entries) > self.capacity:
            self._entries.popleft()
            self.overflowed += 1
            if self.obs is not None:
                self.obs.registry.register(DEAD_LETTER_OVERFLOW).inc()
        return entry

    def entries(self) -> list[DeadLetter]:
        """Retained dead letters, oldest first."""
        return list(self._entries)

    def request_ids(self) -> set[int]:
        """The retained request ids (for the answered-xor-dead check)."""
        return {entry.request_id for entry in self._entries}

    def __len__(self) -> int:
        """Total requests ever dead-lettered (invariant accounting;
        equals the retained count while unbounded or under capacity)."""
        return self.total


#: The dead-letter reason of each terminal exception ("error" otherwise).
_DEAD_REASONS = {
    DeadlineExceeded: "deadline", RetriesExhaustedError: "retries_exhausted",
}


class FateLedger:
    """Exactly one fate per admitted request, counted by sub-reason.

    :meth:`repro.core.invoker.Invoker.invoke` is the only writer: it
    admits a request once the gateway returns its id and settles it
    once where the stage chain ends.  Only counts are kept, plus the
    request's ``Attempt.fate``, so memory stays constant in run length.
    A second settlement raises at once and stays counted, so
    :meth:`check` fails even where a caller swallows the error.
    """

    def __init__(self):
        self.admitted = 0
        self.answered: dict[str, int] = {}
        self.shed: dict[str, int] = {}
        self.dead: dict[str, int] = {}
        #: Sheds by the shard label of the gate that shed them.
        self.shed_by_gate: dict[str, int] = {}
        #: Answers the result cache gave in place of a gate's shed.
        self.downgraded = 0

    def _settle(self, request: "Attempt", fate: str, tally: dict,
                reason) -> None:
        tally[reason] = tally.get(reason, 0) + 1
        if request.fate:
            raise FateImbalance(f"request {request.request_id} settled "
                                f"twice: {request.fate}, then {fate}")
        request.fate = fate

    def settle_answered(self, request: "Attempt", result) -> None:
        reason = "hedged" if result.hedged else result.cache or "executed"
        self._settle(request, "answered", self.answered, reason)
        if result.cache_reason == "shed":
            self.downgraded += 1

    def settle_shed(self, request: "Attempt", shed: "RequestShed") -> None:
        self._settle(request, "shed", self.shed, shed.reason)
        self.shed_by_gate[shed.gate] = self.shed_by_gate.get(shed.gate, 0) + 1

    def settle_dead(self, request: "Attempt", exc: Exception) -> None:
        reason = _DEAD_REASONS.get(type(exc), "error")
        self._settle(request, "dead", self.dead, reason)

    @property
    def in_flight(self) -> int:
        """Admitted requests not settled (yet)."""
        settled = (self.answered, self.shed, self.dead)
        return self.admitted - sum(sum(t.values()) for t in settled)

    def check(self, admitted: int, dead: int,
              reuse: Optional["ReuseEngine"] = None) -> None:
        """Raise :class:`~repro.errors.FateImbalance` unless every admitted
        request settled and the ledger agrees with the gateways'
        ``admitted``, the dead-letter total ``dead`` and, with the
        result cache armed, its fresh, stale and executed answers."""
        found = []
        if self.admitted != admitted:
            found.append(f"{self.admitted} admitted, but the gateways "
                         f"admitted {admitted}")
        if sum(self.dead.values()) != dead:
            found.append(f"{sum(self.dead.values())} dead, but {dead} "
                         "dead-lettered")
        if self.in_flight:
            found.append(f"{self.in_flight} requests in flight")
        if reuse is not None:
            get = self.answered.get
            ours = (get("fresh", 0), get("stale", 0),
                    get("executed", 0) + get("hedged", 0))
            theirs = (reuse.served_fresh, reuse.served_stale, reuse.executed)
            if ours != theirs:
                found.append(f"fresh/stale/executed answers {ours}, but "
                             f"the result cache counted {theirs}")
        if found:
            raise FateImbalance("request fates do not balance: "
                                + "; ".join(found))

    def snapshot(self) -> dict:
        """The ``fates`` block of a run report."""
        return {
            "admitted": self.admitted,
            **{fate: dict(sorted(getattr(self, fate).items()))
               for fate in ("answered", "shed", "dead")},
            "in_flight": self.in_flight,
        }
