"""Shared-resource primitives built on the event kernel.

Three classic primitives, mirroring the SimPy vocabulary:

* :class:`Resource` -- a counted lock (e.g. CPU cores): processes
  ``request()`` a slot, and ``release()`` it when done.
* :class:`Store` -- a FIFO buffer of Python objects (e.g. a message
  queue): ``put`` and ``get`` events.
* :class:`Container` -- a quantity pool (e.g. bytes of device DRAM):
  ``put(amount)`` / ``get(amount)``.

All wait queues are strictly FIFO, which keeps simulations
deterministic.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Optional

from repro.errors import SimulationError
from repro.sim.core import Event, Simulator


class Request(Event):
    """Pending acquisition of one :class:`Resource` slot."""

    __slots__ = ("resource",)

    def __init__(self, sim: Simulator, resource: "Resource"):
        super().__init__(sim)
        self.resource = resource


class Resource:
    """A counted resource with ``capacity`` interchangeable slots."""

    def __init__(self, sim: Simulator, capacity: int = 1):
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self._users: set[Request] = set()
        self._waiting: deque[Request] = deque()

    @property
    def in_use(self) -> int:
        """Number of slots currently held."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._waiting)

    def request(self) -> Request:
        """Ask for a slot; the returned event succeeds once it is held."""
        req = Request(self.sim, self)
        if len(self._users) < self.capacity:
            self._users.add(req)
            req.succeed()
        else:
            self._waiting.append(req)
        return req

    def release(self, request: Request) -> None:
        """Return a previously granted slot (idempotent for waiters)."""
        if request in self._users:
            self._users.remove(request)
            self._grant_next()
        else:
            # Cancelling a request that never got a slot.
            try:
                self._waiting.remove(request)
            except ValueError:
                pass

    def _grant_next(self) -> None:
        while self._waiting and len(self._users) < self.capacity:
            req = self._waiting.popleft()
            self._users.add(req)
            req.succeed()


class Store:
    """A FIFO buffer of items with optional bounded capacity."""

    def __init__(self, sim: Simulator, capacity: float = float("inf")):
        if capacity <= 0:
            raise SimulationError("store capacity must be positive")
        self.sim = sim
        self.capacity = capacity
        self.items: deque[Any] = deque()
        self._getters: deque[Event] = deque()
        self._putters: deque[tuple[Event, Any]] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> Event:
        """Add ``item``; succeeds immediately unless the store is full.

        Uses the kernel's slab (``sim.event()``), so the zero-delay
        ``put -> get`` handoff — succeed the getter, succeed the put —
        recycles two pooled events through the current timestep's
        bucket without ever touching the heap.
        """
        event = self.sim.event()
        if len(self.items) < self.capacity:
            self.items.append(item)
            event.succeed()
            self._serve_getters()
        else:
            self._putters.append((event, item))
        return event

    def get(self) -> Event:
        """Take the oldest item; blocks (as an event) while empty."""
        event = self.sim.event()
        if self.items:
            event.succeed(self.items.popleft())
            self._serve_putters()
        else:
            self._getters.append(event)
        return event

    def _serve_getters(self) -> None:
        while self._getters and self.items:
            self._getters.popleft().succeed(self.items.popleft())
            self._serve_putters()

    def _serve_putters(self) -> None:
        while self._putters and len(self.items) < self.capacity:
            event, item = self._putters.popleft()
            self.items.append(item)
            event.succeed()
            self._serve_getters()


class Container:
    """A pool holding a continuous amount (bytes, joules, ...)."""

    def __init__(self, sim: Simulator, capacity: float, init: float = 0.0):
        if capacity <= 0:
            raise SimulationError("container capacity must be positive")
        if not 0 <= init <= capacity:
            raise SimulationError("initial level must lie within [0, capacity]")
        self.sim = sim
        self.capacity = capacity
        self._level = init
        self._getters: deque[tuple[Event, float]] = deque()
        self._putters: deque[tuple[Event, float]] = deque()

    @property
    def level(self) -> float:
        """Current amount stored."""
        return self._level

    def put(self, amount: float) -> Event:
        """Add ``amount``; waits while it would overflow capacity."""
        if amount < 0:
            raise SimulationError("cannot put a negative amount")
        event = self.sim.event()
        self._putters.append((event, amount))
        self._settle()
        return event

    def get(self, amount: float) -> Event:
        """Remove ``amount``; waits while the level is insufficient."""
        if amount < 0:
            raise SimulationError("cannot get a negative amount")
        if amount > self.capacity:
            raise SimulationError("request exceeds container capacity")
        event = self.sim.event()
        self._getters.append((event, amount))
        self._settle()
        return event

    def _settle(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            if self._putters:
                event, amount = self._putters[0]
                if self._level + amount <= self.capacity:
                    self._putters.popleft()
                    self._level += amount
                    event.succeed()
                    progressed = True
            if self._getters:
                event, amount = self._getters[0]
                if amount <= self._level:
                    self._getters.popleft()
                    self._level -= amount
                    event.succeed(amount)
                    progressed = True


class PreemptibleClock:
    """Tracks busy time of a shared unit; useful for utilisation stats.

    Marks nest: with overlapping activities, the unit counts as busy
    while *any* activity is in flight (depth > 0).
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._busy_since: Optional[float] = None
        self._depth = 0
        self.busy_time = 0.0

    def mark_busy(self) -> None:
        """One activity started; the unit is busy while depth > 0."""
        if self._depth == 0:
            self._busy_since = self.sim._now
        self._depth += 1

    def mark_idle(self) -> None:
        """One activity finished (no-op when nothing is in flight)."""
        if self._depth == 0:
            return
        self._depth -= 1
        if self._depth == 0 and self._busy_since is not None:
            self.busy_time += self.sim._now - self._busy_since
            self._busy_since = None

    def utilization(self, since: float = 0.0) -> float:
        """Fraction of wall time busy over ``[since, now]``."""
        span = self.sim.now - since
        if span <= 0:
            return 0.0
        busy = self.busy_time
        if self._busy_since is not None:
            busy += self.sim.now - self._busy_since
        return min(1.0, busy / span)
