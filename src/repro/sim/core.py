"""Deterministic discrete-event simulation kernel.

This is a small, from-scratch engine in the style of SimPy: simulated
activities are Python generators that ``yield`` :class:`Event` objects
and are resumed when those events trigger.  The kernel is deterministic:
events scheduled for the same timestamp are processed in (priority,
insertion-order) order, so a seeded run always produces the same trace.

The dispatch path is tuned for wall-clock throughput (this kernel is
the hard ceiling on how much traffic the reproduction can replay).  The
scheduler is a **two-level ready queue** drained in **timestep
batches**:

* the heap holds one bare float per *distinct pending timestamp* (float
  comparisons are the cheapest heap ops possible); the bucket map keys
  each timestamp to the scheduled event itself while the timestep has
  exactly one (the overwhelmingly common case for timers), promoting to
  a deque only when a second event lands on the same timestamp.
  Scheduling onto an already-pending timestep — the common case for
  zero-delay wakeups, FIFO handoffs and fan-in/fan-out storms — never
  touches the heap;
* URGENT events are only ever scheduled *at the current instant* (the
  kernel's own resumptions, interrupts and condition triggers), so they
  live in one global deque and never touch the heap or the bucket map
  at all;
* :meth:`Simulator.run` drains a whole timestep per heap pop: every
  same-timestamp event dispatches in (priority, seq) order straight out
  of the lanes, including events enqueued *during* the batch (URGENT
  arrivals preempt the remaining NORMAL backlog exactly as the old
  per-event heap did; zero-delay NORMAL arrivals append to the
  timestep's bucket — or, for singleton timesteps, to a persistent
  scratch deque — with a bare append);
* event records are **slab-allocated**: finished :class:`Timeout` and
  plain :class:`Event` objects with no surviving outside reference are
  recycled through free-lists, as are the pooled :class:`_Resume`
  records and the bucket lane structures themselves;
* process resumption for already-processed targets, bootstrap and
  interrupts enqueues a pooled :class:`_Resume` record directly instead
  of allocating an intermediate wakeup :class:`Event`;
* :meth:`Process.interrupt` tombstones its callback slot in O(1); a
  process adopting the interrupted one's inline generator takes it over;
* a finished :class:`Process` drops its generator and its cached
  resume callback, so it holds no reference cycle and is freed by
  reference counting rather than by the cyclic collector.

While a process's generator runs, :attr:`Simulator.active_process`
names it (SimPy's name; ``None`` between resumptions).  Code deep in
a ``yield from`` chain uses it to hand its own process to a timer
that may later :meth:`Process.interrupt` it, as the invoker's request
deadline does.

None of this changes the (time, priority, seq) ordering contract: a
seeded run produces a byte-identical trace with or without batching.
The pre-batch per-event heap loop is kept available as an ordering
oracle under ``Simulator(batched=False)``; the property suite replays
random schedule/cancel/interrupt interleavings through both and
asserts identical dispatch order.

Lightweight profiling counters (events dispatched per kind, batch-size
histogram, heap ops avoided, slab hit rates) accumulate as the kernel
runs and snapshot through :meth:`Simulator.kernel_profile`; ``repro
perf --profile`` emits them next to BENCH_perf.json.

Example
-------
>>> sim = Simulator()
>>> def hello(sim):
...     yield sim.timeout(1.5)
...     return sim.now
>>> proc = sim.spawn(hello(sim))
>>> sim.run()
>>> proc.value
1.5
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Generator, Iterable, Optional

try:  # CPython: exact reference counts gate the free-lists.
    from sys import getrefcount as _getrefcount
except ImportError:  # pragma: no cover - PyPy et al: disable recycling
    def _getrefcount(obj: object) -> int:
        return 1 << 30

from repro.errors import Interrupt, SimulationError

#: Scheduling priorities: URGENT callbacks run before NORMAL ones that
#: share a timestamp.  Used internally to make process resumption
#: deterministic; user code rarely needs anything but NORMAL.
URGENT = 0
NORMAL = 1

_PENDING = 0
_TRIGGERED = 1
_PROCESSED = 2

#: A drained bucket slot's event is referenced only by the dispatch
#: local and ``getrefcount``'s argument when nothing else holds it.
_POOL_REFS = 2

#: Batch-size histogram buckets: index ``size.bit_length()`` capped at
#: ``_HIST_SLOTS - 1``, i.e. 1, 2-3, 4-7, ... with one overflow slot.
_HIST_SLOTS = 17

# A bucket-map entry is a single NORMAL event, or a bare deque of them
# once the timestamp collides.  Deques are consumed from the left, so
# an exception escaping ``run()`` (a failed, undefused event) leaves
# the timestep resumable: a collided bucket keeps its undrained tail
# and its heap entry until fully drained.


class Event:
    """A happening at a point in simulated time.

    An event starts *pending*, becomes *triggered* once :meth:`succeed`
    or :meth:`fail` is called (which schedules it on the event queue),
    and is *processed* once the simulator has run its callbacks.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_state", "_defused")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        #: Callables invoked with this event when it is processed.
        #: Slots may be tombstoned to ``None`` by an interrupt; the
        #: dispatch loop skips them.
        self.callbacks: list[Optional[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok: bool = True
        self._state = _PENDING
        self._defused = False

    @property
    def triggered(self) -> bool:
        """True once the event has a value and is queued for processing."""
        return self._state >= _TRIGGERED

    @property
    def processed(self) -> bool:
        """True once callbacks have been run."""
        return self._state == _PROCESSED

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception instance if it failed)."""
        if self._state == _PENDING:
            raise SimulationError("event value is not available before trigger")
        return self._value

    def succeed(self, value: Any = None, priority: int = NORMAL) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._state != _PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self._state = _TRIGGERED
        self.sim._enqueue(self, delay=0.0, priority=priority)
        return self

    def fail(self, exception: BaseException, priority: int = NORMAL) -> "Event":
        """Trigger the event with an exception.

        The exception propagates into every process waiting on the event.
        If nothing waits on a failed event, the simulator re-raises the
        exception from :meth:`Simulator.run` (fail-loud by default); call
        :meth:`defuse` to opt out.
        """
        if self._state != _PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self._state = _TRIGGERED
        self.sim._enqueue(self, delay=0.0, priority=priority)
        return self

    def defuse(self) -> "Event":
        """Mark a failure as handled so it will not escape ``run()``."""
        self._defused = True
        return self

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = {_PENDING: "pending", _TRIGGERED: "triggered", _PROCESSED: "processed"}
        return f"<{type(self).__name__} {state[self._state]} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers automatically after a fixed delay.

    Timeouts are the kernel's highest-churn allocation; finished ones
    with no surviving outside reference are recycled through
    :attr:`Simulator._timeout_pool` (see :meth:`Simulator.timeout`).
    """

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        # Field init is flattened (no super() chain): timeouts are the
        # highest-volume allocation, born already triggered.
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._ok = True
        self._state = _TRIGGERED
        self._defused = False
        self.delay = delay
        if sim._batched:
            sim._insert(self, delay)
        else:
            sim._seq += 1
            heapq.heappush(sim._queue, (sim._now + delay, NORMAL, sim._seq, self))


class _Resume:
    """A pooled direct-resume record on the event queue.

    Waking a process whose target already finished used to allocate a
    whole intermediate wakeup :class:`Event`; a ``_Resume`` carries just
    (process, ok, value) and is recycled after dispatch.  Records keep
    the URGENT-priority self-enqueue of the old wakeup events, so the
    (time, priority, seq) ordering is unchanged.
    """

    __slots__ = ("process", "ok", "value")


class Process(Event):
    """A running generator; also an event that triggers on completion.

    The wrapped generator yields :class:`Event` instances.  When a
    yielded event succeeds, the generator is resumed with the event's
    value; when it fails, the exception is thrown into the generator.
    The process event itself succeeds with the generator's return value,
    or fails with its unhandled exception.
    """

    __slots__ = ("generator", "_target", "_target_slot", "_resume_cb", "name")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = ""):
        super().__init__(sim)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        #: The event this process is currently waiting on, and the index
        #: of our callback in its callback list (for O(1) interrupt).
        self._target: Optional[Event] = None
        self._target_slot = -1
        #: The one bound-method object registered as a callback.  Cached
        #: so registration allocates nothing and so ``interrupt`` can
        #: tombstone by identity (``self._resume`` would build a fresh
        #: bound method on every attribute access and never match).
        self._resume_cb = self._resume
        # Bootstrap: resume the generator at the current time.
        sim._enqueue_resume(self, True, None)

    @classmethod
    def _adopt(cls, sim: "Simulator", generator: Generator, name: str,
               target: Event) -> "Process":
        """A process for ``generator``, which the interrupted active
        process was driving inline: it takes over the waiter slot on
        ``target`` that :meth:`interrupt` tombstoned, no bootstrap."""
        slot = sim.active_process._target_slot
        callbacks = target.callbacks
        if not 0 <= slot < len(callbacks) or callbacks[slot] is not None:
            raise SimulationError(f"no interrupted slot on {target!r}")
        self = cls.__new__(cls)
        Event.__init__(self, sim)
        self.generator = generator
        self.name = name or generator.__name__
        self._resume_cb = callbacks[slot] = self._resume
        self._target = target
        self._target_slot = slot
        return self

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._state == _PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process as soon as possible.

        The process stops waiting on its current target (the target
        event remains valid and may trigger later without effect on this
        process).  The registered callback slot is tombstoned rather
        than removed, which is O(1) and — because the dispatch loop
        re-reads slots at call time — also suppresses the stale resume
        when the target triggers in the same timestep as the interrupt.
        Interrupting a finished process is an error.
        """
        if self._state != _PENDING:
            raise SimulationError(f"cannot interrupt finished process {self.name!r}")
        target = self._target
        if target is not None:
            callbacks = target.callbacks
            slot = self._target_slot
            if 0 <= slot < len(callbacks) and callbacks[slot] is self._resume_cb:
                callbacks[slot] = None
            self._target = None
        self.sim._enqueue_resume(self, False, Interrupt(cause))

    def _resume(self, trigger: Event) -> None:
        """Callback form of resumption, invoked by the dispatch loop."""
        if trigger._ok:
            self._do_resume(True, trigger._value)
        else:
            trigger._defused = True
            self._do_resume(False, trigger._value)

    def _do_resume(self, ok: bool, value: Any) -> None:
        self._target = None
        sim = self.sim
        generator = self.generator
        sim.active_process = self
        try:
            if ok:
                event = generator.send(value)
            else:
                event = generator.throw(value)
        except StopIteration as stop:
            sim.active_process = None
            self._finish(True, stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - propagate via event
            sim.active_process = None
            self._finish(False, exc)
            return
        if not isinstance(event, Event):
            exc = SimulationError(
                f"process {self.name!r} yielded {event!r}, expected an Event"
            )
            try:
                generator.throw(exc)
            except StopIteration as stop:
                self._finish(True, stop.value)
            except BaseException as err:  # noqa: BLE001
                self._finish(False, err)
            sim.active_process = None
            return
        sim.active_process = None
        if event._state == _PROCESSED:
            # Already-processed targets resume us directly (next step)
            # via an URGENT self-enqueue — no intermediate wakeup Event.
            sim._enqueue_resume(self, event._ok, event._value)
        else:
            self._target = event
            callbacks = event.callbacks
            self._target_slot = len(callbacks)
            callbacks.append(self._resume_cb)

    def _finish(self, ok: bool, value: Any) -> None:
        if self._state != _PENDING:  # pragma: no cover - defensive
            return
        # Break the self-cycle through the cached bound method and drop
        # the spent generator: a finished process is freed by reference
        # counting, not left for the cyclic collector.
        self._resume_cb = None
        self.generator = None
        self._ok = ok
        self._value = value
        self._state = _TRIGGERED
        self.sim._enqueue(self, delay=0.0, priority=NORMAL)


class Condition(Event):
    """Base for composite events over a fixed set of child events."""

    __slots__ = ("events", "_done")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events = tuple(events)
        self._done = 0
        if not self.events:
            self.succeed({})
            return
        on_child = self._on_child  # one bound method for every child
        for event in self.events:
            if event.sim is not sim:
                raise SimulationError("condition mixes events of two simulators")
            if event._state == _PROCESSED:
                on_child(event)
            else:
                event.callbacks.append(on_child)

    def _on_child(self, event: Event) -> None:
        raise NotImplementedError

    def _values(self) -> dict[Event, Any]:
        return {
            ev: ev._value
            for ev in self.events
            if ev._state == _PROCESSED and ev._ok
        }


class AllOf(Condition):
    """Succeeds when every child succeeded; fails on first child failure."""

    __slots__ = ()

    def _on_child(self, event: Event) -> None:
        if self._state != _PENDING:
            if not event._ok:
                event._defused = True
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self._done += 1
        if self._done == len(self.events):
            # Every child is processed-and-ok here by construction, so
            # skip the generic per-child state filtering.
            self.succeed({ev: ev._value for ev in self.events})


class AnyOf(Condition):
    """Succeeds when the first child succeeds; fails on first failure."""

    __slots__ = ()

    def _on_child(self, event: Event) -> None:
        if self._state != _PENDING:
            if not event._ok:
                event._defused = True
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self.succeed(self._values())


class Simulator:
    """The event loop: a clock plus a two-level ready queue.

    ``batched=True`` (the default) runs the timestep-batched drain over
    the bucket map described in the module docstring.  ``batched=False``
    falls back to the pre-batch per-event heap loop — byte-identical
    ordering, roughly half the throughput — kept as the ordering oracle
    for the property suite and for A/B perf measurement.
    """

    #: Upper bounds on recycled records kept around per free-list.
    _TIMEOUT_POOL_MAX = 512
    _EVENT_POOL_MAX = 512
    _BUCKET_POOL_MAX = 256

    def __init__(self, batched: bool = True):
        self._now = 0.0
        self._batched = bool(batched)
        #: The process whose generator is running right now (None
        #: between resumptions); SimPy's name for it.
        self.active_process: Optional[Process] = None
        #: Batched mode: heap of bare floats, one per distinct pending
        #: timestamp.  Reference mode: heap of ``(time, priority, seq,
        #: event)`` tuples.
        self._queue: list = []
        #: timestamp -> the pending NORMAL event scheduled on it, or a
        #: deque of them once the timestamp collides.
        self._buckets: dict[float, Any] = {}
        #: URGENT events are only ever scheduled at the current instant,
        #: so one global FIFO covers every timestep; it preempts the
        #: draining bucket and never touches the heap.
        self._urgent: deque = deque()
        #: While ``run()`` drains a timestep, the deque receiving its
        #: zero-delay NORMAL enqueues with a bare append: the timestep's
        #: own bucket, or ``_scratch`` for singleton timesteps.
        self._active_bucket: Optional[deque] = None
        #: Persistent overlay deque for singleton timesteps (retired
        #: from heap and bucket map before dispatch, so their zero-delay
        #: followers need a home that skips the heap).
        self._scratch: deque = deque()
        self._seq = 0
        #: Number of events processed so far (diagnostic).
        self.processed_count = 0
        #: Free-lists (the slab): finished Timeout/Event records proven
        #: unreferenced, dispatched _Resume records, drained buckets.
        self._timeout_pool: list[Timeout] = []
        self._resume_pool: list[_Resume] = []
        self._event_pool: list[Event] = []
        self._bucket_pool: list[deque] = []
        # -- profiling counters (see kernel_profile) ----------------------
        self._c_timeout_new = 0
        self._c_timeout_reused = 0
        self._c_resume_new = 0
        self._c_resume_reused = 0
        self._c_event_new = 0
        self._c_event_reused = 0
        self._c_bucket_new = 0
        self._c_bucket_reused = 0
        self._c_dispatch_resume = 0
        self._c_dispatch_timeout = 0
        self._c_dispatch_event = 0
        self._c_dispatch_other = 0
        #: Batch-size histogram: slot ``size.bit_length()`` (capped).
        self._batch_hist = [0] * _HIST_SLOTS

    @property
    def now(self) -> float:
        """Current simulated time, in seconds."""
        return self._now

    @property
    def batched(self) -> bool:
        """True when the timestep-batched drain is active."""
        return self._batched

    # -- event construction -------------------------------------------------

    def event(self) -> Event:
        """Create a new pending event.

        Recycles a slab :class:`Event` when one is available; the pool
        only ever holds events the dispatch loop proved unreferenced,
        so reuse is invisible to simulation code.
        """
        pool = self._event_pool
        if pool:
            self._c_event_reused += 1
            event = pool.pop()
            event._ok = True
            event._state = _PENDING
            event._defused = False
            return event
        self._c_event_new += 1
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that triggers ``delay`` seconds from now.

        Recycles a pooled :class:`Timeout` when one is available; the
        pool only ever holds timeouts the dispatch loop proved
        unreferenced, so reuse is invisible to simulation code.
        """
        pool = self._timeout_pool
        if not pool:
            self._c_timeout_new += 1
            return Timeout(self, delay, value)
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        self._c_timeout_reused += 1
        timeout = pool.pop()
        timeout.delay = delay
        timeout._value = value
        timeout._state = _TRIGGERED
        timeout._defused = False
        if self._batched:
            # Inlined _insert: timeouts are the hottest insert path.
            if delay == 0.0:
                bucket = self._active_bucket
                if bucket is not None:
                    bucket.append(timeout)
                    return timeout
            when = self._now + delay
            buckets = self._buckets
            entry = buckets.get(when)
            if entry is None:
                buckets[when] = timeout
                heapq.heappush(self._queue, when)
            elif type(entry) is deque:
                entry.append(timeout)
            else:
                bpool = self._bucket_pool
                if bpool:
                    bucket = bpool.pop()
                    self._c_bucket_reused += 1
                else:
                    bucket = deque()
                    self._c_bucket_new += 1
                bucket.append(entry)
                bucket.append(timeout)
                buckets[when] = bucket
        else:
            self._seq += 1
            heapq.heappush(self._queue, (self._now + delay, NORMAL, self._seq, timeout))
        return timeout

    def spawn(self, generator: Generator, name: str = "",
              waiting_on: Optional[Event] = None) -> Process:
        """Start a new process running ``generator``, or adopt one the
        interrupted active process left suspended on ``waiting_on``."""
        if waiting_on is None:
            return Process(self, generator, name=name)
        return Process._adopt(self, generator, name, waiting_on)

    # Alias matching SimPy's vocabulary.
    process = spawn

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that succeeds when all ``events`` have succeeded."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event that succeeds when any of ``events`` has succeeded."""
        return AnyOf(self, events)

    # -- scheduling ---------------------------------------------------------

    def _insert(self, event: Event, delay: float) -> None:
        """Batched-mode NORMAL-priority insert into the two-level queue."""
        if delay == 0.0:
            bucket = self._active_bucket
            if bucket is not None:
                bucket.append(event)
                return
        when = self._now + delay
        buckets = self._buckets
        entry = buckets.get(when)
        if entry is None:
            buckets[when] = event
            heapq.heappush(self._queue, when)
        elif type(entry) is deque:
            entry.append(event)
        else:
            # Second event on this timestamp: promote the singleton
            # entry to a bucket deque (append order == seq order).
            bpool = self._bucket_pool
            if bpool:
                bucket = bpool.pop()
                self._c_bucket_reused += 1
            else:
                bucket = deque()
                self._c_bucket_new += 1
            bucket.append(entry)
            bucket.append(event)
            buckets[when] = bucket

    def _enqueue(self, event: Event, delay: float, priority: int) -> None:
        if self._batched:
            if priority == NORMAL:
                # Inlined zero-delay _insert: every internal trigger
                # (succeed/fail/_finish) schedules at the current
                # instant, so this is the generic-event hot path.
                if delay == 0.0:
                    bucket = self._active_bucket
                    if bucket is not None:
                        bucket.append(event)
                        return
                    when = self._now
                    buckets = self._buckets
                    entry = buckets.get(when)
                    if entry is None:
                        buckets[when] = event
                        heapq.heappush(self._queue, when)
                    elif type(entry) is deque:
                        entry.append(event)
                    else:
                        bpool = self._bucket_pool
                        if bpool:
                            bucket = bpool.pop()
                            self._c_bucket_reused += 1
                        else:
                            bucket = deque()
                            self._c_bucket_new += 1
                        bucket.append(entry)
                        bucket.append(event)
                        buckets[when] = bucket
                    return
                self._insert(event, delay)
                return
            if priority != URGENT:
                raise SimulationError(
                    "the batched kernel schedules URGENT and NORMAL "
                    f"priorities only, got {priority}"
                )
            # URGENT is only ever immediate (see module docstring); the
            # global lane keeps it off the heap entirely.
            if delay != 0.0:
                raise SimulationError(
                    f"URGENT events must be immediate, got delay {delay}"
                )
            self._urgent.append(event)
        else:
            self._seq += 1
            heapq.heappush(self._queue, (self._now + delay, priority, self._seq, event))

    def _enqueue_resume(self, process: Process, ok: bool, value: Any) -> None:
        """Schedule a direct URGENT resumption of ``process`` at now."""
        pool = self._resume_pool
        if pool:
            self._c_resume_reused += 1
            record = pool.pop()
        else:
            self._c_resume_new += 1
            record = _Resume()
        record.process = process
        record.ok = ok
        record.value = value
        if self._batched:
            self._urgent.append(record)
        else:
            self._seq += 1
            heapq.heappush(self._queue, (self._now, URGENT, self._seq, record))

    def _dispatch(self, event: object) -> None:
        """Process one popped queue item (Event or _Resume record)."""
        self.processed_count += 1
        if type(event) is _Resume:
            self._c_dispatch_resume += 1
            process, ok, value = event.process, event.ok, event.value
            event.process = event.value = None
            self._resume_pool.append(event)
            process._do_resume(ok, value)
            return
        callbacks = event.callbacks
        event._state = _PROCESSED
        for callback in callbacks:
            if callback is not None:
                callback(event)
        callbacks.clear()
        if not event._ok:
            self._c_dispatch_other += 1
            if not event._defused:
                raise event.value
        elif type(event) is Timeout:
            self._c_dispatch_timeout += 1
            if (
                len(self._timeout_pool) < self._TIMEOUT_POOL_MAX
                and _getrefcount(event) <= _POOL_REFS + 1  # +1: our parameter
            ):
                self._timeout_pool.append(event)
        elif type(event) is Event:
            self._c_dispatch_event += 1
            if (
                len(self._event_pool) < self._EVENT_POOL_MAX
                and _getrefcount(event) <= _POOL_REFS + 1  # +1: our parameter
            ):
                event._value = None
                self._event_pool.append(event)
        else:
            self._c_dispatch_other += 1

    def step(self) -> None:
        """Process the single next event."""
        if not self._batched:
            _when, _priority, _seq, event = heapq.heappop(self._queue)
            self._now = _when
            self._dispatch(event)
            return
        urgent = self._urgent
        if urgent:
            # URGENT entries are always at the current instant and
            # precede everything else scheduled for it.
            self._dispatch(urgent.popleft())
            return
        when = self._queue[0]
        entry = self._buckets[when]
        self._now = when
        if type(entry) is deque:
            event = entry.popleft()
            if not entry:
                # Last entry: retire the timestep *before* dispatch, so
                # a same-time enqueue from the callbacks re-creates a
                # fresh heap entry in correct order.
                heapq.heappop(self._queue)
                del self._buckets[when]
                self._recycle_bucket(entry)
        else:
            heapq.heappop(self._queue)
            del self._buckets[when]
            event = entry
        self._dispatch(event)

    def _recycle_bucket(self, bucket: deque) -> None:
        if len(self._bucket_pool) < self._BUCKET_POOL_MAX:
            self._bucket_pool.append(bucket)

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or the clock passes ``until``.

        When ``until`` is given the clock is advanced to exactly
        ``until`` even if no event lands on it.

        This is the kernel's hot loop: one heap pop retires a whole
        timestep — the global URGENT lane drains before the timestep's
        bucket, re-checked before every NORMAL dispatch so events
        enqueued mid-batch interleave exactly as the per-event heap
        would order them.
        """
        if not self._batched:
            return self._run_reference(until)
        if until is not None and until < self._now:
            raise SimulationError(f"cannot run until {until} < now {self._now}")
        # ``inf`` means "no bound": one float compare per iteration
        # instead of a None test plus a compare.
        bound = float("inf") if until is None else until
        queue = self._queue
        buckets = self._buckets
        urgent = self._urgent
        scratch = self._scratch
        pop = heapq.heappop
        resume_cls = _Resume
        timeout_cls = Timeout
        event_cls = Event
        resume_pool = self._resume_pool
        timeout_pool = self._timeout_pool
        event_pool = self._event_pool
        t_pool_max = self._TIMEOUT_POOL_MAX
        e_pool_max = self._EVENT_POOL_MAX
        refcount = _getrefcount
        bucket_pool = self._bucket_pool
        b_pool_max = self._BUCKET_POOL_MAX
        hist = self._batch_hist
        processed = self.processed_count
        n_resume = n_timeout = n_event = n_other = 0
        #: Pure singleton timesteps (batch of exactly one event) are by
        #: far the most common batch size; they are tallied in a bare
        #: counter and folded into the histogram once at exit.
        n_single = 0
        #: The deque currently draining: a collided timestep's bucket,
        #: or ``scratch`` for singleton timesteps (None before the
        #: first advance); leftover URGENT work from an interrupted
        #: previous run drains first, at the clock's current position.
        bucket: Optional[deque] = None
        draining = False
        batch_start = processed
        try:
            while True:
                # URGENT preempts the remaining NORMAL backlog,
                # re-checked before every dispatch: identical to popping
                # (time, priority, seq) tuples.  Only the URGENT lane
                # can carry _Resume records, so the NORMAL arm skips
                # that type check.
                if urgent:
                    event = urgent.popleft()
                    processed += 1
                    if type(event) is resume_cls:
                        n_resume += 1
                        process, ok, value = (
                            event.process, event.ok, event.value
                        )
                        event.process = event.value = None
                        resume_pool.append(event)
                        process._do_resume(ok, value)
                        continue
                elif bucket:
                    event = bucket.popleft()
                    processed += 1
                else:
                    if draining:
                        # Timestep fully drained.  A collided timestep
                        # retires only now (only future times were
                        # pushed meanwhile, so the heap minimum is
                        # still its timestamp); ``scratch`` stays bound
                        # as the active bucket across consecutive
                        # singleton timesteps.
                        if bucket is not scratch:
                            pop(queue)
                            del buckets[self._now]
                            if len(bucket_pool) < b_pool_max:
                                bucket_pool.append(bucket)
                            bucket = None
                            self._active_bucket = None
                        size = processed - batch_start
                        if size == 1:
                            n_single += 1
                        else:
                            idx = size.bit_length()
                            hist[
                                idx if idx < _HIST_SLOTS else _HIST_SLOTS - 1
                            ] += 1
                        draining = False
                    if not queue:
                        break
                    when = queue[0]
                    if when > bound:
                        break
                    entry = buckets[when]
                    if type(entry) is deque:
                        # Collided timestep: drain in place, retire
                        # only once dry (free exception-resumability).
                        self._now = when
                        batch_start = processed
                        draining = True
                        bucket = entry
                        self._active_bucket = bucket
                        continue
                    # Tight loop over consecutive singleton timesteps —
                    # the dominant pattern for scattered timers.  Each
                    # is retired *before* dispatch (exactly the
                    # reference loop's pop-then-dispatch) with dispatch
                    # inlined; the loop hands back to the outer drain
                    # the moment a timestep grows followers (URGENT or
                    # zero-delay arrivals) or the next one is collided.
                    if bucket is None:
                        bucket = scratch
                        self._active_bucket = scratch
                    del buckets[when]
                    while True:
                        pop(queue)
                        self._now = when
                        processed += 1
                        event = entry
                        # Drop the alias: the refcount-gated free-lists
                        # must see only the ``event`` local.
                        entry = None
                        callbacks = event.callbacks
                        event._state = _PROCESSED
                        for callback in callbacks:
                            if callback is not None:
                                callback(event)
                        callbacks.clear()
                        if not event._ok:
                            n_other += 1
                            if not event._defused:
                                raise event.value
                        elif type(event) is timeout_cls:
                            n_timeout += 1
                            if (
                                len(timeout_pool) < t_pool_max
                                and refcount(event) <= _POOL_REFS
                            ):
                                timeout_pool.append(event)
                        elif type(event) is event_cls:
                            n_event += 1
                            if (
                                len(event_pool) < e_pool_max
                                and refcount(event) <= _POOL_REFS
                            ):
                                event._value = None
                                event_pool.append(event)
                        else:
                            n_other += 1
                        if urgent or scratch:
                            # The timestep grew followers mid-dispatch:
                            # finish it as a batch in the outer drain.
                            batch_start = processed - 1
                            draining = True
                            break
                        n_single += 1
                        if not queue:
                            break
                        when = queue[0]
                        if when > bound:
                            break
                        # One hash lookup retires the timestep; the
                        # rare collided successor is put back.
                        entry = buckets.pop(when)
                        if type(entry) is deque:
                            buckets[when] = entry
                            break
                    # Re-enter the outer drain; with ``draining`` unset
                    # its advance arm re-checks queue/bound and picks
                    # up a collided next timestep.
                    continue
                callbacks = event.callbacks
                event._state = _PROCESSED
                for callback in callbacks:
                    if callback is not None:
                        callback(event)
                callbacks.clear()
                if not event._ok:
                    n_other += 1
                    if not event._defused:
                        raise event.value
                elif type(event) is timeout_cls:
                    n_timeout += 1
                    if (
                        len(timeout_pool) < t_pool_max
                        and refcount(event) <= _POOL_REFS
                    ):
                        timeout_pool.append(event)
                elif type(event) is event_cls:
                    n_event += 1
                    if (
                        len(event_pool) < e_pool_max
                        and refcount(event) <= _POOL_REFS
                    ):
                        event._value = None
                        event_pool.append(event)
                else:
                    n_other += 1
        finally:
            # An exception escaping a callback leaves the timestep
            # resumable: a collided timestep keeps its heap entry and
            # its bucket's undrained tail; a singleton timestep's
            # zero-delay followers spill from scratch back into the
            # queue (their timestamp was already retired, and no other
            # bucket can exist at ``now`` while scratch is active).
            if scratch:
                buckets[self._now] = scratch
                heapq.heappush(queue, self._now)
                self._scratch = deque()
            self._active_bucket = None
            self.processed_count = processed
            hist[1] += n_single
            self._c_dispatch_resume += n_resume
            self._c_dispatch_timeout += n_timeout
            self._c_dispatch_event += n_event
            self._c_dispatch_other += n_other
        if until is not None:
            self._now = max(self._now, until)

    def _run_reference(self, until: Optional[float] = None) -> None:
        """The pre-batch per-event heap loop (ordering oracle).

        Byte-identical dispatch order to the batched drain; kept under
        ``Simulator(batched=False)`` for the determinism property suite
        and A/B measurement.
        """
        if until is not None and until < self._now:
            raise SimulationError(f"cannot run until {until} < now {self._now}")
        bound = float("inf") if until is None else until
        queue = self._queue
        pop = heapq.heappop
        resume_cls = _Resume
        timeout_cls = Timeout
        resume_pool = self._resume_pool
        timeout_pool = self._timeout_pool
        pool_max = self._TIMEOUT_POOL_MAX
        refcount = _getrefcount
        processed = self.processed_count
        try:
            while queue:
                if queue[0][0] > bound:
                    break
                when, _priority, _seq, event = pop(queue)
                self._now = when
                processed += 1
                if type(event) is resume_cls:
                    process, ok, value = event.process, event.ok, event.value
                    event.process = event.value = None
                    resume_pool.append(event)
                    process._do_resume(ok, value)
                    continue
                callbacks = event.callbacks
                event._state = _PROCESSED
                for callback in callbacks:
                    if callback is not None:
                        callback(event)
                callbacks.clear()
                if not event._ok:
                    if not event._defused:
                        raise event.value
                elif (
                    type(event) is timeout_cls
                    and len(timeout_pool) < pool_max
                    and refcount(event) <= _POOL_REFS
                ):
                    timeout_pool.append(event)
        finally:
            self.processed_count = processed
        if until is not None:
            self._now = max(self._now, until)

    def peek(self) -> float:
        """Timestamp of the next event, or ``inf`` when the queue is empty."""
        if self._batched and self._urgent:
            # URGENT entries are always at the current instant.
            return self._now
        if not self._queue:
            return float("inf")
        # Bare float in batched mode, (when, ...) tuple in reference.
        head = self._queue[0]
        return head if self._batched else head[0]

    # -- profiling ----------------------------------------------------------

    def kernel_profile(self) -> dict:
        """Snapshot of the kernel's profiling counters.

        Cheap to call (reads counters, allocates one small dict tree);
        the counters themselves accumulate from construction, so two
        snapshots bracket a workload's delta.
        """
        hist = self._batch_hist
        batches = sum(hist)
        histogram: dict[str, int] = {}
        for idx in range(1, _HIST_SLOTS):
            count = hist[idx]
            if not count:
                continue
            lo = 1 << (idx - 1)
            hi = (1 << idx) - 1
            if idx == _HIST_SLOTS - 1:
                histogram[f"{lo}+"] = count
            elif lo == hi:
                histogram[str(lo)] = count
            else:
                histogram[f"{lo}-{hi}"] = count
        dispatched = {
            "resume": self._c_dispatch_resume,
            "timeout": self._c_dispatch_timeout,
            "event": self._c_dispatch_event,
            "other": self._c_dispatch_other,
        }
        total = self.processed_count

        def slab(new: int, reused: int) -> dict:
            uses = new + reused
            return {
                "new": new,
                "reused": reused,
                "hit_rate": reused / uses if uses else 0.0,
            }

        return {
            "batched": self._batched,
            "events_processed": total,
            "dispatched_by_kind": dispatched,
            "batches_drained": batches,
            "batch_size_hist": histogram,
            "mean_batch_size": total / batches if batches else 0.0,
            "heap_ops_avoided": max(0, total - batches),
            "slab": {
                "timeout": slab(self._c_timeout_new, self._c_timeout_reused),
                "resume": slab(self._c_resume_new, self._c_resume_reused),
                "event": slab(self._c_event_new, self._c_event_reused),
                "bucket": slab(self._c_bucket_new, self._c_bucket_reused),
            },
        }
