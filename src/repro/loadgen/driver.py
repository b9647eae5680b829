"""Open- and closed-loop load drivers over an arrival plan.

The **open-loop** driver admits every arrival at its planned time
regardless of how many earlier requests are still in flight — the
discipline that actually measures tail latency under load (a
closed-loop driver self-throttles and hides queueing).  The
**closed-loop** driver keeps a fixed number of workers busy, the
regime the repo's earlier experiments used.

Both produce a list of :class:`RequestRecord`, the per-request ground
truth the SLO layer aggregates and the golden-trace regression test
pins byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, TYPE_CHECKING

from repro.errors import ReproError, RequestShed
from repro.loadgen.arrivals import ArrivalPlan

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.molecule import MoleculeRuntime
    from repro.loadgen.sharding import ShardedFrontend

#: Outcome values in RequestRecord.outcome.
OUTCOME_OK = "ok"
#: A request the admission gate deliberately refused (repro.overload).
#: Distinct from failure outcomes: sheds are back-pressure, and the
#: conservation invariant counts them apart from dead letters
#: (``answered + shed + dead == admitted``).
OUTCOME_SHED = "Shed"


@dataclass
class RequestRecord:
    """One request's fate, as observed by the driver."""

    index: int
    function: str
    submitted_s: float
    outcome: str = OUTCOME_OK
    admitted_s: float = 0.0
    shard: Optional[int] = None
    pu: str = ""
    cold: bool = False
    attempts: int = 0
    latency_s: float = 0.0
    #: True when a hedge clone was launched for this request
    #: (repro.hedging); ``pu`` then names the winning copy's PU.
    hedged: bool = False
    #: ``"fresh"``/``"stale"`` when answered from the result cache
    #: (repro.reuse), ``""`` when the request actually executed.
    #: Excluded from both golden tuples below.
    cache: str = ""

    @property
    def answered(self) -> bool:
        """True if the request produced a response."""
        return self.outcome == OUTCOME_OK

    @property
    def shed(self) -> bool:
        """True if the admission gate deliberately refused the request."""
        return self.outcome == OUTCOME_SHED

    def tuple(self) -> tuple:
        """The golden-trace comparison tuple.

        Deliberately excludes ``hedged``: the 72-arrival golden trace
        pins this exact shape.
        """
        return (
            self.index, self.function, self.outcome, self.admitted_s,
            self.shard, self.pu, self.latency_s,
        )

    def hedge_tuple(self) -> tuple:
        """The golden *hedge* trace comparison tuple."""
        return self.tuple() + (self.hedged,)


def _serve(driver, index: int, arrival):
    """Generator: run one arrival through ``driver`` (either driver) and
    record its fate in a new :class:`RequestRecord`."""
    sim = driver.runtime.sim
    record = RequestRecord(
        index=index, function=arrival.function, submitted_s=sim._now
    )
    driver.records.append(record)
    try:
        if driver.invoke_factory is not None:
            result = yield from driver.invoke_factory(index, arrival)
        else:
            entry = (driver.frontend if driver.frontend is not None
                     else driver.runtime.invoker)
            result = yield from entry.invoke(
                arrival.function,
                kind=arrival.kind,
                payload_bytes=arrival.payload_bytes,
                input_key=arrival.input_key,
            )
    except ReproError as exc:
        record.outcome = (
            OUTCOME_SHED if isinstance(exc, RequestShed)
            else type(exc).__name__
        )
        record.latency_s = sim._now - record.submitted_s
    else:
        record.admitted_s = result.admitted_s
        record.shard = result.shard
        record.pu = result.pu_name
        record.cold = result.cold
        record.attempts = result.attempts
        record.latency_s = result.total_s
        record.hedged = result.hedged
        record.cache = result.cache
    driver.finished_s = max(driver.finished_s, sim._now)


class OpenLoopDriver:
    """Admit each arrival at its trace time, never waiting on answers."""

    def __init__(
        self,
        runtime: "MoleculeRuntime",
        plan: ArrivalPlan,
        frontend: Optional["ShardedFrontend"] = None,
        invoke_factory: Optional[Callable] = None,
    ):
        self.runtime = runtime
        self.plan = plan
        self.frontend = frontend if frontend is not None else runtime.frontend
        #: Optional request builder ``(index, arrival) -> generator``
        #: replacing the plain invoke (repro.futures: one fan-out job
        #: per arrival).  The generator's return value must expose the
        #: record fields (``admitted_s``/``shard``/``pu_name``/
        #: ``cold``/``attempts``/``total_s``/``hedged``/``cache``).
        self.invoke_factory = invoke_factory
        self.records: list[RequestRecord] = []
        self.submitted = 0
        #: Sim time the workload started (pacer launch) and the time the
        #: last request finished.  Plan times are relative to the start,
        #: so a run is unaffected by how long boot and deploy took; the
        #: pair bounds the measurement window for goodput/utilization
        #: (``sim.now`` after the drain overshoots it: orphaned deadline
        #: timers keep the simulation ticking long after the last
        #: response).
        self.started_s = 0.0
        self.finished_s = 0.0

    @property
    def elapsed_s(self) -> float:
        """The measurement window: first submit to last completion."""
        return self.finished_s - self.started_s

    def _pacer(self):
        sim = self.runtime.sim
        base = sim.now
        for index, arrival in enumerate(self.plan):
            delay = base + arrival.time_s - sim._now
            if delay > 0:
                yield sim.timeout(delay)
            self.submitted += 1
            sim.spawn(_serve(self, index, arrival), name=f"load-{index}")

    def run(self) -> list[RequestRecord]:
        """Replay the whole plan and drain the simulation."""
        sim = self.runtime.sim
        self.started_s = sim.now
        self.finished_s = sim.now
        pacer = sim.spawn(self._pacer(), name="load-pacer")
        sim.run()
        if not pacer.processed:
            raise ReproError("open-loop pacer deadlocked")
        return self.records


class ClosedLoopDriver:
    """Fixed-concurrency workers pulling arrivals as fast as answered.

    Arrival *times* are ignored — only the (function, kind, payload)
    sequence matters — which makes this the apples-to-apples contrast
    against the open-loop numbers at the same offered mix.

    ``concurrency`` bounds outstanding *tasks*, not outstanding
    requests: a fanned-out request (repro.futures) holds its worker for
    the whole gather while dispatching many sandbox tasks, so counting
    requests would undercount in-flight work by the fan-out factor.
    ``task_weight(arrival)`` declares how many tasks one arrival fans
    out to (default 1, the plain one-request-one-task case, which
    leaves the historical schedule byte-identical).
    """

    def __init__(
        self,
        runtime: "MoleculeRuntime",
        plan: ArrivalPlan,
        concurrency: int = 8,
        frontend: Optional["ShardedFrontend"] = None,
        invoke_factory: Optional[Callable] = None,
        task_weight: Optional[Callable] = None,
    ):
        if concurrency < 1:
            raise ReproError(f"concurrency must be >= 1: {concurrency}")
        self.runtime = runtime
        self.plan = plan
        self.concurrency = concurrency
        self.frontend = frontend if frontend is not None else runtime.frontend
        #: See :class:`OpenLoopDriver`.
        self.invoke_factory = invoke_factory
        #: ``(arrival) -> int``: sandbox tasks this arrival fans out to.
        self.task_weight = task_weight
        self.records: list[RequestRecord] = []
        self._next = 0
        #: Outstanding sandbox tasks across all workers, and the high
        #: watermark (the regression test's observable).
        self._inflight_tasks = 0
        self.max_inflight_tasks = 0
        self._capacity_evt = None
        self.started_s = 0.0
        self.finished_s = 0.0

    @property
    def elapsed_s(self) -> float:
        """The measurement window: first submit to last completion."""
        return self.finished_s - self.started_s

    def _acquire_tasks(self, weight: int):
        """Generator: park until ``weight`` more tasks fit under the
        concurrency bound.  A request heavier than the whole bound is
        admitted alone (it could otherwise never run).  The weight-1
        fast path never creates an event, keeping plain runs
        byte-identical to the pre-weight driver."""
        sim = self.runtime.sim
        while (self._inflight_tasks > 0
               and self._inflight_tasks + weight > self.concurrency):
            if self._capacity_evt is None or self._capacity_evt.triggered:
                self._capacity_evt = sim.event()
            yield self._capacity_evt
        self._inflight_tasks += weight
        self.max_inflight_tasks = max(
            self.max_inflight_tasks, self._inflight_tasks
        )

    def _release_tasks(self, weight: int) -> None:
        self._inflight_tasks -= weight
        if self._capacity_evt is not None and not self._capacity_evt.triggered:
            self._capacity_evt.succeed()

    def _worker(self):
        arrivals = self.plan.arrivals
        while self._next < len(arrivals):
            index = self._next
            self._next += 1
            arrival = arrivals[index]
            weight = (
                max(1, self.task_weight(arrival))
                if self.task_weight is not None else 1
            )
            yield from self._acquire_tasks(weight)
            try:
                yield from _serve(self, index, arrival)
            finally:
                self._release_tasks(weight)

    def run(self) -> list[RequestRecord]:
        """Drain the plan through the worker pool."""
        sim = self.runtime.sim
        self.started_s = sim.now
        self.finished_s = sim.now
        for worker in range(min(self.concurrency, len(self.plan))):
            sim.spawn(self._worker(), name=f"closed-loop-{worker}")
        sim.run()
        self.records.sort(key=lambda r: r.index)
        return self.records
