"""The fan-out engine: ``map``/``map_reduce`` with straggler-aware gather.

One fan-out *job* is a three-to-four stage pipeline run entirely
through the real gateway/scheduler/invoker path:

1. **partition** — a CPU-pinned stage request splits the dataset into
   :class:`~repro.futures.partitioner.Partition` records;
2. **fanout** — partitions are admitted in deterministic chunks (the
   batched submitter), each as its own request dispatched to the PU
   kind the function's profile picks (CPU/DPU/FPGA);
3. **gather** — the job parks until the
   :attr:`FanoutConfig.gather_threshold` fraction of partitions
   completed, then sweeps the survivors: any task older than the
   tracked per-function latency percentile has its hedge clone
   trigger fired, re-executing it speculatively on a second PU via the
   repro.hedging race (first copy wins, losers cancelled at the
   invoker's checkpoints);
4. **reduce** — ``map_reduce`` only: a CPU-pinned stage request folds
   the gathered values.

Stragglers are cloned through a :class:`SpeculationPolicy` — a
free-standing :class:`~repro.hedging.engine.HedgePolicy` that is *not*
wired as the runtime hedger; it rides along each task request via the
``hedge_policy=`` override, with the percentile timer replaced by an
externally fired trigger event the gather loop owns.

Like every engine before it, the layer is fully optional:
``MoleculeRuntime(fanout=None)`` leaves every code path, metric family
and golden trace byte-identical to a runtime that never heard of it.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, TYPE_CHECKING

from repro.errors import (
    FanoutPartialFailure,
    ReproError,
    RequestShed,
    WorkloadError,
)
from repro.futures.future import (
    ALL_COMPLETED,
    N_COMPLETED,
    OUTCOME_DONE,
    OUTCOME_ERROR,
    OUTCOME_SHED,
    FanoutFuture,
    wait,
)
from repro.futures.partitioner import (
    PAYLOAD_BASE_BYTES,
    PAYLOAD_BYTES_PER_ITEM,
    Partitioner,
)
from repro.hardware.pu import PuKind
from repro.hedging.engine import HedgeConfig, HedgePolicy
from repro.obs.metrics import MetricSpec
from repro.obs.spans import FANOUT_STAGES, START_FANOUT

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.molecule import MoleculeRuntime


#: Simulated stage-request execution cost per dataset item
#: (microseconds): partitioning touches every input item, the reduce
#: touches every mapped value.
PARTITION_US_PER_ITEM = 2.0
REDUCE_US_PER_ITEM = 2.0


@dataclass
class FanoutConfig:
    """Tuning knobs for the fan-out engine."""

    #: The dataset is spread over this many partitions.
    partitions: int = 64
    #: Partitions admitted per deterministic chunk (the batched
    #: submitter), and the stagger between chunks.
    chunk_size: int = 16
    admit_stagger_s: float = 0.002
    #: Fraction of partitions that must complete before the straggler
    #: sweep starts.
    gather_threshold: float = 0.8
    #: Sweep cadence while stragglers remain.
    sweep_period_s: float = 0.02
    #: Arm straggler speculation (the hedging clone path).  Off leaves
    #: gather as a plain ALL_COMPLETED wait.
    speculate: bool = True
    #: Latency percentile a surviving task must outlive before its
    #: clone trigger fires, the sample floor below which the fallback
    #: trigger applies, and that fallback (seconds).
    speculation_percentile: float = 95.0
    speculation_min_samples: int = 10
    speculation_default_trigger_s: float = 0.25


@dataclass
class FanoutJobResult:
    """One fan-out job's outcome, shaped like an invocation result so
    the load drivers can record it without special-casing."""

    function: str
    value: object
    partitions: int
    batches: int
    speculated: int
    total_s: float
    admitted_s: float = 0.0
    shard: Optional[int] = None
    pu_name: str = "fanout"
    cold: bool = False
    attempts: int = 1
    hedged: bool = False
    #: Per-stage durations (sim seconds), pipeline order.
    stage_s: dict = field(default_factory=dict)


class SpeculationPolicy(HedgePolicy):
    """Straggler speculation as a free-standing hedge policy.

    Differences from the runtime-wide hedger it subclasses:

    * never wired as ``invoker.hedging`` (``wire=False``) — it rides
      along fan-out task requests via the ``hedge_policy=`` override;
    * every eligible task arms a *dormant* clone trigger (an event the
      gather sweep fires) instead of a percentile timer, so no clone
      ever launches unless the gather decides the task is a straggler;
    * checks clone anti-affinity on every resolved race and counts
      violations — the detector the mutation tests trip.
    """

    def __init__(self, runtime: "MoleculeRuntime",
                 config: Optional[HedgeConfig] = None):
        super().__init__(runtime, config, wire=False)
        #: Clone placements that landed on the primary's PU (must stay
        #: zero: ``Scheduler.clone_candidates`` excludes it).
        self.anti_affinity_violations = 0
        self._affinity_checked: set[int] = set()

    def can_trigger(self, function) -> bool:
        """Always: the trigger is externally fired, so a cold tracker
        must not stop a task from arming its (dormant) clone trigger."""
        return True

    def begin(self, function, request_id: int):
        state = super().begin(function, request_id)
        state.trigger_event = self.runtime.sim.event()
        return state

    def _check_affinity(self, state) -> None:
        event = state.event
        if event is None or event.get("clone_pu") is None:
            return
        key = id(event)
        if key in self._affinity_checked:
            return
        self._affinity_checked.add(key)
        if event["clone_pu"] == event["primary_pu"]:
            self.anti_affinity_violations += 1

    def on_won(self, state, tag, result) -> None:
        super().on_won(state, tag, result)
        self._check_affinity(state)

    def on_cancelled(self, state, tag, placed, wasted_s) -> None:
        super().on_cancelled(state, tag, placed, wasted_s)
        self._check_affinity(state)

    def snapshot(self) -> dict:
        snap = super().snapshot()
        snap["anti_affinity_violations"] = self.anti_affinity_violations
        return snap


class _TaskPolicy:
    """Per-task proxy over the shared :class:`SpeculationPolicy`.

    Intercepts ``begin`` so the opened hedge join state (and with it
    the clone trigger event) lands on the task's future, where the
    gather sweep can reach it; everything else delegates.  Retries call
    ``begin`` again, so the future always holds the live attempt's
    state.
    """

    __slots__ = ("_policy", "_future")

    def __init__(self, policy: SpeculationPolicy, future: FanoutFuture):
        self._policy = policy
        self._future = future

    def __getattr__(self, name):
        return getattr(self._policy, name)

    def begin(self, function, request_id: int):
        state = self._policy.begin(function, request_id)
        self._future._spec_state = state
        return state


#: Families the fan-out engine owns, registered when it is wired.
FANOUT_METRICS = {
    "jobs": MetricSpec(
        "repro_fanout_jobs", "counter",
        "Fan-out jobs (map / map_reduce) submitted to the futures "
        "engine.",
        ("function",),
    ),
    "tasks": MetricSpec(
        "repro_fanout_tasks", "counter",
        "Per-partition fan-out tasks by terminal fate "
        "(done | shed | error).",
        ("function", "outcome"),
    ),
    "batches": MetricSpec(
        "repro_fanout_batches", "counter",
        "Deterministic admission chunks dispatched by the batched "
        "fan-out submitter.",
    ),
    "speculations": MetricSpec(
        "repro_fanout_speculations", "counter",
        "Straggler partitions speculatively re-executed through the "
        "hedging clone path during gather.",
        ("function",),
    ),
}


class FanoutEngine:
    """Plans and drives fan-out jobs over one Molecule runtime."""

    def __init__(self, runtime: "MoleculeRuntime",
                 config: Optional[FanoutConfig] = None):
        self.runtime = runtime
        self.config = config or FanoutConfig()
        self.partitioner = Partitioner(self.config.partitions)
        self.speculation: Optional[SpeculationPolicy] = None
        if self.config.speculate:
            self.speculation = SpeculationPolicy(runtime, HedgeConfig(
                percentile=self.config.speculation_percentile,
                min_samples=self.config.speculation_min_samples,
                default_trigger_s=self.config.speculation_default_trigger_s,
            ))
        # Lifetime counters (also exported as repro_fanout_* metrics).
        self.jobs = 0
        self.jobs_failed = 0
        self.tasks_submitted = 0
        self.tasks_done = 0
        self.tasks_shed = 0
        self.tasks_error = 0
        #: Stage requests (partition / reduce) by fate; they admit at
        #: the frontend like any request.
        self.stage_ok = 0
        self.stage_shed = 0
        self.stage_error = 0
        self.batches = 0
        self.speculations = 0
        #: (time, seq, outcome) per terminal task, completion order —
        #: the golden fan-out trace pins these byte for byte.
        self.task_log: list[tuple] = []
        #: Per-task end-to-end latencies (dispatch to terminal).
        self.task_samples: list[float] = []
        #: Per-stage durations across jobs (seconds).
        self.stage_samples: dict[str, list[float]] = {
            name: [] for name in FANOUT_STAGES
        }
        self._seq = itertools.count(0)
        self.metrics = runtime.obs.registry.register_table(FANOUT_METRICS)

    @property
    def sim(self):
        return self.runtime.sim

    # -- public API --------------------------------------------------------------

    def map(self, fn: Callable, iterable: Sequence, function: str,
            frontend=None):
        """Generator: apply ``fn`` to every item via fanned-out
        partition tasks; returns the flat result list in input order."""
        job = yield from self.run_job(
            fn, iterable, None, function=function, frontend=frontend
        )
        return job.value

    def map_reduce(self, map_fn: Callable, iterable: Sequence,
                   reduce_fn: Callable, function: str, frontend=None):
        """Generator: ``map`` then fold the flat results through
        ``reduce_fn`` in a CPU-pinned reduce stage."""
        job = yield from self.run_job(
            map_fn, iterable, reduce_fn, function=function, frontend=frontend
        )
        return job.value

    def run_job(self, map_fn: Callable, items: Sequence,
                reduce_fn: Optional[Callable] = None,
                function: str = "", frontend=None):
        """Generator: one fan-out job end to end; returns the
        :class:`FanoutJobResult` (``value`` holds the flat map results,
        or the reduction when ``reduce_fn`` is given)."""
        items = tuple(items)
        if not items:
            raise WorkloadError("fan-out job needs a non-empty dataset")
        fdef = self.runtime.registry.get(function)
        sim = self.sim
        start = sim.now
        self.jobs += 1
        self.metrics.jobs.child(function).inc()
        trace = self.runtime.obs.begin_invocation(function)
        trace.annotate(start_kind=START_FANOUT)
        stage_s: dict[str, float] = {}
        try:
            # -- stage 1: CPU partition ------------------------------------------
            t0 = sim.now
            span = trace.begin_phase("partition")
            first = yield from self._stage_request(
                function, frontend,
                exec_s=PARTITION_US_PER_ITEM * 1e-6 * len(items),
                payload_bytes=(
                    PAYLOAD_BASE_BYTES + PAYLOAD_BYTES_PER_ITEM * len(items)
                ),
            )
            partitions = self.partitioner.partition(items)
            trace.end_phase(span)
            trace.annotate(partitions=len(partitions))
            stage_s["partition"] = sim.now - t0
            # -- stage 2: chunked fan-out ----------------------------------------
            t0 = sim.now
            span = trace.begin_phase("fanout")
            futures = [
                FanoutFuture(next(self._seq), partition, function)
                for partition in partitions
            ]
            job_batches = yield from self._admit(
                futures, map_fn, function, frontend
            )
            trace.end_phase(span)
            stage_s["fanout"] = sim.now - t0
            # -- stage 3: straggler-aware gather ---------------------------------
            t0 = sim.now
            span = trace.begin_phase("gather")
            speculated = yield from self._gather(futures, fdef)
            trace.end_phase(span)
            stage_s["gather"] = sim.now - t0
            self._raise_partial_failure(function, futures)
            flat = [
                value
                for future in futures
                for value in future.result()
            ]
            # -- stage 4: CPU reduce (map_reduce only) ---------------------------
            value: object = flat
            if reduce_fn is not None:
                t0 = sim.now
                span = trace.begin_phase("reduce")
                yield from self._stage_request(
                    function, frontend,
                    exec_s=REDUCE_US_PER_ITEM * 1e-6 * len(flat),
                    payload_bytes=(
                        PAYLOAD_BASE_BYTES
                        + PAYLOAD_BYTES_PER_ITEM * len(flat)
                    ),
                )
                value = functools.reduce(reduce_fn, flat)
                trace.end_phase(span)
                stage_s["reduce"] = sim.now - t0
        except RequestShed as exc:
            self.jobs_failed += 1
            trace.shed(exc.reason)
            raise
        except Exception as exc:
            self.jobs_failed += 1
            trace.fail(type(exc).__name__)
            raise
        for name, duration in stage_s.items():
            self.stage_samples[name].append(duration)
        trace.finish()
        return FanoutJobResult(
            function=function,
            value=value,
            partitions=len(partitions),
            batches=job_batches,
            speculated=speculated,
            total_s=sim.now - start,
            admitted_s=first.admitted_s,
            shard=first.shard,
            hedged=speculated > 0,
            stage_s=stage_s,
        )

    # -- pipeline stages ----------------------------------------------------------

    def _invoke(self, name: str, frontend=None, **kwargs):
        frontend = (
            frontend if frontend is not None else self.runtime.frontend
        )
        if frontend is not None:
            return frontend.invoke(name, **kwargs)
        return self.runtime.invoker.invoke(name, **kwargs)

    def _stage_request(self, function: str, frontend, exec_s: float,
                       payload_bytes: int):
        """Generator: one CPU-pinned partition/reduce stage request."""
        try:
            result = yield from self._invoke(
                function, frontend,
                kind=PuKind.CPU,
                exec_time_s=exec_s,
                payload_bytes=payload_bytes,
            )
        except RequestShed:
            self.stage_shed += 1
            raise
        except ReproError:
            self.stage_error += 1
            raise
        self.stage_ok += 1
        return result

    def _admit(self, futures: list[FanoutFuture], map_fn: Callable,
               function: str, frontend) -> int:
        """Generator: dispatch tasks in deterministic chunks."""
        metrics = self.metrics
        chunk_size = max(1, self.config.chunk_size)
        job_batches = 0
        for lo in range(0, len(futures), chunk_size):
            chunk = futures[lo:lo + chunk_size]
            for future in chunk:
                future._mark_running(self.sim.now)
                self.tasks_submitted += 1
                self.sim.spawn(
                    self._task(future, map_fn, function, frontend),
                    name=f"fanout-task:{function}#{future.seq}",
                )
            self.batches += 1
            job_batches += 1
            metrics.batches.inc()
            if (self.config.admit_stagger_s > 0
                    and lo + chunk_size < len(futures)):
                yield self.sim.timeout(self.config.admit_stagger_s)
        return job_batches

    def _task(self, future: FanoutFuture, map_fn: Callable, function: str,
              frontend):
        """Generator: one partition task through the real invoke path."""
        metrics = self.metrics
        policy = (
            _TaskPolicy(self.speculation, future)
            if self.speculation is not None else None
        )
        try:
            yield from self._invoke(
                function, frontend,
                payload_bytes=future.partition.payload_bytes,
                hedge_policy=policy,
            )
        except RequestShed as exc:
            self.tasks_shed += 1
            future._fail(exc, OUTCOME_SHED, self.sim.now)
        except ReproError as exc:
            self.tasks_error += 1
            future._fail(exc, OUTCOME_ERROR, self.sim.now)
        else:
            value = [map_fn(item) for item in future.partition.items]
            self.tasks_done += 1
            future._finish(value, self.sim.now)
        self.task_log.append(
            (round(self.sim.now, 9), future.seq, future.outcome)
        )
        self.task_samples.append(future.finished_s - future.dispatched_s)
        metrics.tasks.child(function, future.outcome).inc()

    def _gather(self, futures: list[FanoutFuture], fdef) -> int:
        """Generator: threshold wait, then the straggler sweep."""
        sim = self.sim
        metrics = self.metrics
        threshold = max(
            1, int(-(-len(futures) * self.config.gather_threshold // 1))
        )
        yield from wait(sim, futures, N_COMPLETED, count=threshold)
        speculated = 0
        while True:
            done, pending = yield from wait(
                sim, futures, ALL_COMPLETED,
                timeout=(
                    self.config.sweep_period_s
                    if self.speculation is not None else None
                ),
            )
            if not pending:
                return speculated
            if self.speculation is None:
                continue
            trigger_s = self.speculation.trigger_delay(fdef)
            for future in pending:
                state = future._spec_state
                if (future.speculated or state is None or state.fired
                        or trigger_s is None):
                    continue
                if sim.now - future.dispatched_s < trigger_s:
                    continue
                event = state.trigger_event
                if event is not None and not event.triggered:
                    event.succeed()
                future.speculated = True
                speculated += 1
                self.speculations += 1
                metrics.speculations.child(future.function).inc()

    def _raise_partial_failure(self, function: str,
                               futures: list[FanoutFuture]) -> None:
        shed = sum(1 for f in futures if f.outcome == OUTCOME_SHED)
        failed = sum(1 for f in futures if f.outcome == OUTCOME_ERROR)
        if not shed and not failed:
            return
        done = sum(1 for f in futures if f.outcome == OUTCOME_DONE)
        errors = tuple(
            f"partition {f.partition.index}: "
            f"{type(f.error).__name__}: {f.error}"
            for f in futures
            if f.outcome in (OUTCOME_SHED, OUTCOME_ERROR)
        )
        raise FanoutPartialFailure(
            f"fan-out of {function!r} lost {shed + failed} of "
            f"{len(futures)} partitions ({shed} shed, {failed} failed)",
            done=done, shed=shed, failed=failed, errors=errors,
        )

    # -- reporting ---------------------------------------------------------------

    def answered_requests(self) -> int:
        """Frontend-admitted requests this engine saw answered (tasks
        plus stage requests): the answered count at the request level
        when the load is fan-out jobs."""
        return self.tasks_done + self.stage_ok

    def shed_requests(self) -> int:
        """Frontend-admitted requests shed by the overload controller."""
        return self.tasks_shed + self.stage_shed

    def snapshot(self) -> dict:
        """Lifetime accounting (stable keys, deterministic values)."""
        snap = {
            "jobs": self.jobs,
            "jobs_failed": self.jobs_failed,
            "tasks_submitted": self.tasks_submitted,
            "tasks_done": self.tasks_done,
            "tasks_shed": self.tasks_shed,
            "tasks_error": self.tasks_error,
            "stage_ok": self.stage_ok,
            "stage_shed": self.stage_shed,
            "stage_error": self.stage_error,
            "batches": self.batches,
            "speculations": self.speculations,
        }
        if self.speculation is not None:
            snap["speculation"] = self.speculation.snapshot()
        return snap
