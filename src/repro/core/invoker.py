"""The request pipeline and its start paths (§4.2).

:meth:`Invoker.invoke` runs every request through fixed stages::

    admit -> cache -> gate -> retry -> attempt -> place / start / exec

* **admit**: gateway admission (here, through the request's gateway);
* **cache**: the result-cache consult, only with repro.reuse armed
  (:meth:`repro.reuse.engine.ReuseEngine.cache_stage`); it is also
  where a shed request is answered stale;
* **gate**: the overload controller's admission gate, only when armed
  (:meth:`repro.overload.engine.OverloadController.gate_stage`);
* **retry**: the retry/deadline loop (:meth:`Invoker._invoke_with_retries`);
* **attempt**: one :class:`~repro.core.records.Attempt`, plain or raced
  against a hedge clone (:func:`repro.hedging.engine.hedge_stage`),
  ending in one of the two start paths:

  * **general-purpose** (CPU/DPU): take an idle instance from the
    PU's warm pool, join a coalesced start (repro.warmpath), or cold
    start — cfork the PU's template container (locally for the host
    PU, through the executor's nIPC command channel for others), or
    create and boot a container (what Molecule-homo always does);
  * **accelerated** (FPGA/GPU): reuse the device's cached kernel or
    resident context, else repack the FPGA image (no-erase) or boot
    the GPU context; DMA the payload in and out.

An engine that is off adds no stage and no call to the request path.
"""

from __future__ import annotations

import itertools
from typing import Optional, TYPE_CHECKING

from repro import config
from repro.errors import (
    DeadlineExceeded,
    FaultInjectedError,
    HedgeCancelled,
    Interrupt,
    RegistryError,
    ReliabilityError,
    ReproError,
    RequestShed,
    RetriesExhaustedError,
    SandboxError,
    SchedulingError,
    WorkloadError,
)
from repro.hardware.pu import ProcessingUnit, PuKind
from repro.hedging.engine import hedge_stage
from repro.multios.process import ProcessState
from repro.core.keepalive import WarmPool, make_warm_pool
from repro.core.records import Attempt, FunctionInstance, InvocationResult
from repro.core.registry import FunctionDef
from repro.core.reliability import DeadLetter, RetryPolicy
from repro.obs.spans import (
    NULL_TRACE,
    START_COALESCED,
    START_COLD,
    START_FORK,
    START_WARM,
)
from repro.sandbox.base import SandboxState

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.molecule import MoleculeRuntime

#: Keep-alive reaper tick period (sim seconds) while a pool-wide TTL is
#: set.
REAP_PERIOD_S = 1.0


def _deadline_fired(timer) -> None:
    """Deadline-timer callback: wake a still-armed waiter one hop later.

    ``timer.value`` is the request's cell, ``[waiting process, fired]``;
    the process is cleared once the attempt answered.  The wake goes
    through one zero-delay NORMAL timeout, the position at which an
    ``any_of`` race over (attempt, timer) would have dispatched, so an
    attempt finishing at the deadline's own instant still answers.
    """
    cell = timer.value
    if cell[0] is not None:
        cell[1] = True
        timer.sim.timeout(0.0, cell).callbacks.append(_deadline_wake)


def _deadline_wake(hop) -> None:
    """Interrupt the waiter unless its attempt answered meanwhile."""
    waiter = hop.value[0]
    if waiter is not None:
        waiter.interrupt("deadline")


class Invoker:
    """The request pipeline over the runtime's sandbox runtimes."""

    def __init__(
        self,
        runtime: "MoleculeRuntime",
        warm_pool_capacity: int = 4096,
        keep_alive_ttl_s: Optional[float] = None,
        keepalive_policy: str = "ttl",
    ):
        self.runtime = runtime
        self.pools: dict[int, WarmPool] = {
            pu_id: make_warm_pool(
                keepalive_policy, warm_pool_capacity,
                keep_alive_ttl_s=keep_alive_ttl_s,
            )
            for pu_id in runtime.machine.pus
        }
        self._sandbox_ids = itertools.count(1)
        self.cold_invocations = 0
        self.warm_invocations = 0
        #: Requests served by a coalesced single-flight batch.
        self.coalesced_invocations = 0
        #: Observability hub (lifecycle spans + metrics).
        self.obs = runtime.obs
        #: Reliability wiring: retry policy, per-PU health, dead letters.
        self.retry_policy: RetryPolicy = runtime.retry_policy
        self.health = runtime.health
        self.dead_letters = runtime.dead_letters
        #: Seeded stream for backoff jitter.
        self._retry_rng = runtime.rng.fork("invoker-retry")
        # The engines wire themselves in; each one left None adds no
        # stage and no call to the request path: the warm-path engine
        # (repro.warmpath), the runtime-wide hedge policy
        # (repro.hedging), the overload controller's gate stage
        # (repro.overload) and the result cache's cache stage
        # (repro.reuse).
        self.engine = self.hedging = self.overload = self.reuse = None
        self._reaper_wakeup = None
        if keep_alive_ttl_s is not None:
            self.runtime.sim.spawn(
                self._keepalive_reaper(), name="keepalive-reaper"
            )

    def notify_idle(self) -> None:
        """Wake the keep-alive reaper after instances went idle."""
        if self._reaper_wakeup is not None and not self._reaper_wakeup.triggered:
            self._reaper_wakeup.succeed()

    def _keepalive_reaper(self):
        """Daemon: periodically evict instances idle past the TTL (§5
        keep-alive policies).

        Event-driven: while every pool is empty the reaper parks on a
        wakeup event (so an idle simulation can drain); releases call
        :meth:`notify_idle`.  Note that with a TTL configured, running
        the simulation to quiescence ages idle instances past the TTL.
        """
        while True:
            if all(not pool.idle_instances() for pool in self.pools.values()):
                self._reaper_wakeup = self.sim.event()
                yield self._reaper_wakeup
                self._reaper_wakeup = None
            yield self.sim.timeout(REAP_PERIOD_S)
            self._reap(self.sim.now)

    def _reap(self, now: float) -> int:
        """Destroy every pooled instance idle past its keep-alive TTL;
        returns how many."""
        reaped = 0
        for pool in self.pools.values():
            for instance in pool.reap_expired(now):
                self.sim.spawn(self._destroy(instance))
                reaped += 1
        if reaped:
            self.obs.metrics.keepalive_reaped_total.inc(reaped)
        return reaped

    @property
    def sim(self):
        """The runtime's simulator."""
        return self.runtime.sim

    # -- admit: the public entry ------------------------------------------------------

    def invoke(
        self,
        name: str,
        kind: Optional[PuKind] = None,
        pu: Optional[ProcessingUnit] = None,
        force_cold: bool = False,
        payload_bytes: int = 1024,
        exec_time_s: Optional[float] = None,
        deadline_s: Optional[float] = None,
        max_attempts: Optional[int] = None,
        gateway=None,
        overload_bypass: bool = False,
        hedge_policy=None,
        input_key: Optional[str] = None,
    ):
        """Generator: run one request end to end.

        ``exec_time_s`` overrides the function's warm execution model
        for input-dependent workloads (file size, entry count).

        ``gateway`` admits the request through a specific gateway
        (a shard of :class:`repro.loadgen.sharding.ShardedFrontend`)
        instead of the runtime's default front door.  A shard's
        gateway names its shard, whose counters are settled here:
        ``end_shed`` on a shed, ``end_request`` on an answer (which
        then carries ``result.shard``) or a failure, and nothing when
        the generator is closed before it finishes.

        Transient failures (injected faults, dead sandboxes, exhausted
        capacity) are retried with exponential backoff up to
        ``max_attempts`` (default: the runtime's retry policy); requests
        out of attempts or past their deadline are dead-lettered and
        raise :class:`RetriesExhaustedError` / :class:`DeadlineExceeded`.

        ``hedge_policy`` overrides the runtime-wide hedging policy for
        this request (repro.futures: the fan-out engine's straggler
        speculation, whose clone trigger is fired by the gather loop
        instead of a percentile timer).

        ``input_key`` is the request's input identity for the cache
        stage (repro.reuse).  ``overload_bypass`` marks a half-open
        breaker probe, which must reach a real PU: it skips the cache
        stage and is never shed by the gate stage (repro.overload).
        """
        gateway = gateway if gateway is not None else self.runtime.gateway
        shard = gateway.shard
        trace = request = None
        try:
            function = self.runtime.registry.get(name)
            if pu is not None and kind is None:
                kind = pu.kind
            if kind is not None and not function.supports(kind):
                raise SchedulingError(
                    f"function {name!r} has no {kind.value} profile"
                )
            hedger = hedge_policy if hedge_policy is not None else self.hedging
            sim = self.runtime.sim
            start = sim._now
            trace = self.obs.begin_invocation(function.name)
            fates = self.runtime.fates
            admit_span = trace.begin_phase("admit")
            yield sim.timeout(gateway.overhead_s)
            request_id = gateway.stamp(start, deadline_s)
            admitted_s = sim._now
            request = Attempt(
                function, request_id, kind, pu, force_cold, payload_bytes,
                exec_time_s, start, trace,
            )
            fates.admitted += 1
            trace.end_phase(admit_span)
            trace.annotate(request_id=request_id)
            if self.engine is not None:
                # Feed the arrival predictor here rather than in the
                # gateway: admission listeners only see a count, and
                # the predictor needs the function identity.
                self.engine.on_admission(function, kind)
            stage = self._invoke_with_retries(
                request, max_attempts or self.retry_policy.max_attempts,
                gateway, hedger,
            )
            if self.overload is not None:
                stage = self.overload.gate_stage(
                    stage, gateway, request, overload_bypass
                )
            if self.reuse is not None:
                stage = self.reuse.cache_stage(
                    stage, gateway, request, overload_bypass, input_key
                )
            result = yield from stage
        except RequestShed as exc:
            trace.shed(exc.reason)
            fates.settle_shed(request, exc)
            if shard is not None:
                shard.end_shed()
            raise
        except Exception as exc:
            # A request refused before admission (unknown function,
            # unsupported kind) has no trace and no fate yet.
            if trace is not None:
                trace.fail(type(exc).__name__)
            if request is not None:
                fates.settle_dead(request, exc)
            if shard is not None:
                shard.end_request(ok=False)
            raise
        finally:
            if request is not None:
                gateway.release(request_id)
        result.admitted_s = admitted_s
        fates.settle_answered(request, result)
        trace.finish()
        if hedger is not None and not result.cache:
            # Feed the latency tracker: successful completions are what
            # the percentile (or straggler) trigger is computed over.
            # Cache hits stay out — their near-zero latencies would
            # drag the percentile down and fire hedges on every
            # executed request.
            hedger.observe(function.name, result.total_s)
        if shard is not None:
            shard.end_request(ok=True)
            result.shard = shard.index
        return result

    # -- retry: the retry / deadline loop ----------------------------------------------

    def _invoke_with_retries(self, request: Attempt, max_attempts: int,
                             gateway, hedger):
        """Generator: drive attempts until success, exhaustion or
        deadline.

        Each attempt runs inline: every event it yields is yielded
        here, and the outcome is sent or thrown back in.  A deadline
        timer (see :func:`_deadline_fired`) holds only a cell naming
        this process, cleared once the attempt answers.  When the
        deadline fires first, its interrupt lands at our own ``yield``
        and the attempt is *orphaned*: a new process adopts it in our
        callback slot and finishes it in the background so every
        resource it holds (cores, DRAM, pool slots) is released through
        the normal paths.  The orphan keeps writing to the request's
        trace, which :meth:`invoke` closes in the same step (a closed
        trace ignores late writes), so it can no longer touch the
        request's span tree.
        """
        sim = self.runtime.sim
        function = request.function
        trace = request.trace
        deadline_at = gateway.deadline_for(request.request_id)
        errors: list[str] = []
        attempts = 0
        degraded_any = False
        while True:
            if deadline_at is not None and sim._now >= deadline_at:
                self._expire(request, attempts, errors)
            attempts += 1
            dispatch_kind = request.kind or function.profiles[0]
            attempt_kind, degraded = self._effective_kind(function, dispatch_kind)
            if degraded:
                degraded_any = True
                self.obs.metrics.degraded_total.child(
                    function.name, dispatch_kind.value, attempt_kind.value
                ).inc()
                trace.annotate(degraded=True)
                attempt = request.copy(attempt_kind, None, trace)
            else:
                attempt = request.copy(request.kind, request.pu, trace)
            if hedger is not None and hedger.eligible(
                function, attempt.kind, attempt_kind, attempt.pu,
                request.force_cold,
            ):
                run = hedge_stage(self, hedger, attempt)
            elif attempt_kind.general_purpose:
                run = self._attempt_general(attempt)
            else:
                run = self._attempt_accelerated(attempt, attempt_kind)
            cell = None
            if deadline_at is not None:
                cell = [sim.active_process, False]
                sim.timeout(deadline_at - sim._now, cell).callbacks.append(
                    _deadline_fired
                )
            ok, value = True, None
            try:
                while True:
                    event = run.send(value) if ok else run.throw(value)
                    try:
                        value = yield event
                        ok = True
                    except Interrupt:
                        # The deadline fired mid-attempt: orphan it
                        # (a late failure is defused).
                        sim.spawn(run, waiting_on=event, name=(
                            f"attempt:{function.name}#{request.request_id}"
                            f".{attempts}"
                        )).defuse()
                        break
                    except Exception as exc:  # the event failed
                        ok, value = False, exc
            except StopIteration as stop:
                if cell is not None:
                    cell[0] = None
                result: InvocationResult = stop.value
                result.attempts = attempts
                result.degraded = degraded_any
                result.error = errors[-1] if errors else None
                if attempts > 1:
                    trace.annotate(attempts=attempts)
                if attempt.placed is not None:
                    self.health.record_success(attempt.placed)
                return result
            except Exception as exc:  # the attempt failed
                failure = exc
            if cell is not None:
                cell[0] = None
                if cell[1]:
                    # The timer fired before the attempt answered: it
                    # was orphaned, or failed behind the deadline's wake.
                    trace.unwind()
                    self._expire(request, attempts, errors)
            # -- transient or terminal failure --------------------------------------
            trace.unwind()
            errors.append(f"{type(failure).__name__}: {failure}")
            if attempt.placed is not None:
                self.health.record_failure(attempt.placed)
            if not self._retryable(failure):
                self._dead_letter(request, attempts, errors, "error")
                raise failure
            if attempts >= max_attempts:
                self._dead_letter(request, attempts, errors, "retries_exhausted")
                raise RetriesExhaustedError(
                    f"request {request.request_id} for {function.name!r} "
                    f"failed {attempts} attempt(s): {errors[-1]}",
                    attempts=attempts,
                    errors=errors,
                )
            self.obs.metrics.retries_total.child(
                function.name, type(failure).__name__
            ).inc()
            backoff = self.retry_policy.backoff_s(attempts, self._retry_rng)
            if deadline_at is not None:
                backoff = min(backoff, max(0.0, deadline_at - sim._now))
            retry_span = trace.begin_phase(
                "retry", attempt=attempts, error=type(failure).__name__
            )
            yield sim.timeout(backoff)
            trace.end_phase(retry_span)

    #: Error classes that must never be retried: terminal reliability
    #: outcomes and misconfigurations a retry cannot fix.
    _TERMINAL_ERRORS = (ReliabilityError, RegistryError, WorkloadError)

    def _retryable(self, exc: BaseException) -> bool:
        """True for transient library errors worth another attempt."""
        return isinstance(exc, ReproError) and not isinstance(
            exc, self._TERMINAL_ERRORS
        )

    def _effective_kind(self, function, dispatch_kind):
        """Resolve graceful degradation: when every PU of an accelerator
        kind is unavailable — or the overload controller's brownout is
        active — and the function also carries a fallback profile, run
        on that profile's kind instead.

        The brownout falls back to the *host CPU* profile for any
        non-CPU dispatch (accelerators and DPUs alike): during
        saturation the cheap offload PUs are usually the ones drowning,
        and answering on pricier host cores beats not answering.
        """
        if (self.overload is not None
                and dispatch_kind is not PuKind.CPU
                and self.overload.degrade_accelerated()
                and function.supports(PuKind.CPU)):
            self.overload.note_degraded()
            return PuKind.CPU, True
        if dispatch_kind.general_purpose:
            return dispatch_kind, False
        pus = self.runtime.machine.pus_of_kind(dispatch_kind)
        if any(self.health.available(pu) for pu in pus):
            return dispatch_kind, False
        for fallback in function.profiles:
            if fallback.general_purpose:
                return fallback, True
        return dispatch_kind, False

    def _expire(self, request: Attempt, attempts, errors):
        """Dead-letter a request that ran out of deadline and raise."""
        self.obs.metrics.deadline_exceeded_total.child(
            request.function.name
        ).inc()
        self._dead_letter(request, attempts, errors, "deadline")
        raise DeadlineExceeded(
            f"request {request.request_id} for {request.function.name!r} "
            f"exceeded its deadline after {attempts} attempt(s)"
        )

    def _dead_letter(self, request: Attempt, attempts, errors, reason):
        """Park a terminally failed request in the dead-letter queue."""
        name = request.function.name
        self.dead_letters.push(DeadLetter(
            request_id=request.request_id,
            function=name,
            attempts=attempts,
            errors=tuple(errors),
            enqueued_at=self.sim.now,
            reason=reason,
        ))
        self.obs.metrics.dead_letters_total.child(name, reason).inc()

    # -- attempt: placement and crash bookkeeping ------------------------------------

    def _note_pu(self, attempt: Attempt, pu: ProcessingUnit) -> None:
        """Record the PU an attempt targets (breaker attribution +
        half-open probe claiming + crash-epoch snapshot)."""
        attempt.placed = pu
        attempt.epoch = self.health.epochs.get(pu.pu_id, 0)
        self.health.begin_attempt(pu)

    def _crashed_during(self, pu: ProcessingUnit, attempt: Attempt) -> bool:
        """True if ``pu`` crashed while this attempt was on it.

        Compares against the crash epoch snapshotted when the attempt
        targeted the PU, so a crash followed by a reboot before the
        attempt finished is still detected.
        """
        health = self.health
        pu_id = pu.pu_id
        return (pu_id in health.down
                or health.epochs.get(pu_id, 0) != attempt.epoch)

    def _result(self, attempt: Attempt, pu, cold, startup_s,
                exec_s) -> InvocationResult:
        """Bill an executed attempt and assemble its result."""
        entry = self.runtime.ledger.charge(
            attempt.request_id, attempt.function.name, pu, exec_s
        )
        return InvocationResult(
            function=attempt.function.name,
            request_id=attempt.request_id,
            pu_name=pu.name,
            pu_kind=pu.kind,
            cold=cold,
            startup_s=startup_s,
            exec_s=exec_s,
            total_s=self.runtime.sim._now - attempt.start,
            billed_cost=entry.cost,
        )

    # -- general-purpose path (CPU/DPU) -----------------------------------------------

    def _attempt_general(self, attempt: Attempt):
        """Generator: serve one attempt on a CPU or DPU.

        Start an instance (warm pool, coalesced batch, or cold start),
        execute on one of the PU's cores, and respond.  A hedged copy
        checks at each cancellation checkpoint whether the other copy
        already answered, and if so tears itself down.
        """
        sim = self.runtime.sim
        function = attempt.function
        kind, pu, trace = attempt.kind, attempt.pu, attempt.trace
        force_cold = attempt.force_cold
        hedge, tag = attempt.hedge, attempt.tag
        exclude = hedge.avoid(tag) if hedge is not None else None
        startup_begin = sim._now
        schedule_span = trace.begin_phase("schedule")
        instance = (
            None if force_cold else self._find_warm(function, kind, pu, exclude)
        )
        coalesced = False
        engine = self.engine
        if instance is None and engine is not None and not force_cold:
            # Single-flight coalescing: a miss with a batch already in
            # flight for this (function, PU) parks on it instead of
            # paying an independent cold start.  Woken empty-handed
            # (the batch closed before reaching us), re-check the pool
            # — requests that completed meanwhile released instances —
            # then look for a fresh batch; no open batch left means
            # this request becomes the next leader below.
            while instance is None:
                if hedge is not None and hedge.lost(tag):
                    raise HedgeCancelled()
                batch = engine.joinable_batch(function, kind, pu, exclude)
                if batch is None:
                    break
                if hedge is not None:
                    # A parked follower has no placement yet; remember
                    # the batch's PU so a later trigger can hedge away
                    # from it.
                    hedge.pu_hint = self.runtime.machine.pus[batch.key[1]]
                waiter = batch.join(sim)
                engine.on_follower_joined(batch)
                yield waiter
                if hedge is not None and hedge.lost(tag):
                    # Answered by the other copy while parked.  A
                    # delivered instance goes straight back through the
                    # release path so the batch's recycle chain keeps
                    # moving (no dangling parked-follower queue).
                    if waiter.value is not None:
                        self._release_instance(waiter.value)
                    raise HedgeCancelled()
                if waiter.value is not None:
                    instance = waiter.value
                    coalesced = True
                else:
                    instance = self._find_warm(function, kind, pu, exclude)
        cold = instance is None
        if cold:
            if hedge is not None and hedge.lost(tag):
                raise HedgeCancelled()
            target = pu or self.runtime.scheduler.place(
                function, kind, exclude=exclude
            )
            self._note_pu(attempt, target)
            schedule_span.attributes["pu"] = target.name
            trace.end_phase(schedule_span)
            sandbox_span = trace.begin_phase("sandbox_start")
            batch = (
                engine.open_batch(function, target)
                if engine is not None and not force_cold
                else None
            )
            try:
                instance = yield from self._cold_start(function, target, trace)
            except BaseException:
                if batch is not None:
                    engine.abort_batch(batch)
                raise
            sandbox_span.attributes["forked"] = instance.forked
            trace.end_phase(sandbox_span)
            self.cold_invocations += 1
            if self._crashed_during(target, attempt):
                # The PU crashed mid-cold-start: the instance is gone.
                if batch is not None:
                    engine.abort_batch(batch)
                sim.spawn(self._destroy(instance))
                raise FaultInjectedError(
                    f"{target.name} crashed during cold start of "
                    f"{function.name!r}"
                )
            if batch is not None:
                engine.leader_done(batch, function, target)
        else:
            self._note_pu(attempt, instance.pu)
            schedule_span.attributes["pu"] = instance.pu.name
            trace.end_phase(schedule_span)
            if coalesced:
                self.coalesced_invocations += 1
                engine.on_coalesced_start(function.name)
            else:
                self.warm_invocations += 1
        startup_s = sim._now - startup_begin
        if hedge is not None and hedge.lost(tag):
            # Cancelled after startup but before executing: the loser's
            # instance goes straight back (warm, unused) — a cold-started
            # clone instance becomes warm stock for later requests.
            self._release_instance(instance)
            raise HedgeCancelled()
        start_kind = (
            START_COALESCED if coalesced
            else START_WARM if not cold
            else START_FORK if instance.forked
            else START_COLD
        )
        trace.annotate(
            pu=instance.pu.name,
            pu_kind=instance.pu.kind.value,
            start_kind=start_kind,
        )
        exec_span = trace.begin_phase("exec", pu=instance.pu.name)

        exec_begin = sim._now
        if cold and function.code.data_ms:
            # Cold-path data preparation no startup optimisation removes.
            yield sim.timeout(function.code.data_ms * config.MS)
        if instance.forked and not instance.requests_served:
            # A forked instance's first request pays the COW penalty.
            runc = self.runtime.runc_on(instance.pu.pu_id)
            yield sim.timeout(runc.first_request_penalty())
        duration = (
            attempt.exec_time_s
            if attempt.exec_time_s is not None
            else function.work.exec_time(instance.pu)
        )
        # Execution occupies one of the PU's cores: concurrent requests
        # beyond the core count queue (real vertical-scaling pressure).
        core = instance.pu.cores.request()
        yield core
        instance.pu.clock.mark_busy()
        yield sim.timeout(duration)
        instance.pu.clock.mark_idle()
        instance.pu.cores.release(core)
        instance.requests_served += 1
        exec_s = sim._now - exec_begin
        trace.end_phase(exec_span)

        if self._crashed_during(instance.pu, attempt) or not self._is_alive(
            instance
        ):
            # The PU crashed (or the sandbox was killed) while this
            # request ran on it: the response is lost with the PU.
            sim.spawn(self._destroy(instance))
            raise FaultInjectedError(
                f"{instance.pu.name} failed while executing "
                f"{function.name!r}"
            )
        if hedge is not None and hedge.lost(tag):
            # The other copy answered while this one executed: charge
            # the discarded work as hedge waste, recycle the instance,
            # and abort without responding (no duplicate answer).
            hedge.policy.charge_waste(
                attempt.request_id, function, instance.pu, exec_s
            )
            self._release_instance(instance)
            raise HedgeCancelled(wasted_s=exec_s)

        respond_span = trace.begin_phase("respond")
        self._release_instance(instance)
        trace.end_phase(respond_span)
        return self._result(attempt, instance.pu, cold, startup_s, exec_s)

    def _find_warm(self, function: FunctionDef, kind, pu, exclude=None):
        """A live idle instance of ``function`` from the first candidate
        PU's pool that has one (None: a miss)."""
        candidates = (
            [pu]
            if pu is not None
            else self.runtime.scheduler.candidates(function, kind)
        )
        for candidate in candidates:
            if candidate is exclude:
                continue
            pool = self.pools[candidate.pu_id]
            while True:
                instance = pool.acquire(function.name)
                if instance is None:
                    break
                if self._is_alive(instance):
                    if self.engine is not None:
                        self.engine.on_warm_acquire(instance)
                    return instance
                # A crashed instance was cached: reap it and keep looking
                # (failure robustness - a dead sandbox must never serve).
                self.sim.spawn(self._destroy(instance))
        return None

    def _is_alive(self, instance: FunctionInstance) -> bool:
        """True unless the instance's container was deleted or its
        process died (every pooled instance is a runc container; the
        accelerated path keeps no instances)."""
        sandbox = instance.sandbox
        if sandbox.state is SandboxState.DELETED:
            return False
        process = sandbox.backend.process
        return process is None or process.state is ProcessState.RUNNING

    def _release_instance(self, instance: FunctionInstance) -> None:
        """Return a no-longer-needed instance through the normal path:
        the warm-path engine may recycle it into a parked coalesced
        follower; otherwise it goes back to its PU's pool."""
        engine = self.engine
        if engine is None or not engine.offer_released(instance):
            self._pool(instance)

    def _pool(self, instance: FunctionInstance) -> None:
        """Put an instance in its PU's warm pool, destroying whatever
        the pool evicts to make room."""
        sim = self.runtime.sim
        evicted = self.pools[instance.pu.pu_id].release(instance, now=sim._now)
        self.notify_idle()
        for old in evicted:
            sim.spawn(self._destroy(old))

    def _cold_start(self, function: FunctionDef, pu: ProcessingUnit,
                    trace=NULL_TRACE):
        """Generator: create a new instance on ``pu`` (cfork preferred)."""
        runc = self.runtime.runc_on(pu.pu_id)
        sandbox_id = f"{function.name}-{next(self._sandbox_ids)}"
        use_cfork = (
            self.runtime.use_cfork
            and runc.template_for(function.code) is not None
        )
        client = self.runtime.executor_client(pu.pu_id)
        if client is not None:  # neighbour PU: command over nIPC
            verb = "cfork" if use_cfork else "cold_start"
            nipc_span = trace.begin_phase(
                "nipc", transport="xpu-fifo", target=pu.name, verb=verb
            )
            sandbox = yield from client.call(
                verb, sandbox_id=sandbox_id, code=function.code
            )
            trace.end_phase(nipc_span)
        elif use_cfork:  # Molecule's own PU: local cfork
            sandbox = yield from runc.cfork(sandbox_id, function.code)
        else:
            yield from runc.create(sandbox_id, function.code)
            sandbox = yield from runc.start(sandbox_id)
        return FunctionInstance(
            function=function, pu=pu, sandbox=sandbox, forked=use_cfork
        )

    def _destroy(self, instance: FunctionInstance):
        """Generator: tear down an evicted instance and free memory.

        Idempotent: the first caller claims the teardown; later calls
        (a reaper and an eviction racing on the same instance) are
        no-ops, so the DRAM reservation is released exactly once.
        """
        if instance.destroyed:
            return
        instance.destroyed = True
        if self.engine is not None:
            self.engine.on_instance_destroyed(instance)
        runc = self.runtime.runc_on(instance.pu.pu_id)
        if instance.sandbox.state is not SandboxState.DELETED:
            try:
                yield from runc.delete(instance.sandbox.sandbox_id)
            except SandboxError:
                # A crash already reaped the sandbox out from under us.
                pass
        self.runtime.scheduler.release(instance.function, instance.pu)

    # -- accelerated path (FPGA/GPU) --------------------------------------------------

    def _attempt_accelerated(self, attempt: Attempt, kind: PuKind):
        """Generator: serve one attempt on an FPGA or GPU.

        Only the PU choice and the sandbox acquire differ per kind;
        both DMA the payload in, run on the device, and DMA it out.
        """
        sim = self.runtime.sim
        function, trace = attempt.function, attempt.trace
        schedule_span = trace.begin_phase("schedule")
        if kind is PuKind.FPGA:
            if self.engine is not None:
                # A device mid-programming an image that includes this
                # kernel: wait for that instead of repacking another one.
                yield from self.engine.join_bitstream_prefetch(function)
            pu = self._choose_fpga(function)
        else:
            pu = self.runtime.scheduler.place(function, kind)
        self._note_pu(attempt, pu)
        schedule_span.attributes["pu"] = pu.name
        trace.end_phase(schedule_span)
        startup_begin = sim._now
        sandbox_span = trace.begin_phase("sandbox_start")
        acquire = (
            self._fpga_sandbox if kind is PuKind.FPGA else self._gpu_sandbox
        )
        backend, sandbox_id, cold = yield from acquire(function, pu)
        trace.end_phase(sandbox_span)
        if cold:
            self.cold_invocations += 1
        else:
            self.warm_invocations += 1
        startup_s = sim._now - startup_begin
        trace.annotate(
            pu=pu.name, pu_kind=pu.kind.value,
            start_kind=START_COLD if cold else START_WARM,
        )
        exec_begin = sim._now
        exec_span = trace.begin_phase("exec", pu=pu.name)
        yield from self._transfer(pu, attempt.payload_bytes, trace, "in")
        duration = (
            attempt.exec_time_s
            if attempt.exec_time_s is not None
            else function.work.exec_time(pu)
        )
        yield from backend.invoke(sandbox_id, exec_time_s=duration)
        yield from self._transfer(pu, attempt.payload_bytes, trace, "out")
        trace.end_phase(exec_span)
        exec_s = sim._now - exec_begin
        if self._crashed_during(pu, attempt):
            # The accelerator crashed while this request was on it.
            raise FaultInjectedError(
                f"{pu.name} failed while executing {function.name!r}"
            )
        return self._result(attempt, pu, cold, startup_s, exec_s)

    def _choose_fpga(self, function):
        """Pick the FPGA for a request: a device already caching the
        kernel wins (warm start); otherwise the device whose image was
        programmed least recently is repacked — never one the warm-path
        engine is mid-prefetching while an idle one exists.  With 8 F1
        devices and 12-instance images this caches 96 instances
        machine-wide (§6.4).
        """
        candidates = self.runtime.scheduler.candidates(function, PuKind.FPGA)
        if not candidates:
            raise SchedulingError(f"no FPGA can host {function.name!r}")
        for pu in candidates:
            runf = self.runtime.runf_on(pu.pu_id)
            if runf.cached_sandbox_for(function.name) is not None:
                return pu
        idle = (
            self.engine.idle_fpga(candidates)
            if self.engine is not None else None
        )
        return idle or min(
            candidates,
            key=lambda pu: self.runtime.runf_on(pu.pu_id).device.program_count,
        )

    def _fpga_sandbox(self, function, pu):
        """Generator: ``(runf, sandbox id, cold)`` for ``function`` on
        FPGA ``pu``: the resident image's cached kernel, or a repacked
        image (resident-hot kernels kept, this one added)."""
        runf = self.runtime.runf_on(pu.pu_id)
        sandbox = runf.cached_sandbox_for(function.name)
        cold = sandbox is None
        if self.engine is not None:
            self.engine.note_fpga_start(function.name, pu.pu_id, cold)
        if cold:
            _names, entries = self._image_entries(runf, function)
            yield from runf.create_vector(entries)
            sandbox = runf.cached_sandbox_for(function.name)
        if sandbox.state is SandboxState.CREATED:
            yield from runf.start(sandbox.sandbox_id)
        return runf, sandbox.sandbox_id, cold

    def _image_entries(self, runf, function):
        """Plan the image a repack of ``runf`` would program for
        ``function``: returns its functions and its ``(sandbox id,
        code)`` entries."""
        predicted = [function.name] + [
            n for n in runf.resident_function_ids if n != function.name
        ]
        plan = self.runtime.image_planner.plan(predicted)
        entries = []
        for fn_name in plan.func_names:
            fn = self.runtime.registry.get(fn_name)
            for _copy in range(plan.copies_each):
                entries.append(
                    (f"{fn_name}-v{next(self._sandbox_ids)}", fn.code)
                )
        return plan.func_names, entries

    def _gpu_sandbox(self, function, pu):
        """Generator: ``(rung, sandbox id, cold)`` for ``function`` on
        GPU ``pu``: its resident context, or a freshly booted one."""
        rung = self.runtime.rung_on(pu.pu_id)
        sandbox_id = f"gpu-{function.name}"
        try:
            rung.get(sandbox_id)
        except SandboxError:
            yield from rung.create(sandbox_id, function.code)
            yield from rung.start(sandbox_id)
            return rung, sandbox_id, True
        return rung, sandbox_id, False

    def _transfer(self, pu: ProcessingUnit, nbytes: int, trace=NULL_TRACE,
                  direction: str = "in"):
        """Generator: DMA a payload between the host and an accelerator."""
        span = trace.begin_phase(
            "nipc", transport="dma", target=pu.name, direction=direction
        )
        host = pu.host_pu or self.runtime.machine.host_cpu
        route = self.runtime.machine.route(host, pu)
        yield self.sim.timeout(route.transfer_time(nbytes))
        yield self.sim.timeout(host.copy_time(nbytes))
        trace.end_phase(span)
