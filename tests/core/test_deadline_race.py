"""The request-deadline race: a request runs its attempt inline, and a
deadline timer interrupts it only while the attempt is still in flight.

Pins the edges of that race: an orphaned attempt that fails or
succeeds after the deadline, an attempt that finishes at the
deadline's own instant, that an answered request is not kept alive by
its pending timer, that only an abandoned attempt gets a process of
its own, and that the orphan keeps its place among the waiters of a
shared event.
"""

import gc
import weakref
from collections import Counter
from pathlib import Path

from repro import (
    FunctionCode,
    FunctionDef,
    Language,
    MoleculeRuntime,
    PuKind,
    WarmPathConfig,
    WorkProfile,
    build_cpu_fpga_machine,
)
from repro.core.reliability import DeadLetterQueue
from repro.errors import DeadlineExceeded, FaultInjectedError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultKind, FaultPlan, FaultSpec
from repro.hardware import FabricResources, KernelSpec
from repro.loadgen import ArrivalPlan, OpenLoopDriver, build_runtime, run_load
from repro.obs import Observability
from repro.sim import Simulator
from repro.warmpath.engine import PREFETCH_MIN_RPS

GOLDEN_PLAN = (
    Path(__file__).parent.parent / "loadgen" / "data" / "golden_plan.json"
)


HELLO = FunctionDef(
    name="hello",
    code=FunctionCode("hello", language=Language.PYTHON, import_ms=120.0),
    work=WorkProfile(warm_exec_ms=15.0),
    profiles=(PuKind.CPU, PuKind.DPU),
)


def _record_attempts(sim):
    """Wrap ``sim.spawn`` to collect every attempt process.

    An attempt runs inline in its request's process, so the only
    ``attempt:`` processes are orphans a deadline abandoned.
    """
    attempts = []
    spawn = sim.spawn

    def recording_spawn(generator, name="", **kwargs):
        proc = spawn(generator, name=name, **kwargs)
        if name.startswith("attempt:"):
            attempts.append(proc)
        return proc

    sim.spawn = recording_spawn
    return attempts


def test_orphan_failing_after_the_deadline_does_not_escape_run():
    molecule = MoleculeRuntime.create(num_dpus=1)
    molecule.deploy_now(HELLO)
    start = molecule.sim.now
    # The DPU cold start takes ~107 ms: the 50 ms deadline fires first,
    # then the crash lands mid-start and fails the orphaned attempt.
    FaultInjector(molecule, FaultPlan.of(
        FaultSpec(FaultKind.PU_CRASH, "dpu0", at_s=start + 0.08),
    )).arm()
    attempts = _record_attempts(molecule.sim)
    outcome = []

    def client():
        try:
            yield from molecule.invoke(
                "hello", kind=PuKind.DPU, deadline_s=0.05
            )
        except DeadlineExceeded:
            outcome.append(molecule.sim.now - start)

    molecule.sim.spawn(client())
    molecule.sim.run()  # the orphan's late failure must not escape
    assert outcome and 0.05 <= outcome[0] < 0.08
    [attempt] = attempts
    assert attempt.processed and not attempt.ok
    assert isinstance(attempt.value, FaultInjectedError)
    assert molecule.sim.now - start > 0.08
    [entry] = molecule.dead_letters.entries()
    assert entry.reason == "deadline"


def test_attempt_finishing_at_the_deadline_instant_is_answered():
    molecule = MoleculeRuntime.create(num_dpus=1, seed=7)
    molecule.deploy_now(HELLO)
    molecule.invoke_now("hello", kind=PuKind.CPU)  # warm the pool
    warm = molecule.invoke_now("hello", kind=PuKind.CPU)
    assert not warm.cold
    budget = molecule.sim.now - warm.admitted_s
    result = molecule.invoke_now("hello", kind=PuKind.CPU, deadline_s=budget)
    # The deadline lands exactly on the completion instant.
    assert result.admitted_s + budget == molecule.sim.now
    assert not result.cold
    assert len(molecule.dead_letters) == 0


def test_answered_request_is_not_pinned_by_its_pending_deadline():
    molecule = MoleculeRuntime.create(num_dpus=1, seed=7)
    molecule.deploy_now(HELLO)
    seen = []

    def client():
        result = yield from molecule.invoke(
            "hello", kind=PuKind.CPU, deadline_s=30.0
        )
        seen.append((weakref.ref(result), result.admitted_s))

    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        molecule.sim.spawn(client())
        molecule.sim.run(until=molecule.sim.now + 1.0)
        [(ref, admitted)] = seen
        # The disarmed deadline timer is still queued...
        assert molecule.sim.peek() == admitted + 30.0
        # ...yet the answered request is already freed by refcount.
        assert ref() is None
    finally:
        if was_enabled:
            gc.enable()


def _tree(span):
    return (
        span.name, span.begin_s, span.end_s, dict(span.attributes),
        [_tree(child) for child in span.children],
    )


def test_orphan_succeeding_after_the_deadline_releases_everything_once():
    molecule = MoleculeRuntime.create(num_dpus=1, seed=7)
    molecule.deploy_now(HELLO)
    molecule.invoke_now("hello", kind=PuKind.CPU)  # warm the pool
    cpu = molecule.machine.host_cpu
    billed = len(molecule.ledger)
    attempts = _record_attempts(molecule.sim)
    seen = []

    def client():
        try:
            # The 200 ms exec outlasts the 50 ms deadline.
            yield from molecule.invoke(
                "hello", kind=PuKind.CPU, exec_time_s=0.2, deadline_s=0.05
            )
        except DeadlineExceeded:
            trace = molecule.obs.traces[-1]
            seen.append((trace, _tree(trace.root)))

    molecule.sim.spawn(client())
    molecule.sim.run()
    [(trace, tree)] = seen
    [attempt] = attempts
    assert attempt.processed and attempt.ok
    [entry] = molecule.dead_letters.entries()
    assert entry.reason == "deadline"
    # The orphan ran to completion in the background...
    assert molecule.invoker.pools[cpu.pu_id].idle_instances("hello")
    assert cpu.cores.in_use == 0
    [charge] = molecule.ledger.entries[billed:]
    assert charge.request_id == entry.request_id
    # ...without touching the expired request's span tree.
    assert _tree(trace.root) == tree


def test_answered_attempts_spawn_no_process():
    plan = ArrivalPlan.from_json(GOLDEN_PLAN.read_text())
    runtime, frontend = build_runtime(plan, seed=1234, shards=2)
    attempts = _record_attempts(runtime.sim)
    records = OpenLoopDriver(runtime, plan, frontend).run()
    assert len(records) == len(plan)
    assert attempts == []


def test_deadline_orphans_are_the_only_attempt_processes(monkeypatch):
    orphans = []
    reasons = Counter()
    spawn = Simulator.spawn
    push = DeadLetterQueue.push

    def recording_spawn(sim, generator, name="", **kwargs):
        if name.startswith("attempt:"):
            orphans.append(name)
        return spawn(sim, generator, name, **kwargs)

    def recording_push(queue, letter):
        reasons[letter.reason] += 1
        return push(queue, letter)

    monkeypatch.setattr(Simulator, "spawn", recording_spawn)
    monkeypatch.setattr(DeadLetterQueue, "push", recording_push)
    run_load("overload", seed=5, quick=True)
    assert 0 < len(orphans) <= reasons["deadline"]


def _fpga_runtime():
    sim = Simulator()
    machine = build_cpu_fpga_machine(sim, num_fpgas=1)
    molecule = MoleculeRuntime(
        sim, machine, obs=Observability(sim), seed=11,
        warmpath=WarmPathConfig(prewarm=False),
    )
    molecule.start()
    for name in ("fir", "aes"):
        molecule.deploy_now(FunctionDef(
            name=name,
            code=FunctionCode(
                name, language=Language.PYTHON, import_ms=80.0,
                kernel=KernelSpec(
                    name=name,
                    resources=FabricResources(
                        luts=4000, regs=7000, brams=20, dsps=40
                    ),
                    exec_time_s=100e-6,
                ),
            ),
            work=WorkProfile(warm_exec_ms=4.0, fpga_exec_ms=0.5),
            profiles=(PuKind.FPGA,),
        ))
    return molecule


def test_orphan_keeps_its_place_among_waiters_on_a_shared_event():
    molecule = _fpga_runtime()
    sim = molecule.sim
    engine = molecule.warmpath
    molecule.invoke_now("aes", kind=PuKind.FPGA)  # aes resident on fpga0
    # Reprogram fpga0 with an image holding fir and aes: requests for
    # either join the one in-flight programming event.
    engine._maybe_prefetch(molecule.registry.get("fir"), PREFETCH_MIN_RPS)
    programming = []
    programmed = []
    resumed = []
    join = engine.join_bitstream_prefetch

    def recording_join(function):
        [(_funcs, done)] = engine._prefetch_inflight.values()
        if not programming:
            done.callbacks.append(lambda event: programmed.append(sim.now))
        programming.append(done)
        yield from join(function)
        resumed.append((function.name, sim.now))

    engine.join_bitstream_prefetch = recording_join
    expired = []

    def client(name, deadline_s):
        try:
            yield from molecule.invoke(
                name, kind=PuKind.FPGA, deadline_s=deadline_s
            )
        except DeadlineExceeded:
            expired.append((name, sim.now))

    sim.spawn(client("fir", 0.05))
    sim.spawn(client("aes", None))
    sim.run()
    # Both requests joined the same programming event.
    done, again = programming
    assert done is again
    [programmed_at] = programmed
    [(name, expired_at)] = expired
    # fir's deadline fired while both waited on the programming...
    assert name == "fir" and expired_at < programmed_at
    # ...and its orphan still resumes first, at the same instant.
    assert resumed == [("fir", programmed_at), ("aes", programmed_at)]


def test_attempt_failing_at_the_deadline_instant_expires():
    molecule = MoleculeRuntime.create(num_dpus=1, seed=7)
    molecule.deploy_now(HELLO)
    molecule.invoke_now("hello", kind=PuKind.DPU)  # warm the pool
    warm = molecule.invoke_now("hello", kind=PuKind.DPU)
    assert not warm.cold
    budget = molecule.sim.now - warm.admitted_s
    # The DPU crashes mid-exec; the attempt notices when its exec ends,
    # on the deadline's own instant, after the timer already fired.
    FaultInjector(molecule, FaultPlan.of(
        FaultSpec(FaultKind.PU_CRASH, "dpu0",
                  at_s=molecule.sim.now + budget / 2),
    )).arm()
    expired = []

    def client():
        try:
            yield from molecule.invoke(
                "hello", kind=PuKind.DPU, deadline_s=budget
            )
        except DeadlineExceeded:
            expired.append(molecule.sim.now)

    molecule.sim.spawn(client())
    molecule.sim.run()
    [entry] = molecule.dead_letters.entries()
    assert expired == [entry.enqueued_at]
    assert entry.reason == "deadline"
    # The deadline answered: the failure was neither retried nor
    # recorded against the request.
    assert entry.errors == ()
