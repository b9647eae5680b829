"""The request-deadline race: a request waits on its attempt directly,
and a deadline timer interrupts it only while the attempt is still in
flight.

Pins the edges of that race: an orphaned attempt that fails after the
deadline, an attempt that finishes at the deadline's own instant, and
that an answered request is not kept alive by its pending timer.
"""

import gc
import weakref

from repro import (
    FunctionCode,
    FunctionDef,
    Language,
    MoleculeRuntime,
    PuKind,
    WorkProfile,
)
from repro.errors import DeadlineExceeded, FaultInjectedError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultKind, FaultPlan, FaultSpec


HELLO = FunctionDef(
    name="hello",
    code=FunctionCode("hello", language=Language.PYTHON, import_ms=120.0),
    work=WorkProfile(warm_exec_ms=15.0),
    profiles=(PuKind.CPU, PuKind.DPU),
)


def _record_attempts(sim):
    """Wrap ``sim.spawn`` to collect every attempt process."""
    attempts = []
    spawn = sim.spawn

    def recording_spawn(generator, name=""):
        proc = spawn(generator, name=name)
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
