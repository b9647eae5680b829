"""Regression tests for the kernel fast paths.

These pin the behavioural contracts behind the dispatch optimisations:
tombstoned interrupt slots and their hand-off, direct resumption of already-processed
targets, condition defusal over pre-processed children, and the
Timeout/_Resume free-lists.
"""

import platform

import pytest

from repro.errors import Interrupt
from repro.sim import Simulator

IS_CPYTHON = platform.python_implementation() == "CPython"


# -- interrupt vs. same-timestep trigger --------------------------------------------


def test_interrupt_suppresses_same_timestep_trigger():
    """An interrupt must win over the target triggering in the same
    timestep: the stale wait callback may not resume the process a
    second time with the old target's value."""
    sim = Simulator()
    log = []

    def interrupter(sim, get_victim):
        yield sim.timeout(1.0)
        get_victim().interrupt("now")

    def victim(sim):
        try:
            # Triggers at t=1.0, the same timestep as the interrupt —
            # but the interrupter's timeout was created first, so the
            # interrupt lands before this timeout dispatches.
            yield sim.timeout(1.0, value="late")
            log.append("not interrupted")
        except Interrupt as exc:
            log.append(("interrupted", exc.cause))
        value = yield sim.timeout(5.0, value="second")
        log.append(("second", value, sim.now))

    holder = {}
    sim.spawn(interrupter(sim, lambda: holder["p"]))
    holder["p"] = sim.spawn(victim(sim))
    sim.run()
    # Exactly one resume per wait: the interrupt, then the second
    # timeout — never a spurious resume carrying "late".
    assert log == [("interrupted", "now"), ("second", "second", 6.0)]


def test_interrupt_then_new_wait_not_clobbered_by_old_target():
    """After an interrupted process starts a fresh wait, the old
    target's eventual trigger must not deliver into the new wait."""
    sim = Simulator()
    log = []

    def victim(sim):
        try:
            yield sim.timeout(10.0, value="old")
        except Interrupt:
            pass
        value = yield sim.timeout(20.0, value="new")
        log.append((value, sim.now))

    def interrupter(sim, p):
        yield sim.timeout(2.0)
        p.interrupt()

    p = sim.spawn(victim(sim))
    sim.spawn(interrupter(sim, p))
    sim.run()
    # The old target fires at t=10 into a tombstoned slot; the victim
    # only resumes at t=22 with the new wait's value.
    assert log == [("new", 22.0)]


def test_interrupt_slot_tombstone_is_o1_and_exact():
    """Interrupting one of several waiters on an event only removes
    that waiter's callback."""
    sim = Simulator()
    gate = sim.event()
    woke = []

    def waiter(sim, tag):
        try:
            value = yield gate
            woke.append((tag, value))
        except Interrupt:
            woke.append((tag, "interrupted"))

    procs = [sim.spawn(waiter(sim, i)) for i in range(3)]

    def driver(sim):
        yield sim.timeout(1.0)
        procs[1].interrupt()
        yield sim.timeout(1.0)
        gate.succeed("go")

    sim.spawn(driver(sim))
    sim.run()
    assert sorted(woke) == [(0, "go"), (1, "interrupted"), (2, "go")]


@pytest.mark.parametrize("batched", [True, False])
def test_adopted_generator_takes_over_the_interrupted_slot(batched):
    """A process driving a sub-generator inline hands it, suspended, to
    a new process when interrupted: the adopter resumes in the
    interrupted waiter's place among the event's waiters."""
    sim = Simulator(batched=batched)
    gate = sim.event()
    woke = []

    def job(tag):
        value = yield gate
        woke.append((tag, value, sim.now))

    def inline(sim):
        sub = job("adopted")
        event = sub.send(None)
        try:
            yield event
        except Interrupt:
            adopter = sim.spawn(sub, name="adopter", waiting_on=event)
            woke.append(("interrupted", adopter.name, sim.now))

    p = sim.spawn(inline(sim))
    sim.spawn(job("later"))

    def driver(sim):
        yield sim.timeout(1.0)
        p.interrupt()
        yield sim.timeout(1.0)
        gate.succeed("go")

    sim.spawn(driver(sim))
    sim.run()
    assert woke == [
        ("interrupted", "adopter", 1.0),
        ("adopted", "go", 2.0),
        ("later", "go", 2.0),
    ]


# -- conditions over already-processed children -------------------------------------


def test_all_of_already_processed_failed_child_is_defused():
    sim = Simulator()
    bad = sim.event()
    bad.fail(RuntimeError("boom")).defuse()
    sim.run()
    assert bad.processed and not bad.ok

    caught = []

    def waiter(sim):
        try:
            yield sim.all_of([sim.timeout(1.0), bad])
        except RuntimeError as exc:
            caught.append(str(exc))

    sim.spawn(waiter(sim))
    sim.run()  # must not re-raise the already-handled failure
    assert caught == ["boom"]


def test_any_of_already_processed_success_resolves_immediately():
    sim = Simulator()
    done = sim.event()
    done.succeed("early")
    sim.run()

    results = []

    def waiter(sim):
        values = yield sim.any_of([done, sim.timeout(100.0)])
        results.append((dict(values), sim.now))

    sim.spawn(waiter(sim))
    sim.run()
    assert results == [({done: "early"}, 0.0)]


def test_condition_defuses_late_child_failure_after_trigger():
    """A child failing after the condition already resolved must be
    marked handled, not escape ``run()``."""
    sim = Simulator()
    late_fail = sim.event()

    def failer(sim):
        yield sim.timeout(2.0)
        late_fail.fail(RuntimeError("late"))

    def waiter(sim):
        yield sim.any_of([sim.timeout(1.0), late_fail])

    sim.spawn(failer(sim))
    sim.spawn(waiter(sim))
    sim.run()  # raises if the late failure was not defused
    assert late_fail.processed and not late_fail.ok


def test_all_of_values_cover_every_child():
    sim = Simulator()
    results = []

    def waiter(sim):
        events = [sim.timeout(float(i + 1), value=i) for i in range(5)]
        values = yield sim.all_of(events)
        results.append([values[ev] for ev in events])

    sim.spawn(waiter(sim))
    sim.run()
    assert results == [[0, 1, 2, 3, 4]]


# -- free-lists ---------------------------------------------------------------------


@pytest.mark.skipif(not IS_CPYTHON, reason="free-list is refcount-gated")
def test_timeout_free_list_recycles_unreferenced_events():
    sim = Simulator()

    def proc(sim):
        for _ in range(5):
            yield sim.timeout(1.0)

    sim.spawn(proc(sim))
    sim.run()
    assert sim._timeout_pool  # finished timeouts were recycled
    pooled = sim._timeout_pool[-1]
    fresh = sim.timeout(0.5, value="reused")
    assert fresh is pooled  # the pool actually feeds new timeouts
    assert fresh.delay == 0.5


@pytest.mark.skipif(not IS_CPYTHON, reason="free-list is refcount-gated")
def test_recycled_timeout_delivers_new_value():
    sim = Simulator()
    got = []

    def proc(sim):
        first = yield sim.timeout(1.0, value="a")
        second = yield sim.timeout(1.0, value="b")
        got.append((first, second))

    sim.spawn(proc(sim))
    sim.run()
    assert got == [("a", "b")]
    assert sim.now == 2.0


@pytest.mark.skipif(not IS_CPYTHON, reason="free-list is refcount-gated")
def test_referenced_timeout_is_not_recycled():
    sim = Simulator()
    held = []

    def proc(sim):
        t = sim.timeout(1.0)
        held.append(t)  # an outside reference survives dispatch
        yield t

    sim.spawn(proc(sim))
    sim.run()
    assert held[0] not in sim._timeout_pool
    assert held[0].processed  # still a valid, processed event


def test_resume_records_are_pooled():
    sim = Simulator()

    def proc(sim):
        done = sim.event()
        done.succeed("x")
        yield sim.timeout(0.0)
        # Waiting on an already-processed event takes the direct-resume
        # path (no intermediate wakeup event).
        value = yield done
        return value

    p = sim.spawn(proc(sim))
    sim.run()
    assert p.value == "x"
    assert sim._resume_pool  # dispatched records returned to the pool


def test_timeout_pool_is_bounded():
    sim = Simulator()

    def proc(sim):
        for _ in range(Simulator._TIMEOUT_POOL_MAX + 200):
            yield sim.timeout(0.0)

    sim.spawn(proc(sim))
    sim.run()
    assert len(sim._timeout_pool) <= Simulator._TIMEOUT_POOL_MAX


@pytest.mark.skipif(not IS_CPYTHON, reason="free-list is refcount-gated")
def test_event_free_list_grows_under_burst_and_reuses():
    sim = Simulator()

    def burst(sim, n):
        # n plain events succeed-and-dispatch in one timestep with no
        # surviving reference (not even a loop variable: the suspended
        # generator frame would keep its last binding alive across the
        # dispatch and fail the refcount gate); every one should land
        # in the slab.
        yield sim.timeout(1.0)
        for _ in range(n):
            sim.event().succeed("x")
        yield sim.timeout(1.0)

    sim.spawn(burst(sim, 64))
    sim.run()
    assert len(sim._event_pool) == 64  # grown on demand, not preallocated
    profile = sim.kernel_profile()
    assert profile["slab"]["event"]["new"] == 64
    # The next burst is served entirely from the free-list.
    sim.spawn(burst(sim, 64))
    sim.run()
    profile = sim.kernel_profile()
    assert profile["slab"]["event"]["new"] == 64
    assert profile["slab"]["event"]["reused"] == 64


@pytest.mark.skipif(not IS_CPYTHON, reason="free-list is refcount-gated")
def test_event_pool_is_bounded():
    sim = Simulator()

    def burst(sim):
        yield sim.timeout(1.0)
        for _ in range(Simulator._EVENT_POOL_MAX + 100):
            sim.event().succeed("x")
        yield sim.timeout(1.0)

    sim.spawn(burst(sim))
    sim.run()
    assert len(sim._event_pool) <= Simulator._EVENT_POOL_MAX


@pytest.mark.skipif(not IS_CPYTHON, reason="free-list is refcount-gated")
def test_event_reused_after_waiter_cancelled():
    sim = Simulator()
    from repro.errors import Interrupt

    log = []

    def waiter(sim, box):
        # The trigger is popped straight into the yield so this frame
        # never binds it: the Interrupt's traceback pins the frame (a
        # gc cycle the refcount gate cannot see), and a `trigger` local
        # here would pin the event with it.
        try:
            yield box.pop()
            log.append("woke")
        except Interrupt:
            log.append("cancelled")

    def driver(sim):
        trigger = sim.event()
        target = sim.spawn(waiter(sim, [trigger]))
        yield sim.timeout(1.0)
        target.interrupt("cancel")
        yield sim.timeout(1.0)
        trigger.succeed("late")
        # The generator ends here, so by the time the event dispatches
        # (with its waiter's callback slot tombstoned by the interrupt)
        # nothing outside the queue references it.

    sim.spawn(driver(sim))
    sim.run()
    assert log == ["cancelled"]
    assert sim._event_pool  # the cancelled-waiter event was recycled
    pooled = sim._event_pool[-1]
    fresh = sim.event()
    assert fresh is pooled  # reuse-after-cancel feeds the next event
    assert not fresh.triggered


@pytest.mark.skipif(not IS_CPYTHON, reason="free-list is refcount-gated")
def test_referenced_plain_event_is_not_recycled():
    sim = Simulator()
    held = []

    def proc(sim):
        event = sim.event()
        event.succeed("keep")
        held.append(event)
        yield sim.timeout(1.0)

    sim.spawn(proc(sim))
    sim.run()
    assert held[0].processed
    assert held[0] not in sim._event_pool
    assert held[0].value == "keep"
