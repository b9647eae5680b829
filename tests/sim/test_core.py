"""Unit tests for the event kernel."""

import gc

import pytest

from repro.errors import Interrupt, SimulationError
from repro.sim import Simulator
from repro.sim.core import Process


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_timeout_advances_clock():
    sim = Simulator()
    log = []

    def proc(sim):
        yield sim.timeout(2.5)
        log.append(sim.now)

    sim.spawn(proc(sim))
    sim.run()
    assert log == [2.5]


def test_timeout_value_is_delivered():
    sim = Simulator()
    result = []

    def proc(sim):
        value = yield sim.timeout(1.0, value="payload")
        result.append(value)

    sim.spawn(proc(sim))
    sim.run()
    assert result == ["payload"]


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-1.0)


def test_process_return_value_becomes_event_value():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(1.0)
        return 99

    p = sim.spawn(proc(sim))
    sim.run()
    assert p.processed and p.ok
    assert p.value == 99


def test_processes_interleave_in_time_order():
    sim = Simulator()
    log = []

    def proc(sim, name, delay):
        yield sim.timeout(delay)
        log.append(name)

    sim.spawn(proc(sim, "slow", 2.0))
    sim.spawn(proc(sim, "fast", 1.0))
    sim.run()
    assert log == ["fast", "slow"]


def test_same_time_events_fifo_order():
    sim = Simulator()
    log = []

    def proc(sim, name):
        yield sim.timeout(1.0)
        log.append(name)

    for name in ("a", "b", "c"):
        sim.spawn(proc(sim, name))
    sim.run()
    assert log == ["a", "b", "c"]


def test_event_succeed_wakes_waiter():
    sim = Simulator()
    gate = sim.event()
    log = []

    def waiter(sim):
        value = yield gate
        log.append((sim.now, value))

    def opener(sim):
        yield sim.timeout(3.0)
        gate.succeed("open")

    sim.spawn(waiter(sim))
    sim.spawn(opener(sim))
    sim.run()
    assert log == [(3.0, "open")]


def test_event_double_trigger_rejected():
    sim = Simulator()
    event = sim.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)


def test_event_value_before_trigger_rejected():
    sim = Simulator()
    event = sim.event()
    with pytest.raises(SimulationError):
        _ = event.value


def test_failed_event_throws_into_process():
    sim = Simulator()
    caught = []

    def proc(sim):
        gate = sim.event()
        gate.fail(ValueError("boom"))
        try:
            yield gate
        except ValueError as exc:
            caught.append(str(exc))

    sim.spawn(proc(sim))
    sim.run()
    assert caught == ["boom"]


def test_unhandled_failure_escapes_run():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(1.0)
        raise RuntimeError("unhandled")

    sim.spawn(proc(sim))
    with pytest.raises(RuntimeError, match="unhandled"):
        sim.run()


def test_waiting_on_process_event():
    sim = Simulator()
    log = []

    def child(sim):
        yield sim.timeout(2.0)
        return "done"

    def parent(sim):
        result = yield sim.spawn(child(sim))
        log.append((sim.now, result))

    sim.spawn(parent(sim))
    sim.run()
    assert log == [(2.0, "done")]


def test_waiting_on_already_processed_event():
    sim = Simulator()
    log = []

    def child(sim):
        yield sim.timeout(1.0)
        return "early"

    def parent(sim, child_proc):
        yield sim.timeout(5.0)
        value = yield child_proc
        log.append((sim.now, value))

    child_proc = sim.spawn(child(sim))
    sim.spawn(parent(sim, child_proc))
    sim.run()
    assert log == [(5.0, "early")]


def test_yielding_non_event_raises_inside_process():
    sim = Simulator()
    caught = []

    def proc(sim):
        try:
            yield 42
        except SimulationError as exc:
            caught.append(str(exc))

    sim.spawn(proc(sim))
    sim.run()
    assert len(caught) == 1 and "expected an Event" in caught[0]


def test_all_of_collects_values():
    sim = Simulator()
    log = []

    def proc(sim):
        t1 = sim.timeout(1.0, value="a")
        t2 = sim.timeout(2.0, value="b")
        values = yield sim.all_of([t1, t2])
        log.append((sim.now, sorted(values.values())))

    sim.spawn(proc(sim))
    sim.run()
    assert log == [(2.0, ["a", "b"])]


def test_any_of_triggers_on_first():
    sim = Simulator()
    log = []

    def proc(sim):
        t1 = sim.timeout(1.0, value="fast")
        t2 = sim.timeout(9.0, value="slow")
        values = yield sim.any_of([t1, t2])
        log.append((sim.now, list(values.values())))

    sim.spawn(proc(sim))
    sim.run()
    assert log == [(1.0, ["fast"])]


def test_all_of_empty_succeeds_immediately():
    sim = Simulator()
    log = []

    def proc(sim):
        values = yield sim.all_of([])
        log.append(values)

    sim.spawn(proc(sim))
    sim.run()
    assert log == [{}]


def test_interrupt_wakes_process_with_cause():
    sim = Simulator()
    log = []

    def sleeper(sim):
        try:
            yield sim.timeout(100.0)
        except Interrupt as intr:
            log.append((sim.now, intr.cause))

    def interrupter(sim, victim):
        yield sim.timeout(1.0)
        victim.interrupt("stop it")

    victim = sim.spawn(sleeper(sim))
    sim.spawn(interrupter(sim, victim))
    sim.run()
    assert log == [(1.0, "stop it")]


def test_interrupt_finished_process_rejected():
    sim = Simulator()

    def quick(sim):
        yield sim.timeout(0.1)

    p = sim.spawn(quick(sim))
    sim.run()
    with pytest.raises(SimulationError):
        p.interrupt()


def test_run_until_stops_clock():
    sim = Simulator()
    log = []

    def proc(sim):
        while True:
            yield sim.timeout(1.0)
            log.append(sim.now)

    sim.spawn(proc(sim))
    sim.run(until=3.5)
    assert log == [1.0, 2.0, 3.0]
    assert sim.now == 3.5


def test_run_until_past_time_rejected():
    sim = Simulator()
    sim.run(until=5.0)
    with pytest.raises(SimulationError):
        sim.run(until=1.0)


def test_peek_reports_next_event_time():
    sim = Simulator()
    sim.timeout(4.0)
    assert sim.peek() == 4.0
    sim.run()
    assert sim.peek() == float("inf")


def test_is_alive_tracks_lifecycle():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(1.0)

    p = sim.spawn(proc(sim))
    assert p.is_alive
    sim.run()
    assert not p.is_alive


def test_active_process_names_the_running_process():
    sim = Simulator()
    seen = []

    def proc(sim):
        seen.append(sim.active_process)
        yield sim.timeout(1.0)
        seen.append(sim.active_process)

    p = sim.spawn(proc(sim))
    assert sim.active_process is None
    sim.run()
    assert seen == [p, p]
    assert sim.active_process is None


def test_finished_processes_leave_no_cycles_for_the_collector():
    """Spawned, finished and dropped processes (ok, interrupted and
    waited-on alike) are freed by reference counting: with
    ``DEBUG_SAVEALL`` nothing the collector finds is a Process."""
    sim = Simulator()

    def child(sim):
        yield sim.timeout(1.0)
        return "done"

    def sleeper(sim):
        try:
            yield sim.timeout(100.0)
        except Interrupt:
            return "woken"

    def parent(sim):
        value = yield sim.spawn(child(sim))
        victim = sim.spawn(sleeper(sim))
        yield sim.timeout(0.5)
        victim.interrupt()
        woken = yield victim
        return value, woken

    gc.collect()
    gc.garbage.clear()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for _ in range(10):
            sim.spawn(parent(sim))
        sim.run()
        gc.collect()
        assert not [o for o in gc.garbage if isinstance(o, Process)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
