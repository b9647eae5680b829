"""Unit tests: data partitioning, future state machine, ``wait``."""

import pytest

from repro.errors import ReproError, WorkloadError
from repro.futures import (
    ALL_COMPLETED,
    ANY_COMPLETED,
    N_COMPLETED,
    DONE,
    ERROR,
    PENDING,
    RUNNING,
    FanoutFuture,
    Partitioner,
    synthetic_dataset,
    wait,
)
from repro.futures.future import OUTCOME_DONE, OUTCOME_ERROR
from repro.futures.partitioner import (
    PAYLOAD_BASE_BYTES,
    PAYLOAD_BYTES_PER_ITEM,
)
from repro.sim import Simulator


# -- synthetic datasets ------------------------------------------------------------


def test_synthetic_dataset_is_seed_deterministic():
    assert synthetic_dataset(42, 100) == synthetic_dataset(42, 100)
    assert synthetic_dataset(42, 100) != synthetic_dataset(43, 100)
    items = synthetic_dataset(7, 64)
    assert len(items) == 64
    assert all(0 <= item <= 1_000 for item in items)


# -- partitioner -------------------------------------------------------------------


def test_chunk_count_partitioning_balances_within_one():
    items = tuple(range(10))
    parts = Partitioner(3).partition(items)
    assert [p.items for p in parts] == [
        (0, 1, 2, 3), (4, 5, 6), (7, 8, 9),
    ]
    assert [p.index for p in parts] == [0, 1, 2]
    assert [len(p) for p in parts] == [4, 3, 3]
    # More chunks than items degrades to one item per partition.
    parts = Partitioner(99).partition((1, 2, 3))
    assert [p.items for p in parts] == [(1,), (2,), (3,)]


def test_partition_payload_scales_with_items():
    parts = Partitioner(2).partition(tuple(range(6)) + (6, 7, 8, 9, 10))
    assert parts[0].payload_bytes == (
        PAYLOAD_BASE_BYTES + 6 * PAYLOAD_BYTES_PER_ITEM
    )
    assert parts[1].payload_bytes == (
        PAYLOAD_BASE_BYTES + 5 * PAYLOAD_BYTES_PER_ITEM
    )


def test_partitioner_validates_strategy():
    with pytest.raises(WorkloadError):
        Partitioner(0)
    with pytest.raises(WorkloadError):
        Partitioner(-1)


# -- future state machine ----------------------------------------------------------


def _future(seq=0):
    part = Partitioner(1).partition((1, 2))[0]
    return FanoutFuture(seq, part, "fn")


def test_future_lifecycle_and_result():
    f = _future()
    assert f.state == PENDING and not f.done()
    with pytest.raises(ReproError):
        f.result()
    assert f.result(throw_except=False) is None
    f._mark_running(1.0)
    assert f.state == RUNNING and f.running()
    f._finish([1, 4], 2.0)
    assert f.state == DONE and f.done()
    assert f.outcome == OUTCOME_DONE
    assert f.result() == [1, 4]
    assert f.finished_s == 2.0


def test_future_error_and_terminal_idempotence():
    f = _future()
    f._mark_running(0.0)
    boom = ReproError("boom")
    f._fail(boom, OUTCOME_ERROR, 1.0)
    assert f.state == ERROR and f.done()
    assert f.error is boom
    with pytest.raises(ReproError):
        f.result()
    assert f.result(throw_except=False) is None
    # A second terminal transition is a no-op: exactly one fate.
    f._finish([9], 2.0)
    assert f.state == ERROR and f.finished_s == 1.0


# -- wait --------------------------------------------------------------------------


def _drive(sim, gen):
    proc = sim.spawn(gen)
    sim.run()
    return proc.value


def _finisher(sim, future, delay, value=1):
    def gen():
        yield sim.timeout(delay)
        future._finish(value, sim.now)
    return gen()


def test_wait_all_completed_blocks_for_everyone():
    sim = Simulator()
    fs = [_future(i) for i in range(3)]
    for i, f in enumerate(fs):
        f._mark_running(0.0)
        sim.spawn(_finisher(sim, f, 1.0 + i))
    done, not_done = _drive(sim, wait(sim, fs))
    assert [f.seq for f in done] == [0, 1, 2]
    assert not_done == []
    assert sim.now >= 3.0


def test_wait_any_completed_returns_on_first():
    sim = Simulator()
    fs = [_future(i) for i in range(3)]
    for i, f in enumerate(fs):
        f._mark_running(0.0)
        sim.spawn(_finisher(sim, f, 1.0 + i))

    def gen():
        result = yield from wait(sim, fs, ANY_COMPLETED)
        assert sim.now == pytest.approx(1.0)
        return result

    done, not_done = _drive(sim, gen())
    assert [f.seq for f in done] == [0]
    assert [f.seq for f in not_done] == [1, 2]


def test_wait_n_completed_requires_and_honors_count():
    sim = Simulator()
    fs = [_future(i) for i in range(4)]
    for i, f in enumerate(fs):
        f._mark_running(0.0)
        sim.spawn(_finisher(sim, f, 1.0 + i))

    def bad():
        yield from wait(sim, fs, N_COMPLETED)

    with pytest.raises(ReproError):
        _drive(sim, bad())

    sim2 = Simulator()
    fs2 = [_future(i) for i in range(4)]
    for i, f in enumerate(fs2):
        f._mark_running(0.0)
        sim2.spawn(_finisher(sim2, f, 1.0 + i))
    done, not_done = _drive(
        sim2, wait(sim2, fs2, N_COMPLETED, count=2)
    )
    assert len(done) == 2 and len(not_done) == 2
    # A count beyond the set degrades to ALL_COMPLETED.
    done, not_done = _drive(
        sim2, wait(sim2, fs2, N_COMPLETED, count=99)
    )
    assert len(done) == 4 and not_done == []


def test_wait_timeout_returns_early_with_partial_done():
    sim = Simulator()
    fs = [_future(i) for i in range(2)]
    fs[0]._mark_running(0.0)
    fs[1]._mark_running(0.0)
    sim.spawn(_finisher(sim, fs[0], 1.0))
    sim.spawn(_finisher(sim, fs[1], 50.0))

    def gen():
        result = yield from wait(sim, fs, ALL_COMPLETED, timeout=5.0)
        assert sim.now == pytest.approx(5.0)
        return result

    done, not_done = _drive(sim, gen())
    assert [f.seq for f in done] == [0]
    assert [f.seq for f in not_done] == [1]


def test_wait_on_already_done_futures_returns_immediately():
    sim = Simulator()
    fs = [_future(i) for i in range(2)]
    for f in fs:
        f._mark_running(0.0)
        f._finish([0], 0.0)
    done, not_done = _drive(sim, wait(sim, fs, ANY_COMPLETED))
    assert len(done) == 2 and not_done == []
    assert sim.now == 0.0
    # Empty input: trivially complete.
    done, not_done = _drive(sim, wait(sim, [], ALL_COMPLETED))
    assert done == [] and not_done == []


def test_wait_rejects_unknown_return_when():
    sim = Simulator()

    def gen():
        yield from wait(sim, [_future()], "SOME_COMPLETED")

    with pytest.raises(ReproError):
        _drive(sim, gen())


def test_wait_waiters_are_disarmed_after_wake():
    """A timeout wake must not leave stale waiter events registered."""
    sim = Simulator()
    f = _future()
    f._mark_running(0.0)
    sim.spawn(_finisher(sim, f, 10.0))

    def gen():
        yield from wait(sim, [f], ALL_COMPLETED, timeout=1.0)
        assert f._waiters == []
        yield from wait(sim, [f], ALL_COMPLETED)
        assert f._waiters == []

    _drive(sim, gen())
