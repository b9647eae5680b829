"""Single-flight cold-start batches (the coalescing bookkeeping).

When several requests for the same function miss the warm pool in the
same window, only the first (the **leader**) runs a real cold start;
the rest (**followers**) park on the leader's :class:`CoalescedBatch`.
When the leader's instance is up, the batch fans out: a capped number
of extra instances are forked off the same template (the vectorized
part — by then the template page cache is hot and the per-fork work is
the only cost), and each finished instance is handed FIFO to a parked
follower.  Followers the batch cannot serve are woken empty-handed and
retry the warm pool — by then earlier requests are completing and
releasing instances, which is exactly how a storm of N misses ends up
with far fewer than N sandboxes.

This module is pure bookkeeping over sim events; the engine drives the
actual forking through the invoker so every instance goes through the
normal admission / teardown paths.
"""

from __future__ import annotations

from typing import Optional


class CoalescedBatch:
    """One in-flight single-flight cold start for a ``(function, PU)``."""

    def __init__(self, key: tuple[str, int]):
        #: (function name, pu_id) this batch serves.
        self.key = key
        #: Follower wait events, FIFO; each is succeeded with a
        #: FunctionInstance (served) or None (batch closed — retry).
        self.waiters: list = []
        #: True while new followers may join.
        self.open = True
        #: True once the leader's own cold start completed.
        self.leader_ready = False
        #: Extra instances requested so far (leader excluded); bounded
        #: by the engine's ``MAX_BATCH - 1``.
        self.requested = 0
        #: Extra-instance fork processes still in flight.
        self.spawning = 0
        #: Live instances attributable to this batch (leader + extras,
        #: minus destroys).  While > 0, completing requests will keep
        #: recycling instances to parked followers, so the batch stays
        #: open; it closes once nothing can serve its waiters anymore.
        self.live = 0
        #: Followers handed an instance by this batch.
        self.served = 0
        #: Extra instances forked beyond the leader's.
        self.extra_spawned = 0

    def join(self, sim):
        """Park one follower; returns the event it must yield on."""
        event = sim.event()
        self.waiters.append(event)
        return event

    def next_waiter(self):
        """Pop the longest-parked follower still waiting (or None)."""
        if self.waiters:
            return self.waiters.pop(0)
        return None


class ColdStartCoalescer:
    """The open-batch table: one batch per missing ``(function, PU)``."""

    def __init__(self):
        self._batches: dict[tuple[str, int], CoalescedBatch] = {}
        #: Lifetime counters (tests and reports).
        self.batches_opened = 0
        self.followers_served = 0
        self.followers_requeued = 0

    def lookup(self, func_name: str, pu_ids) -> Optional[CoalescedBatch]:
        """The open batch for ``func_name`` on any of ``pu_ids``."""
        for pu_id in pu_ids:
            batch = self._batches.get((func_name, pu_id))
            if batch is not None and batch.open:
                return batch
        return None

    def peek(self, func_name: str, pu_id: int) -> Optional[CoalescedBatch]:
        """The batch (open or draining) keyed exactly ``(func, pu)``."""
        return self._batches.get((func_name, pu_id))

    def begin(self, func_name: str, pu_id: int) -> CoalescedBatch:
        """Open a new batch led by the calling request."""
        key = (func_name, pu_id)
        batch = CoalescedBatch(key)
        self._batches[key] = batch
        self.batches_opened += 1
        return batch

    def close(self, batch: CoalescedBatch) -> None:
        """Close a batch: stop new joins and wake leftover followers.

        Followers woken here got no instance (event value None); they
        loop back to the warm pool / a fresh batch.
        """
        batch.open = False
        if self._batches.get(batch.key) is batch:
            del self._batches[batch.key]
        while batch.waiters:
            event = batch.waiters.pop(0)
            self.followers_requeued += 1
            if not event.triggered:
                event.succeed(None)

    def deliver(self, batch: CoalescedBatch, instance) -> bool:
        """Hand ``instance`` to the longest-parked follower.

        Returns False when nobody is waiting (the caller releases the
        instance into the warm pool instead).
        """
        event = batch.next_waiter()
        if event is None:
            return False
        batch.served += 1
        self.followers_served += 1
        event.succeed(instance)
        return True
