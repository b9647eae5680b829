"""Deterministic data partitioning for fan-out jobs.

A fan-out job starts from a concrete dataset (a sequence of items) and
splits it into a fixed *count* of :class:`Partition` records before
dispatch.  The split is a pure function of the input sequence, so the
same dataset always yields the same partitions in the same order: the
property the golden fan-out trace pins byte for byte.

Datasets themselves come from :func:`synthetic_dataset`, which draws
from a :class:`~repro.sim.rng.SeededRng` fork (never the global
``random`` state), so a (seed, size) pair names one dataset forever.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.errors import WorkloadError
from repro.sim.rng import SeededRng

#: Simulated payload sizing: a partition's request payload is a fixed
#: envelope plus this many bytes per item.
PAYLOAD_BASE_BYTES = 256
PAYLOAD_BYTES_PER_ITEM = 64


def synthetic_dataset(seed: int, size: int) -> tuple[int, ...]:
    """A deterministic dataset of ``size`` small ints for ``seed``."""
    if size < 0:
        raise WorkloadError(f"dataset size must be >= 0: {size}")
    rng = SeededRng(seed).fork("fanout-dataset")
    return tuple(rng.randint(0, 1_000) for _ in range(size))


@dataclass(frozen=True)
class Partition:
    """One shard of a fan-out job's input data."""

    index: int
    items: tuple
    payload_bytes: int

    def __len__(self) -> int:
        return len(self.items)


class Partitioner:
    """Split a dataset over exactly ``chunks`` partitions, as evenly as
    possible (the first ``len % chunks`` partitions get one extra
    item)."""

    def __init__(self, chunks: int):
        if chunks < 1:
            raise WorkloadError(f"partition count must be >= 1: {chunks}")
        self.chunks = chunks

    def partition(self, items: Sequence) -> tuple[Partition, ...]:
        """Split ``items`` into partitions (deterministic, ordered)."""
        items = tuple(items)
        if not items:
            return ()
        chunks = min(self.chunks, len(items))
        base, extra = divmod(len(items), chunks)
        bounds = []
        lo = 0
        for index in range(chunks):
            hi = lo + base + (1 if index < extra else 0)
            bounds.append((lo, hi))
            lo = hi
        return tuple(
            Partition(
                index=index,
                items=items[lo:hi],
                payload_bytes=(
                    PAYLOAD_BASE_BYTES + PAYLOAD_BYTES_PER_ITEM * (hi - lo)
                ),
            )
            for index, (lo, hi) in enumerate(bounds)
        )
