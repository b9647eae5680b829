"""Host-speed calibration for replay timings.

On a shared host the same replay's speed wanders by up to 1.7x over
seconds to minutes with other tenants' load.  :func:`measure` times a
fixed pure-Python discrete-event loop, independent of the program under
test, and :func:`scale` turns a replay's rate into its rate at the
reference host speed.  A change to ``src/repro`` cannot move the
calibration, so the scaled rate still moves one for one with the
simulator's own speed.
"""

from __future__ import annotations

import gc
import heapq
from time import perf_counter

#: Calibration time at which a rate is reported unscaled: about the
#: loop's time on an idle vCPU of a 2.1 GHz Xeon container.
REFERENCE_S = 0.1
#: How much a replay slows with the host, relative to this loop, on a
#: log scale.  Over ten minutes of paired samples on that container the
#: replay's rate went as calibration_s ** -0.75: scaling by 0.75 cut the
#: spread of 30 s medians from 31-33% to 5.5% in a period of mixed host
#: load (1.0 over-corrects, to 12-13%).
SENSITIVITY = 0.75
#: The same for set-up (fresh interpreter, imports, plan and boot),
#: which tracks the loop less closely: over 98 paired samples in a
#: period when the loop's time ranged 0.06-0.19 s, set-up went as
#: calibration_s ** 0.51, and scaling by 0.5 cut the spread of
#: median-of-7 set-up times from 19% to 15% (1.0 left 20%).
SETUP_SENSITIVITY = 0.5


class _Job:
    __slots__ = ("key", "left", "log")

    def __init__(self, key: int, left: int):
        self.key = key
        self.left = left
        self.log: list = []


def _worker(job: _Job, table: dict):
    while job.left:
        job.left -= 1
        job.log.append((job.key, job.left))
        entry = table.get(job.key)
        if entry is None:
            entry = table[job.key] = {"hits": 0, "keys": []}
        entry["hits"] += 1
        entry["keys"].append(job.left)
        yield job.left * 0.001


def _event_loop(jobs: int = 6000, steps: int = 8) -> int:
    """Generators on a time-ordered heap, like the simulation kernel."""
    table: dict = {}
    heap: list = []
    seq = 0
    for index in range(jobs):
        seq += 1
        worker = _worker(_Job(index % 997, steps), table)
        heapq.heappush(heap, (index * 0.0001, seq, worker))
    while heap:
        now, _, worker = heapq.heappop(heap)
        try:
            delay = next(worker)
        except StopIteration:
            continue
        seq += 1
        heapq.heappush(heap, (now + delay, seq, worker))
    return len(table)


def measure() -> float:
    """Seconds the calibration loop takes now."""
    gc.collect()
    start = perf_counter()
    _event_loop()
    return perf_counter() - start


def scale(rate: float, calibration_s: float) -> float:
    """``rate`` measured while the loop took ``calibration_s``, scaled to
    the reference host speed."""
    return rate * (calibration_s / REFERENCE_S) ** SENSITIVITY



def scale_setup(seconds: float, calibration_s: float) -> float:
    """A set-up time measured while the loop took ``calibration_s``,
    scaled to the reference host speed."""
    return seconds / (calibration_s / REFERENCE_S) ** SETUP_SENSITIVITY
