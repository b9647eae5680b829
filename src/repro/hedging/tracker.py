"""Per-function end-to-end latency tracking for the hedge policy.

The tracker is fed every successful invocation — the same way the
warm-path :class:`~repro.warmpath.predictor.ArrivalPredictor` is fed
every admission — and maintains a per-function latency histogram whose
upper percentile is the hedge trigger: a request still in flight past
its function's observed p95 (by default) is a straggler worth cloning.

Everything is pure arithmetic over observed durations: no randomness,
so a seeded run that feeds the same completions produces the same
triggers, request for request.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.metrics import Histogram

#: Latency histogram bucket upper bounds (seconds), roughly logarithmic
#: from 1ms to 30s; latencies beyond the last bound land in an overflow
#: bucket.  Finer than the predictor's gap buckets at the low end
#: because warm-path latencies sit in single-digit milliseconds.
LATENCY_BUCKETS = (
    0.001, 0.0025, 0.005, 0.0075, 0.01, 0.025, 0.05, 0.075, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)


class LatencyTracker:
    """Per-function latency histogram with nearest-rank percentiles."""

    def __init__(self):
        self._stats: dict[str, Histogram] = {}

    def observe(self, func_name: str, latency_s: float) -> None:
        """Record one completed invocation of ``func_name``."""
        if latency_s < 0.0:
            return
        stats = self._stats.get(func_name)
        if stats is None:
            stats = self._stats[func_name] = Histogram(LATENCY_BUCKETS)
        stats.observe(latency_s)

    def functions(self) -> list[str]:
        """Every function the tracker has seen, in first-seen order."""
        return list(self._stats)

    def count(self, func_name: str) -> int:
        """Completions observed for one function (0 if never seen)."""
        stats = self._stats.get(func_name)
        return 0 if stats is None else stats.count

    def latency_percentile(self, func_name: str, q: float) -> Optional[float]:
        """Nearest-rank ``q``-th percentile latency (seconds).

        Returns the upper bound of the bucket containing the rank (the
        conservative choice for a hedge trigger: firing *later* than
        the true percentile wastes fewer clones); None until at least
        one completion has been observed.  Latencies beyond the largest
        bucket report that largest bound.
        """
        stats = self._stats.get(func_name)
        return None if stats is None else stats.rank_bound(q)
