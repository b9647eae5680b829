"""Per-function arrival prediction for the warm-path engine.

The predictor is fed every gateway admission and maintains, per
function, a hybrid of the two signals the Serverless-in-the-Wild
keep-alive policy uses:

* an **EWMA arrival rate** — reacts quickly to bursts and decays when
  a function goes quiet, driving *how many* instances to pre-warm;
* an **inter-arrival histogram** — the empirical idle-gap
  distribution, whose upper percentile drives *how long* to keep idle
  instances alive (the per-function adaptive TTL).

Everything is pure arithmetic over observed timestamps: no randomness,
so a seeded run that feeds the same admissions produces the same
predictions, tick for tick.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.obs.metrics import Histogram

#: Inter-arrival histogram bucket upper bounds (seconds), roughly
#: logarithmic from 1ms to 2 minutes; gaps beyond the last bound land
#: in an overflow bucket.
GAP_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25,
    0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0,
)


@dataclass
class FunctionStats:
    """Arrival statistics of one function."""

    #: Total admissions observed.
    count: int = 0
    #: Sim time of the most recent admission.
    last_arrival_s: float = 0.0
    #: EWMA of the instantaneous arrival rate (1 / inter-arrival gap).
    ewma_rate: float = 0.0
    #: Inter-arrival gap histogram over GAP_BUCKETS.
    gaps: Histogram = field(default_factory=lambda: Histogram(GAP_BUCKETS))


class ArrivalPredictor:
    """EWMA rate + inter-arrival histogram per function."""

    def __init__(self, alpha: float = 0.3):
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1]: {alpha}")
        self.alpha = alpha
        self._stats: dict[str, FunctionStats] = {}

    def observe(self, func_name: str, now: float) -> None:
        """Record one admission of ``func_name`` at sim time ``now``."""
        stats = self._stats.get(func_name)
        if stats is None:
            stats = self._stats[func_name] = FunctionStats()
        if stats.count:
            gap = now - stats.last_arrival_s
            if gap > 0.0:
                stats.gaps.observe(gap)
                instant = 1.0 / gap
                if stats.ewma_rate:
                    stats.ewma_rate += self.alpha * (instant - stats.ewma_rate)
                else:
                    stats.ewma_rate = instant
            # gap == 0 (several admissions in one timestep): the EWMA
            # already reflects a burst; skip the degenerate 1/0 sample.
        stats.count += 1
        stats.last_arrival_s = now

    def functions(self) -> list[str]:
        """Every function the predictor has seen, in first-seen order."""
        return list(self._stats)

    def stats(self, func_name: str) -> Optional[FunctionStats]:
        """Raw statistics for one function (None if never seen)."""
        return self._stats.get(func_name)

    def predicted_rps(self, func_name: str, now: float) -> float:
        """Predicted near-term arrival rate of ``func_name``.

        The EWMA rate, decayed once the function has been idle longer
        than two expected inter-arrival gaps — so a function that went
        quiet stops attracting pre-warm capacity within a couple of
        its own gap lengths, without any tunable decay clock.
        """
        stats = self._stats.get(func_name)
        if stats is None or stats.ewma_rate <= 0.0:
            return 0.0
        idle = now - stats.last_arrival_s
        if idle <= 0.0:
            return stats.ewma_rate
        return min(stats.ewma_rate, 2.0 / idle)

    def gap_percentile(self, func_name: str, q: float) -> Optional[float]:
        """Nearest-rank ``q``-th percentile inter-arrival gap (seconds).

        Returns the upper bound of the bucket containing the rank (the
        conservative choice for a keep-alive TTL); None until at least
        one gap has been observed.  Gaps beyond the largest bucket
        report that largest bound — the TTL clamp handles the tail.
        """
        stats = self._stats.get(func_name)
        return None if stats is None else stats.gaps.rank_bound(q)
