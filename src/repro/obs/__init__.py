"""``repro.obs``: the unified observability layer.

Metrics (:mod:`repro.obs.metrics`) + per-invocation lifecycle spans
(:mod:`repro.obs.spans`), tied together by the
:class:`~repro.obs.observability.Observability` hub that
``core.molecule`` wires into every runtime layer.  See
``docs/observability.md`` for the metric catalog and label
conventions.
"""

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricSpec,
    MetricsRegistry,
    ObsError,
)
from repro.obs.observability import Observability
from repro.obs.spans import (
    LIFECYCLE_PHASES,
    NULL_TRACE,
    RequestTrace,
    START_COLD,
    START_FORK,
    START_WARM,
)

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "LIFECYCLE_PHASES",
    "MetricFamily",
    "MetricSpec",
    "MetricsRegistry",
    "NULL_TRACE",
    "Observability",
    "ObsError",
    "RequestTrace",
    "START_COLD",
    "START_FORK",
    "START_WARM",
]
