"""Prometheus-style metrics primitives over simulated time.

A :class:`MetricsRegistry` holds named metric *families*; each family
carries a fixed label schema and materialises one child series per
distinct label-value tuple (``repro_requests_total{function="f",...}``).
Three instrument kinds are supported:

* :class:`Counter` — monotonically increasing totals;
* :class:`Gauge` — set/inc/dec point-in-time values;
* :class:`Histogram` — fixed bucket boundaries plus p50/p95/p99
  quantile estimation by linear interpolation within buckets.

Families are declared as :class:`MetricSpec` rows in a table owned by
the module that updates them, and :meth:`MetricsRegistry.register_table`
registers the rows (get-or-register: a repeat returns the existing
family).  Call sites then update one series through
:meth:`MetricFamily.child`, whose memoized fast path is one dict lookup.

The registry renders both the Prometheus text exposition format
(:meth:`MetricsRegistry.expose`) and a JSON-able dict
(:meth:`MetricsRegistry.to_dict`) that ``analysis.report`` and the
benchmark scripts consume.  Everything is deterministic: families
render in registration order, series in sorted label order.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left
from functools import partial
from types import SimpleNamespace
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from repro.errors import ReproError


class ObsError(ReproError):
    """Invalid metric definition or usage."""


_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default latency buckets in seconds: 100us .. 100s, roughly
#: logarithmic — wide enough for both XPUcall round trips (~20-100us)
#: and FPGA reprogramming (~4s).
DEFAULT_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0,
)


def _format_value(value: float) -> str:
    """Prometheus-style number rendering (integers without a dot)."""
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _escape_label(value: str) -> str:
    return (
        str(value)
        .replace("\\", r"\\")
        .replace('"', r"\"")
        .replace("\n", r"\n")
    )


def _render_labels(labelnames: Sequence[str], labelvalues: Sequence[str],
                   extra: Sequence[tuple[str, str]] = ()) -> str:
    pairs = [
        f'{name}="{_escape_label(value)}"'
        for name, value in zip(labelnames, labelvalues)
    ]
    pairs.extend(f'{name}="{_escape_label(value)}"' for name, value in extra)
    return "{" + ",".join(pairs) + "}" if pairs else ""


class Counter:
    """A monotonically increasing total."""

    kind = "counter"

    def __init__(self):
        self._value = 0.0

    @property
    def value(self) -> float:
        """Current total."""
        return self._value

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the total."""
        if amount < 0:
            raise ObsError(f"counter increment must be >= 0: {amount}")
        self._value += amount

    def _to_dict(self) -> dict:
        return {"value": self._value}

    def _expose(self, name: str, labels: str) -> list[str]:
        return [f"{name}{labels} {_format_value(self._value)}"]


class Gauge:
    """A value that can go up and down."""

    kind = "gauge"

    def __init__(self):
        self._value = 0.0

    @property
    def value(self) -> float:
        """Current value."""
        return self._value

    def set(self, value: float) -> None:
        """Replace the value."""
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (may be negative)."""
        self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Subtract ``amount``."""
        self._value -= amount

    def _to_dict(self) -> dict:
        return {"value": self._value}

    def _expose(self, name: str, labels: str) -> list[str]:
        return [f"{name}{labels} {_format_value(self._value)}"]


class Histogram:
    """Observations bucketed at fixed boundaries.

    Quantiles are estimated Prometheus-style: find the bucket where the
    cumulative count crosses ``q * count`` and interpolate linearly
    between its lower and upper bound.  Observations beyond the last
    finite boundary land in the implicit ``+Inf`` bucket, whose
    estimate is clamped to the last finite boundary.  A histogram with
    zero observations has no quantiles (``nan``).
    """

    kind = "histogram"

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS):
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ObsError("histogram needs at least one bucket boundary")
        if list(bounds) != sorted(set(bounds)):
            raise ObsError(f"bucket boundaries must be strictly increasing: {bounds}")
        if bounds[-1] == math.inf:
            bounds = bounds[:-1]
        self.bounds = bounds + (math.inf,)
        self._counts = [0] * len(self.bounds)
        self._sum = 0.0
        self._count = 0

    @property
    def count(self) -> int:
        """Number of observations."""
        return self._count

    @property
    def sum(self) -> float:
        """Sum of all observed values."""
        return self._sum

    def observe(self, value: float) -> None:
        """Record one observation."""
        self._sum += value
        self._count += 1
        # First bound >= value: the bucket ``value <= bound`` selects.
        self._counts[bisect_left(self.bounds, value)] += 1

    def bucket_counts(self) -> list[tuple[float, int]]:
        """Cumulative (upper_bound, count) pairs, Prometheus-style."""
        out = []
        cumulative = 0
        for bound, count in zip(self.bounds, self._counts):
            cumulative += count
            out.append((bound, cumulative))
        return out

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (``q`` in [0, 1]; nan when empty)."""
        if not 0.0 <= q <= 1.0:
            raise ObsError(f"quantile out of range [0, 1]: {q}")
        if self._count == 0:
            return math.nan
        target = q * self._count
        cumulative = 0
        lower = 0.0
        for bound, count in zip(self.bounds, self._counts):
            if cumulative + count >= target:
                if count == 0 or bound == math.inf:
                    return lower
                fraction = (target - cumulative) / count
                return lower + (bound - lower) * fraction
            cumulative += count
            lower = bound
        return lower  # pragma: no cover - +Inf bucket always crosses

    def rank_bound(self, q: float) -> Optional[float]:
        """Upper bound of the bucket holding the nearest-rank ``q``-th
        percentile (``q`` in percent; None when empty).

        The conservative reading of a percentile: never below it.  The
        ``+Inf`` bucket reports the last finite bound.
        """
        if self._count == 0:
            return None
        rank = max(1, int(self._count * q / 100.0 + 0.999999))
        last = len(self.bounds) - 2
        cumulative = 0
        for i, count in enumerate(self._counts):
            cumulative += count
            if cumulative >= rank:
                return self.bounds[min(i, last)]
        return self.bounds[last]

    @property
    def p50(self) -> float:
        """Median estimate."""
        return self.quantile(0.50)

    @property
    def p95(self) -> float:
        """95th percentile estimate."""
        return self.quantile(0.95)

    @property
    def p99(self) -> float:
        """99th percentile estimate."""
        return self.quantile(0.99)

    def _to_dict(self) -> dict:
        return {
            "count": self._count,
            "sum": self._sum,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "buckets": {
                _format_value(bound): cumulative
                for bound, cumulative in self.bucket_counts()
            },
        }

    def _expose(self, name: str, labels: str) -> list[str]:
        raise NotImplementedError  # rendered by the family (needs le label)


class MetricSpec(NamedTuple):
    """One row of a metric table: a family's full schema."""

    name: str
    kind: str  # "counter" | "gauge" | "histogram"
    help: str
    labelnames: tuple[str, ...] = ()
    #: Histogram bucket boundaries (``None``: DEFAULT_BUCKETS).
    buckets: Optional[tuple[float, ...]] = None


_INSTRUMENTS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricFamily:
    """One named metric with a fixed label schema and many children."""

    def __init__(
        self,
        name: str,
        help_text: str,
        labelnames: Sequence[str],
        child_factory,
        kind: str,
        max_series: int,
    ):
        self.name = name
        self.help_text = help_text
        self.labelnames = tuple(labelnames)
        self.kind = kind
        self.max_series = max_series
        self._child_factory = child_factory
        self._children: dict[tuple[str, ...], object] = {}

    def child(self, *labelvalues: str):
        """The child series for positional label values, in declared
        label order.  Memoized: after a series' first use this is one
        dict lookup.  Values must be ``str`` so one label set never
        lives under two keys.
        """
        try:
            return self._children[labelvalues]
        except KeyError:
            return self._add_series(labelvalues)

    def _add_series(self, key: tuple):
        if len(key) != len(self.labelnames):
            raise ObsError(
                f"metric {self.name!r} takes labels {list(self.labelnames)}; "
                f"got {len(key)} values {key}"
            )
        if not all(type(value) is str for value in key):
            raise ObsError(f"metric {self.name!r} label values must be str: {key}")
        if len(self._children) >= self.max_series:
            raise ObsError(
                f"metric {self.name!r} exceeded {self.max_series} series; "
                f"a label is unbounded (offending values: {key})"
            )
        child = self._children[key] = self._child_factory()
        return child

    def labels(self, **labelvalues):
        """The child series for one label-value assignment, by name.

        Every declared label must be given, and nothing else — silent
        label drift is how dashboards rot.
        """
        given = set(labelvalues)
        declared = set(self.labelnames)
        if given != declared:
            missing = declared - given
            extra = given - declared
            raise ObsError(
                f"metric {self.name!r} labels mismatch: "
                f"missing={sorted(missing)} unexpected={sorted(extra)}"
            )
        return self.child(*(str(labelvalues[name]) for name in self.labelnames))

    def _sole_series(self):
        if self.labelnames:
            raise ObsError(
                f"metric {self.name!r} has labels {list(self.labelnames)}; "
                "use .child(...) or .labels(...)"
            )
        return self.child()

    # Label-less convenience: the family acts as its single child.

    def inc(self, amount: float = 1.0) -> None:
        """Increment the label-less series."""
        self._sole_series().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        """Decrement the label-less gauge series."""
        self._sole_series().dec(amount)

    def set(self, value: float) -> None:
        """Set the label-less gauge series."""
        self._sole_series().set(value)

    def observe(self, value: float) -> None:
        """Observe into the label-less histogram series."""
        self._sole_series().observe(value)

    @property
    def value(self) -> float:
        """Value of the label-less series."""
        return self._sole_series().value

    def series(self) -> list[tuple[dict[str, str], object]]:
        """(labels dict, child) pairs in sorted label order."""
        return [
            (dict(zip(self.labelnames, key)), child)
            for key, child in sorted(self._children.items())
        ]

    def total(self) -> float:
        """Sum of all children (counters/gauges only)."""
        if self.kind == "histogram":
            raise ObsError(f"histogram family {self.name!r} has no total()")
        return sum(child.value for _labels, child in self.series())

    # -- rendering ----------------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-able view of the family."""
        return {
            "type": self.kind,
            "help": self.help_text,
            "series": [
                {"labels": labels, **child._to_dict()}
                for labels, child in self.series()
            ],
        }

    def expose(self) -> list[str]:
        """Prometheus text-format lines for the family."""
        lines = [
            f"# HELP {self.name} {self.help_text}",
            f"# TYPE {self.name} {self.kind}",
        ]
        for key, child in sorted(self._children.items()):
            if self.kind == "histogram":
                for bound, cumulative in child.bucket_counts():
                    labels = _render_labels(
                        self.labelnames, key, extra=(("le", _format_value(bound)),)
                    )
                    lines.append(f"{self.name}_bucket{labels} {cumulative}")
                labels = _render_labels(self.labelnames, key)
                lines.append(f"{self.name}_sum{labels} {_format_value(child.sum)}")
                lines.append(f"{self.name}_count{labels} {child.count}")
            else:
                labels = _render_labels(self.labelnames, key)
                lines.extend(child._expose(self.name, labels))
        return lines


def _normalized(spec: MetricSpec) -> MetricSpec:
    if spec.kind not in _INSTRUMENTS:
        raise ObsError(f"unknown metric kind for {spec.name!r}: {spec.kind!r}")
    buckets = None
    if spec.kind == "histogram":
        bounds = DEFAULT_BUCKETS if spec.buckets is None else spec.buckets
        buckets = tuple(float(b) for b in bounds)
    elif spec.buckets is not None:
        raise ObsError(f"{spec.kind} {spec.name!r} takes no buckets")
    return spec._replace(labelnames=tuple(spec.labelnames), buckets=buckets)


class MetricsRegistry:
    """All metric families of one runtime, in registration order."""

    def __init__(self, max_series_per_family: int = 1000):
        self.max_series_per_family = max_series_per_family
        self._families: dict[str, MetricFamily] = {}
        self._specs: dict[str, MetricSpec] = {}

    def register(self, spec: MetricSpec) -> MetricFamily:
        """Get-or-register the family ``spec`` declares.

        The first call registers it; a repeat with the same schema
        returns the existing family, and one with a different kind,
        help text, labels or buckets raises :class:`ObsError`.
        """
        spec = _normalized(spec)
        name = spec.name
        family = self._families.get(name)
        if family is not None:
            if self._specs[name] != spec:
                raise ObsError(
                    f"metric {name!r} already registered as "
                    f"{self._specs[name]}; conflicting spec {spec}"
                )
            return family
        if not _NAME_RE.match(name):
            raise ObsError(f"invalid metric name: {name!r}")
        for label in spec.labelnames:
            if not _LABEL_RE.match(label) or label == "le":
                raise ObsError(f"invalid label name for {name!r}: {label!r}")
        factory = _INSTRUMENTS[spec.kind]
        if spec.buckets is not None:
            factory = partial(Histogram, spec.buckets)
        family = MetricFamily(
            name, spec.help, spec.labelnames, factory, spec.kind,
            self.max_series_per_family,
        )
        self._families[name] = family
        self._specs[name] = spec
        return family

    def register_table(self, table: Mapping[str, MetricSpec]) -> SimpleNamespace:
        """Get-or-register every row of ``table`` in order; returns the
        families as attributes named by the table's keys."""
        return SimpleNamespace(
            **{key: self.register(spec) for key, spec in table.items()}
        )

    def get(self, name: str) -> MetricFamily:
        """Family by name (raises for unknown names)."""
        try:
            return self._families[name]
        except KeyError:
            raise ObsError(f"unknown metric {name!r}") from None

    def families(self) -> Iterable[MetricFamily]:
        """All families in registration order."""
        return self._families.values()

    def to_dict(self) -> dict:
        """JSON-able snapshot of every family."""
        return {name: family.to_dict() for name, family in self._families.items()}

    def expose(self) -> str:
        """The full Prometheus text exposition."""
        lines: list[str] = []
        for family in self._families.values():
            lines.extend(family.expose())
        return "\n".join(lines) + ("\n" if lines else "")
