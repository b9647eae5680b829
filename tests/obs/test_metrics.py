"""Unit tests for the metrics primitives: counter/gauge/histogram
semantics, label-schema enforcement, cardinality caps and quantile
edge cases."""

import math

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricSpec,
    MetricsRegistry,
    ObsError,
)


# -- Counter ------------------------------------------------------------------


def test_counter_accumulates():
    c = Counter()
    assert c.value == 0.0
    c.inc()
    c.inc(2.5)
    assert c.value == 3.5


def test_counter_rejects_negative_increment():
    c = Counter()
    with pytest.raises(ObsError):
        c.inc(-1.0)
    assert c.value == 0.0


def test_counter_allows_zero_increment():
    c = Counter()
    c.inc(0.0)
    assert c.value == 0.0


# -- Gauge --------------------------------------------------------------------


def test_gauge_set_inc_dec():
    g = Gauge()
    g.set(10.0)
    g.inc(5.0)
    g.dec(3.0)
    assert g.value == 12.0
    g.inc(-20.0)  # gauges may go negative
    assert g.value == -8.0


# -- Histogram ----------------------------------------------------------------


def test_histogram_buckets_are_cumulative():
    h = Histogram(buckets=(1.0, 2.0, 4.0))
    for v in (0.5, 1.5, 1.5, 3.0, 100.0):
        h.observe(v)
    assert h.bucket_counts() == [
        (1.0, 1), (2.0, 3), (4.0, 4), (math.inf, 5),
    ]
    assert h.count == 5
    assert h.sum == pytest.approx(106.5)
    # A value exactly on a bound lands in that bound's bucket (le is
    # inclusive); the next float above it lands one bucket up, and
    # +inf lands in the implicit +Inf bucket.
    edges = Histogram(buckets=(1.0, 2.0, 4.0))
    for v in (1.0, math.nextafter(1.0, 2.0), 2.0, 4.0,
              math.nextafter(4.0, 5.0), math.inf, 0.0, -1.0):
        edges.observe(v)
    assert edges.bucket_counts() == [
        (1.0, 3), (2.0, 5), (4.0, 6), (math.inf, 8),
    ]


def test_histogram_rejects_unsorted_bounds():
    with pytest.raises(ObsError):
        Histogram(buckets=(2.0, 1.0))
    with pytest.raises(ObsError):
        Histogram(buckets=(1.0, 1.0))
    with pytest.raises(ObsError):
        Histogram(buckets=())


def test_histogram_explicit_inf_bucket_is_deduped():
    h = Histogram(buckets=(1.0, math.inf))
    assert h.bounds == (1.0, math.inf)


def test_histogram_quantiles_interpolate():
    h = Histogram(buckets=(10.0, 20.0))
    for _ in range(10):
        h.observe(15.0)  # all land in the (10, 20] bucket
    # Interpolation is linear within the bucket: q of 0.5 crosses at
    # half the bucket's span from its lower bound.
    assert h.quantile(0.5) == pytest.approx(15.0)
    assert h.quantile(1.0) == pytest.approx(20.0)


def test_histogram_quantile_edges():
    h = Histogram(buckets=(10.0,))
    assert math.isnan(h.quantile(0.5))  # empty histogram
    h.observe(5.0)
    assert h.quantile(0.0) == pytest.approx(0.0)
    assert h.quantile(1.0) == pytest.approx(10.0)
    with pytest.raises(ObsError):
        h.quantile(-0.1)
    with pytest.raises(ObsError):
        h.quantile(1.1)


def test_histogram_quantile_clamps_inf_bucket():
    h = Histogram(buckets=(1.0,))
    h.observe(50.0)  # lands in +Inf
    # The +Inf bucket has no upper bound; the estimate is clamped to
    # the last finite boundary.
    assert h.quantile(0.99) == pytest.approx(1.0)


def test_histogram_p50_p95_p99_properties():
    h = Histogram(buckets=DEFAULT_BUCKETS)
    for i in range(100):
        h.observe(0.001 * (i + 1))  # 1ms .. 100ms
    assert 0.04 <= h.p50 <= 0.06
    assert 0.08 <= h.p95 <= 0.1
    assert 0.09 <= h.p99 <= 0.1


# -- MetricFamily labels ------------------------------------------------------


def test_family_requires_exact_label_set():
    r = MetricsRegistry()
    fam = r.register(MetricSpec("x_total", "counter", "help.", ("a", "b")))
    fam.labels(a="1", b="2").inc()
    with pytest.raises(ObsError):
        fam.labels(a="1")  # missing b
    with pytest.raises(ObsError):
        fam.labels(a="1", b="2", c="3")  # unexpected c
    # The positional form checks the same schema.
    assert fam.child("1", "2") is fam.labels(a="1", b="2")
    assert fam.child("1", "2").value == 1
    with pytest.raises(ObsError):
        fam.child("1")  # too few values
    with pytest.raises(ObsError):
        fam.child("1", "2", "3")  # too many values
    with pytest.raises(ObsError):
        fam.child("1", 2)  # non-str value: would shadow ("1", "2")


def test_family_children_are_distinct_series():
    r = MetricsRegistry()
    fam = r.register(MetricSpec("x_total", "counter", "help.", ("a",)))
    fam.labels(a="1").inc(3)
    fam.labels(a="2").inc(4)
    assert fam.labels(a="1").value == 3
    assert fam.labels(a="2").value == 4
    assert fam.total() == 7


def test_family_labelless_delegation():
    r = MetricsRegistry()
    c = r.register(MetricSpec("plain_total", "counter", "help."))
    c.inc(2)
    assert c.value == 2
    g = r.register(MetricSpec("g", "gauge", "help."))
    g.set(7)
    assert g.value == 7
    h = r.register(
        MetricSpec("h_seconds", "histogram", "help.", buckets=(1.0,))
    )
    h.observe(0.5)
    assert h.labels().count == 1


def test_family_labelless_delegation_rejected_with_labels():
    r = MetricsRegistry()
    fam = r.register(MetricSpec("x_total", "counter", "help.", ("a",)))
    with pytest.raises(ObsError):
        fam.inc()


def test_family_cardinality_cap():
    r = MetricsRegistry(max_series_per_family=3)
    fam = r.register(MetricSpec("x_total", "counter", "help.", ("a",)))
    for i in range(3):
        fam.labels(a=str(i)).inc()
    with pytest.raises(ObsError):
        fam.labels(a="unbounded")
    with pytest.raises(ObsError):
        fam.child("unbounded")
    # Existing series stay reachable.
    fam.labels(a="0").inc()
    fam.child("0").inc()
    assert fam.labels(a="0").value == 3


def test_histogram_family_has_no_total():
    r = MetricsRegistry()
    fam = r.register(MetricSpec(
        "h_seconds", "histogram", "help.", ("a",), buckets=(1.0,)
    ))
    fam.labels(a="1").observe(0.5)
    with pytest.raises(ObsError):
        fam.total()


# -- MetricsRegistry ----------------------------------------------------------


def test_registry_rejects_duplicate_names():
    r = MetricsRegistry()
    r.register(MetricSpec("x_total", "counter", "help."))
    with pytest.raises(ObsError):
        r.register(MetricSpec("x_total", "gauge", "help."))
    # Get-or-register returns the family for the same schema and
    # raises for any conflicting field.
    spec = MetricSpec("y_seconds", "histogram", "help.", ("a",), (1.0, 2.0))
    family = r.register(spec)
    assert r.register(spec) is family
    assert r.register(spec._replace(labelnames=["a"])) is family
    assert r.register(MetricSpec("x_total", "counter", "help.")) is r.get("x_total")
    for conflict in (
        spec._replace(kind="gauge", buckets=None),
        spec._replace(help="other help."),
        spec._replace(labelnames=("b",)),
        spec._replace(buckets=(1.0, 5.0)),
        spec._replace(buckets=None),  # DEFAULT_BUCKETS differ
    ):
        with pytest.raises(ObsError):
            r.register(conflict)
    with pytest.raises(ObsError):
        r.register(MetricSpec("x_total", "gauge", "help."))
    assert list(r.families()) == [r.get("x_total"), family]


def test_registry_validates_names_and_labels():
    r = MetricsRegistry()
    with pytest.raises(ObsError):
        r.register(MetricSpec("0bad", "counter", "help."))
    with pytest.raises(ObsError):
        r.register(MetricSpec("ok_total", "counter", "help.", ("0bad",)))
    with pytest.raises(ObsError):
        # "le" is reserved for histogram buckets.
        r.register(MetricSpec("h_seconds", "histogram", "help.", ("le",)))


def test_registry_get_and_families():
    r = MetricsRegistry()
    a = r.register(MetricSpec("a_total", "counter", "help."))
    b = r.register(MetricSpec("b", "gauge", "help."))
    assert r.get("a_total") is a
    assert list(r.families()) == [a, b]
    with pytest.raises(ObsError):
        r.get("missing")


def test_registry_to_dict_shape():
    r = MetricsRegistry()
    fam = r.register(MetricSpec(
        "h_seconds", "histogram", "help.", ("a",), buckets=(1.0, 2.0)
    ))
    fam.labels(a="x").observe(0.5)
    d = r.to_dict()
    [series] = d["h_seconds"]["series"]
    assert d["h_seconds"]["type"] == "histogram"
    assert series["labels"] == {"a": "x"}
    assert series["count"] == 1
    assert series["buckets"] == {"1": 1, "2": 1, "+Inf": 1}
    assert series["p50"] == pytest.approx(0.5)
