"""Golden tests for the Prometheus text exposition format."""

from repro.obs.metrics import MetricSpec, MetricsRegistry


def test_counter_and_gauge_exposition_golden():
    r = MetricsRegistry()
    c = r.register(MetricSpec(
        "demo_requests_total", "counter", "Requests served.", ("code",)
    ))
    c.labels(code="200").inc(3)
    c.labels(code="500").inc()
    g = r.register(
        MetricSpec("demo_temperature", "gauge", "Current temperature.")
    )
    g.set(36.6)
    assert r.expose() == (
        "# HELP demo_requests_total Requests served.\n"
        "# TYPE demo_requests_total counter\n"
        'demo_requests_total{code="200"} 3\n'
        'demo_requests_total{code="500"} 1\n'
        "# HELP demo_temperature Current temperature.\n"
        "# TYPE demo_temperature gauge\n"
        "demo_temperature 36.6\n"
    )


def test_histogram_exposition_golden():
    r = MetricsRegistry()
    h = r.register(MetricSpec(
        "demo_seconds", "histogram", "Latency.", ("op",), buckets=(0.1, 1.0)
    ))
    h.labels(op="get").observe(0.05)
    h.labels(op="get").observe(0.5)
    h.labels(op="get").observe(5.0)
    assert r.expose() == (
        "# HELP demo_seconds Latency.\n"
        "# TYPE demo_seconds histogram\n"
        'demo_seconds_bucket{op="get",le="0.1"} 1\n'
        'demo_seconds_bucket{op="get",le="1"} 2\n'
        'demo_seconds_bucket{op="get",le="+Inf"} 3\n'
        'demo_seconds_sum{op="get"} 5.55\n'
        'demo_seconds_count{op="get"} 3\n'
    )


def test_zero_observation_histogram_still_renders_buckets():
    r = MetricsRegistry()
    h = r.register(
        MetricSpec("empty_seconds", "histogram", "Latency.", buckets=(1.0,))
    )
    h.labels()  # materialised but never observed
    assert r.expose() == (
        "# HELP empty_seconds Latency.\n"
        "# TYPE empty_seconds histogram\n"
        'empty_seconds_bucket{le="1"} 0\n'
        'empty_seconds_bucket{le="+Inf"} 0\n'
        "empty_seconds_sum 0\n"
        "empty_seconds_count 0\n"
    )


def test_label_values_are_escaped():
    r = MetricsRegistry()
    c = r.register(MetricSpec("demo_total", "counter", "Escaping.", ("msg",)))
    c.labels(msg='a"b\\c\nd').inc()
    assert r.expose() == (
        "# HELP demo_total Escaping.\n"
        "# TYPE demo_total counter\n"
        'demo_total{msg="a\\"b\\\\c\\nd"} 1\n'
    )


def test_series_render_in_sorted_label_order():
    r = MetricsRegistry()
    c = r.register(MetricSpec("demo_total", "counter", "Ordering.", ("x",)))
    for value in ("b", "a", "c"):
        c.labels(x=value).inc()
    lines = [l for l in r.expose().splitlines() if not l.startswith("#")]
    assert lines == [
        'demo_total{x="a"} 1',
        'demo_total{x="b"} 1',
        'demo_total{x="c"} 1',
    ]


def test_empty_registry_exposes_empty_string():
    assert MetricsRegistry().expose() == ""
