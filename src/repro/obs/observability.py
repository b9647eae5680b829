"""The runtime's observability hub: a metrics registry plus a trace sink.

One :class:`Observability` instance per :class:`MoleculeRuntime` owns
the :class:`~repro.obs.metrics.MetricsRegistry` and the per-request
trace store.  It registers the core metric table
(:data:`CORE_METRICS`) eagerly; every other family is declared in a
table owned by the module that updates it (the sharded front end,
each opt-in engine, the sim-kernel profile) and registered when that
owner is wired, so engine-off runs keep the core catalog.

Adding a metric is one table row in the owning module plus a
``child(...)`` call at the call site::

    obs.metrics.retries_total.child(function, reason).inc()

Components below ``core.molecule`` take the hub as optional
(``obs=None`` keeps them observability-free for unit tests).
"""

from __future__ import annotations

from array import array
from collections import defaultdict, deque

from repro.obs.metrics import MetricSpec, MetricsRegistry
from repro.obs.spans import RequestTrace

#: Finer buckets for sub-millisecond paths (XPUcalls, nIPC, admission).
MICRO_BUCKETS = (
    1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4,
    5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 0.1, 1.0,
)

_REQUEST_LABELS = ("function", "pu_kind", "start_kind")

#: The families every runtime registers at construction, in
#: exposition order; reached as ``obs.metrics.<key>``.
CORE_METRICS = {
    # -- request lifecycle -------------------------------------------------------
    "requests_total": MetricSpec(
        "repro_requests_total", "counter",
        "Completed invocations by function, PU kind and start kind.",
        _REQUEST_LABELS,
    ),
    "request_seconds": MetricSpec(
        "repro_request_seconds", "histogram",
        "End-to-end request latency.",
        _REQUEST_LABELS,
    ),
    "phase_seconds": MetricSpec(
        "repro_phase_seconds", "histogram",
        "Per-phase latency (admit/schedule/sandbox_start/exec/respond).",
        ("phase",) + _REQUEST_LABELS,
    ),
    "starts_total": MetricSpec(
        "repro_starts_total", "counter",
        "Instance starts by kind (cold | fork | warm).",
        ("start_kind",),
    ),
    "failures_total": MetricSpec(
        "repro_invocation_failures_total", "counter",
        "Invocations abandoned by an error, by error type.",
        ("function", "error"),
    ),
    # -- gateway -----------------------------------------------------------------
    "gateway_requests": MetricSpec(
        "repro_gateway_requests_total", "counter",
        "Requests admitted by the API gateway.",
    ),
    "gateway_admit_seconds": MetricSpec(
        "repro_gateway_admit_seconds", "histogram",
        "Gateway admission overhead.",
        buckets=MICRO_BUCKETS,
    ),
    # -- scheduler ---------------------------------------------------------------
    "placements_total": MetricSpec(
        "repro_scheduler_placements_total", "counter",
        "Successful instance placements by PU kind.",
        ("pu_kind",),
    ),
    "placement_failures_total": MetricSpec(
        "repro_scheduler_placement_failures_total", "counter",
        "Placements rejected by admission control.",
    ),
    # -- keep-alive --------------------------------------------------------------
    "keepalive_reaped_total": MetricSpec(
        "repro_keepalive_reaped_total", "counter",
        "Warm instances evicted by the keep-alive TTL reaper.",
    ),
    "pool_size": MetricSpec(
        "repro_warm_pool_size", "gauge",
        "Idle warm instances per PU (refreshed at snapshot time).",
        ("pu",),
    ),
    "pool_hits": MetricSpec(
        "repro_warm_pool_hits", "gauge",
        "Warm-pool hits per PU (refreshed at snapshot time).",
        ("pu",),
    ),
    "pool_misses": MetricSpec(
        "repro_warm_pool_misses", "gauge",
        "Warm-pool misses per PU (refreshed at snapshot time).",
        ("pu",),
    ),
    "dram_used_mb": MetricSpec(
        "repro_pu_dram_used_mb", "gauge",
        "DRAM reserved on a general-purpose PU (snapshot time).",
        ("pu",),
    ),
    # -- sandboxes ---------------------------------------------------------------
    "sandbox_verb_seconds": MetricSpec(
        "repro_sandbox_verb_seconds", "histogram",
        "Sandbox runtime verb latency (create/start/cfork/...).",
        ("runtime", "verb"),
    ),
    # -- XPU-Shim ----------------------------------------------------------------
    "xpucalls_total": MetricSpec(
        "repro_xpucalls_total", "counter",
        "XPUcalls served by shim instances.",
        ("pu_kind", "transport"),
    ),
    "xpucall_seconds": MetricSpec(
        "repro_xpucall_seconds", "histogram",
        "XPUcall user<->shim round-trip overhead.",
        ("pu_kind", "transport"),
        MICRO_BUCKETS,
    ),
    "nipc_messages_total": MetricSpec(
        "repro_nipc_messages_total", "counter",
        "XPU-FIFO messages written (local fast path vs cross-PU nIPC).",
        ("path",),
    ),
    "nipc_bytes_total": MetricSpec(
        "repro_nipc_bytes_total", "counter",
        "XPU-FIFO payload bytes written.",
        ("path",),
    ),
    # -- reliability -------------------------------------------------------------
    "retries_total": MetricSpec(
        "repro_retries_total", "counter",
        "Attempts retried after a transient failure, by error type.",
        ("function", "reason"),
    ),
    "deadline_exceeded_total": MetricSpec(
        "repro_deadline_exceeded_total", "counter",
        "Requests abandoned at their gateway deadline.",
        ("function",),
    ),
    "dead_letters_total": MetricSpec(
        "repro_dead_letters_total", "counter",
        "Requests parked in the dead-letter queue, by reason.",
        ("function", "reason"),
    ),
    "degraded_total": MetricSpec(
        "repro_degraded_total", "counter",
        "Attempts degraded from an accelerator to a CPU profile.",
        ("function", "from_kind", "to_kind"),
    ),
    "breaker_transitions_total": MetricSpec(
        "repro_breaker_transitions_total", "counter",
        "Circuit-breaker state transitions per PU.",
        ("pu", "to_state"),
    ),
    "breaker_state": MetricSpec(
        "repro_breaker_state", "gauge",
        "Current breaker state per PU (0 closed, 1 half-open, 2 open, "
        "3 down; refreshed at snapshot time).",
        ("pu",),
    ),
    "faults_injected_total": MetricSpec(
        "repro_faults_injected_total", "counter",
        "Faults fired by the deterministic injector, by kind.",
        ("kind",),
    ),
    "nipc_dropped_total": MetricSpec(
        "repro_nipc_dropped_total", "counter",
        "XPU-FIFO messages dropped by injected faults.",
    ),
    "nipc_delayed_total": MetricSpec(
        "repro_nipc_delayed_total", "counter",
        "XPU-FIFO messages delayed by injected faults.",
    ),
}


class Observability:
    """Metrics registry + lifecycle trace sink for one runtime.

    Only the ``max_traces`` most recent traces are kept, so their
    memory does not grow with run length (``max_traces=0`` keeps
    none); every completed request's phase durations stream into
    :attr:`stage_samples` and the metric families instead.
    """

    def __init__(self, sim, max_traces: int = 1024):
        self.sim = sim
        self.registry = MetricsRegistry()
        #: The core families, as attributes named by CORE_METRICS keys.
        self.metrics = self.registry.register_table(CORE_METRICS)
        #: The most recent traces, oldest evicted first.
        self.traces: deque[RequestTrace] = deque(maxlen=max_traces)
        #: Phase name -> the durations of that phase over every
        #: completed request, in record order (last wins when a
        #: request repeats a phase, as in ``RequestTrace.phases()``).
        self.stage_samples: defaultdict[str, array] = defaultdict(
            lambda: array("d")
        )
        #: ``(function, pu_kind, start_kind)`` label values -> the
        #: request series under those labels: requests_total,
        #: request_seconds and starts_total children, and a phase name
        #: -> phase_seconds child map filled as phases appear.
        self._request_series: dict[tuple, tuple] = {}

    def begin_invocation(self, function: str) -> RequestTrace:
        """Open the span recorder for one request."""
        return RequestTrace(self, function)

    def record(self, trace: RequestTrace) -> None:
        """Publish a finished trace into the metric families and the
        stage samples.

        Every phase span is observed in ``repro_phase_seconds``; a
        phase the request repeated (a retry) reaches the stage samples
        once, with its last duration, as in ``RequestTrace.phases()``.
        """
        attrs = trace.attributes
        labels = (
            str(attrs.get("function", trace.function)),
            str(attrs.get("pu_kind", "unknown")),
            str(attrs.get("start_kind", "unknown")),
        )
        series = self._request_series.get(labels)
        if series is None:
            series = self._resolve_request_series(labels)
        requests, latency, starts, phase_series = series
        requests.inc()
        # A finished trace's root and phases are closed (finish refuses
        # to close the root over an open phase).
        latency.observe(trace.end_s - trace.begin_s)
        starts.inc()
        last: dict[str, float] = {}
        for span in trace.spans:
            if span.parent >= 0:
                continue
            name = span.name
            duration_s = span.end_s - span.begin_s
            histogram = phase_series.get(name)
            if histogram is None:
                histogram = phase_series[name] = (
                    self.metrics.phase_seconds.child(name, *labels)
                )
            histogram.observe(duration_s)
            last[name] = duration_s
        samples = self.stage_samples
        for name, duration_s in last.items():
            samples[name].append(duration_s)
        self.traces.append(trace)

    def _resolve_request_series(self, labels: tuple[str, str, str]) -> tuple:
        m = self.metrics
        series = self._request_series[labels] = (
            m.requests_total.child(*labels),
            m.request_seconds.child(*labels),
            m.starts_total.child(labels[2]),
            {},
        )
        return series

    def record_failure(self, trace: RequestTrace) -> None:
        """Count an abandoned trace without polluting the histograms."""
        error = str(trace.attributes.get("error", "unknown"))
        self.metrics.failures_total.child(str(trace.function), error).inc()
        self.traces.append(trace)

    def record_shed(self, trace: RequestTrace) -> None:
        """Keep a load-shed trace (repro.overload) without touching the
        histograms or the failure counters: a shed is deliberate
        back-pressure, not an error, and the overload controller counts
        it by reason in ``repro_shed_total``."""
        self.traces.append(trace)

    def completed_traces(self) -> list[RequestTrace]:
        """Recorded traces that finished cleanly (neither failed nor
        shed)."""
        return [
            t for t in self.traces
            if "error" not in t.attributes and "shed" not in t.attributes
        ]
