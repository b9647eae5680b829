"""Per-invocation lifecycle spans over the simulated clock.

Each admitted request gets a :class:`RequestTrace`: a flat recorder of
its own whose root ``request`` span holds the lifecycle phases the
paper's breakdowns reason about::

    request{function, request_id, pu, pu_kind, start_kind}
      admit           gateway admission
      schedule        warm-pool lookup + placement decision
      sandbox_start   cold path only: cfork / create+start / repack
        nipc          remote cfork command over the executor channel
      exec            data prep + COW penalty + core queueing + run
        nipc          accelerator DMA transfers (transport="dma")
      respond         pool release + billing

A per-request recorder (rather than one global tracer) is what makes
the trees correct under concurrency: interleaved requests in the
simulator would corrupt a single tracer's span stack.

The recorder builds no span tree while the request runs: every span is
one :class:`SpanRecord` in one list, linked to its parent by index.
The :class:`~repro.analysis.trace.Span` tree is built on demand when a
retained trace is read (:attr:`RequestTrace.root`).

``start_kind`` distinguishes the three start paths: ``cold`` (baseline
container boot), ``fork`` (cfork from a template), ``warm`` (pool hit).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.analysis.trace import Span, TraceError, find_spans, render_spans

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.observability import Observability

#: The lifecycle phase names, in request order (sandbox_start appears
#: only on cold starts).  A sixth phase, ``queue``, appears between
#: admit and schedule only when an overload controller parks the
#: request in a shard's bounded admission queue (repro.overload).
LIFECYCLE_PHASES = ("admit", "schedule", "sandbox_start", "exec", "respond")

#: start_kind label values.
START_COLD = "cold"
START_FORK = "fork"
START_WARM = "warm"
#: Served by a coalesced single-flight batch (repro.warmpath).
START_COALESCED = "coalesced"
#: Answered by a hedge clone on a second PU (repro.hedging): the
#: primary copy straggled past the percentile trigger and lost the
#: first-wins race to its clone.
START_HEDGED = "hedged"
#: Answered from the result cache (repro.reuse): a fresh (or
#: stale-under-pressure) memoized result served without taking a gate
#: slot or touching a sandbox.
START_CACHED = "cached"
#: Root span kind of a fan-out *job* trace (repro.futures): the
#: CPU-partition -> per-partition execute -> CPU-reduce pipeline.  The
#: per-partition tasks are ordinary requests with their own traces;
#: the job trace holds the stage phases below.
START_FANOUT = "fanout"

#: Phase names of a fan-out job span tree, in pipeline order
#: (``reduce`` appears only on ``map_reduce``).  Deliberately disjoint
#: from LIFECYCLE_PHASES so job traces never pollute the per-request
#: stage percentiles.
FANOUT_STAGES = ("partition", "fanout", "gather", "reduce")


class SpanRecord:
    """One span of a request, as its recorder keeps it.

    ``parent`` is the index of the enclosing span in the recorder's
    :attr:`~RequestTrace.spans` list, or -1 under the root.
    """

    __slots__ = ("name", "begin_s", "end_s", "attributes", "parent")

    def __init__(self, name: str, begin_s: float, attributes: dict,
                 parent: int):
        self.name = name
        self.begin_s = begin_s
        self.end_s: Optional[float] = None
        self.attributes = attributes
        self.parent = parent


class RequestTrace:
    """The spans of one request, recorded flat against sim time.

    The root ``request`` span is the recorder itself (``begin_s``,
    ``end_s`` and the root ``attributes``); every nested span is a
    :class:`SpanRecord` in :attr:`spans`, in begin order.

    Once :meth:`finish`, :meth:`fail` or :meth:`shed` sets ``end_s``
    the recorder is closed, and every later write is a no-op that
    raises nothing.  Work that outlives its request (an attempt the
    deadline orphaned, a hedged primary that lost to its clone) keeps
    writing to the request's recorder; the request closes it in the
    same step that abandons that work, so the late writes never reach
    the tree.
    """

    __slots__ = ("obs", "sim", "function", "attributes", "begin_s",
                 "end_s", "spans", "_open")

    def __init__(self, obs: "Observability", function: str):
        self.obs = obs
        self.sim = sim = obs.sim
        self.function = function
        self.attributes: dict[str, object] = {"function": function}
        self.begin_s = sim._now
        self.end_s: Optional[float] = None
        self.spans: list[SpanRecord] = []
        #: Index of the innermost open span in ``spans`` (-1: the root).
        self._open = -1

    def begin_phase(self, name: str, **attributes) -> SpanRecord:
        """Open a span nested under the innermost open one (on a
        closed recorder: a record nothing keeps)."""
        if self.end_s is not None:
            return SpanRecord(name, self.end_s, attributes, -1)
        spans = self.spans
        record = SpanRecord(name, self.sim._now, attributes, self._open)
        self._open = len(spans)
        spans.append(record)
        return record

    def end_phase(self, span: SpanRecord) -> None:
        """Close a span; must be the innermost open one."""
        if self.end_s is not None:
            return
        index = self._open
        if index < 0 or self.spans[index] is not span:
            raise TraceError(
                f"span {span.name!r} is not the innermost open span"
            )
        span.end_s = self.sim._now
        self._open = span.parent

    def annotate(self, **attributes) -> None:
        """Attach attributes to the root ``request`` span."""
        if self.end_s is None:
            self.attributes.update(attributes)

    def finish(self) -> None:
        """Close the request span and publish the trace's metrics."""
        if self.end_s is not None:
            return
        if self._open >= 0:
            raise TraceError("span 'request' is not the innermost open span")
        self.end_s = self.sim._now
        self.obs.record(self)

    def fail(self, error: str) -> None:
        """Abandon the trace on an error: unwind every open span, tag
        the root with the error, and count the failure (the phase
        histograms only ever see completed requests)."""
        if self.end_s is None:
            self._abandon(error=error)
            self.obs.record_failure(self)

    def shed(self, reason: str) -> None:
        """Abandon the trace for a load-shed request (repro.overload):
        unwind every open span, tag the root with the shed reason, and
        record it apart from both the completed and the failed
        populations — a shed is deliberate back-pressure, not an
        error, and must not skew either the phase histograms or the
        failure counters."""
        if self.end_s is None:
            self._abandon(shed=reason)
            self.obs.record_shed(self)

    def _abandon(self, **tag) -> None:
        self.unwind()
        self.end_s = self.sim._now
        self.attributes.update(tag)

    def unwind(self) -> None:
        """Close every open span under the root, innermost first.

        The retry loop calls this between attempts: a failed or
        abandoned attempt leaves its phase spans open, and the next
        attempt's spans must nest directly under the root again.
        """
        if self.end_s is not None:
            return
        spans = self.spans
        now = self.sim._now
        index = self._open
        while index >= 0:
            span = spans[index]
            span.end_s = now
            index = span.parent
        self._open = -1

    # -- the read side: span trees built on demand ------------------------------

    @property
    def root(self) -> Span:
        """The root ``request`` span with its tree of child spans,
        built afresh from the flat records (attribute dicts are
        shared, not copied)."""
        root = Span("request", self.begin_s, self.end_s, [], self.attributes)
        built: list[Span] = []
        for record in self.spans:
            span = Span(record.name, record.begin_s, record.end_s, [],
                        record.attributes)
            parent = record.parent
            (root if parent < 0 else built[parent]).children.append(span)
            built.append(span)
        return root

    def phases(self) -> dict[str, float]:
        """Phase name -> duration (direct children of the root)."""
        return {span.name: span.duration_s for span in self.root.children}

    def find(self, name: str) -> list[Span]:
        """All spans with ``name``, depth-first."""
        return find_spans([self.root], name)

    def render(self) -> str:
        """An indented text timeline of the span tree."""
        return render_spans([self.root])


def _closed_trace() -> RequestTrace:
    """A recorder closed from the start, with no hub and no clock."""
    trace = object.__new__(RequestTrace)
    trace.obs = trace.sim = None
    trace.function = ""
    trace.attributes = {}
    trace.begin_s = trace.end_s = 0.0
    trace.spans = []
    trace._open = -1
    return trace


#: The shared recorder of work no request owns (hedge clones, batch
#: forks): closed from the start, so every write to it is a no-op.
NULL_TRACE = _closed_trace()
