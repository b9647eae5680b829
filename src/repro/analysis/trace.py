"""Lightweight span tracing over simulated time.

A :class:`Tracer` records nested spans (request -> startup -> exec ->
comm ...) against the simulation clock, giving experiments and users a
structured timeline of where a request's latency went — the breakdowns
behind Fig. 10/11 style analyses.  A span holds its children but no
link back to its parent, so a finished tree is acyclic and reference
counting frees it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.errors import ReproError
from repro.sim import Simulator


class TraceError(ReproError):
    """Invalid span nesting or lifecycle."""


@dataclass(slots=True)
class Span:
    """One named interval of simulated time."""

    name: str
    begin_s: float
    end_s: Optional[float] = None
    children: list["Span"] = field(default_factory=list)
    attributes: dict[str, object] = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        """Span length (raises while still open)."""
        if self.end_s is None:
            raise TraceError(f"span {self.name!r} is still open")
        return self.end_s - self.begin_s

    @property
    def open(self) -> bool:
        """True while the span has not been closed."""
        return self.end_s is None

    def self_time_s(self) -> float:
        """Duration not covered by child spans."""
        return self.duration_s - sum(child.duration_s for child in self.children)


class Tracer:
    """Records a tree of spans per logical trace."""

    __slots__ = ("sim", "roots", "_stack")

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.roots: list[Span] = []
        self._stack: list[Span] = []

    # begin/end run several times per simulated request, so they read
    # the kernel's raw clock and build spans positionally.

    def begin(self, name: str, **attributes) -> Span:
        """Open a span nested under the innermost open one."""
        stack = self._stack
        span = Span(name, self.sim._now, None, [], attributes)
        (stack[-1].children if stack else self.roots).append(span)
        stack.append(span)
        return span

    def end(self, span: Span) -> Span:
        """Close a span; must be the innermost open one."""
        stack = self._stack
        if not stack or stack[-1] is not span:
            raise TraceError(f"span {span.name!r} is not the innermost open span")
        if span.end_s is not None:
            raise TraceError(f"span {span.name!r} already closed")
        span.end_s = self.sim._now
        stack.pop()
        return span

    def span(self, name: str, **attributes) -> "_SpanContext":
        """Context manager form: ``with tracer.span("exec"): ...``."""
        return _SpanContext(self, name, attributes)

    def find(self, name: str) -> list[Span]:
        """All spans with ``name``, depth-first."""
        return find_spans(self.roots, name)

    def render(self) -> str:
        """An indented text timeline of all closed root spans."""
        return render_spans(self.roots)


def find_spans(roots: list[Span], name: str) -> list[Span]:
    """All spans named ``name`` in the trees under ``roots``,
    depth-first."""
    found = []

    def walk(span):
        if span.name == name:
            found.append(span)
        for child in span.children:
            walk(child)

    for root in roots:
        walk(root)
    return found


def render_spans(roots: list[Span]) -> str:
    """An indented text timeline of the trees under ``roots``."""
    lines: list[str] = []

    def walk(span, depth):
        duration = "OPEN" if span.open else f"{span.duration_s * 1e3:9.3f} ms"
        lines.append(f"{'  ' * depth}{span.name:<24} {duration}")
        for child in span.children:
            walk(child, depth + 1)

    for root in roots:
        walk(root, 0)
    return "\n".join(lines)


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str, attributes: dict):
        self.tracer = tracer
        self.name = name
        self.attributes = attributes
        self.span: Optional[Span] = None

    def __enter__(self) -> Span:
        self.span = self.tracer.begin(self.name, **self.attributes)
        return self.span

    def __exit__(self, exc_type, exc, tb) -> None:
        assert self.span is not None
        self.tracer.end(self.span)
