"""The read side of span tracing over simulated time.

A :class:`Span` is one named interval of a request's timeline (request
-> startup -> exec -> comm ...), the breakdowns behind Fig. 10/11 style
analyses.  :class:`repro.obs.spans.RequestTrace` records a request's
spans flat and builds its :class:`Span` tree on demand;
:func:`find_spans` and :func:`render_spans` read such trees.  A span
holds its children but no link back to its parent, so a finished tree
is acyclic and reference counting frees it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.errors import ReproError


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
