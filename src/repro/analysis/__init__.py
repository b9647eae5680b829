"""Analysis: statistics, reporting, and the per-figure experiment harness."""

from repro.analysis.report import (
    format_artifact_block,
    format_comparison,
    format_phase_breakdown,
    format_reliability,
    format_start_kinds,
    format_table,
    normalized,
)
from repro.analysis.stats import LatencyStats, LatencySummary, percentile
from repro.analysis.trace import Span

__all__ = [
    "LatencyStats",
    "LatencySummary",
    "Span",
    "format_artifact_block",
    "format_comparison",
    "format_phase_breakdown",
    "format_reliability",
    "format_start_kinds",
    "format_table",
    "normalized",
    "percentile",
]
