"""Pay-as-you-go billing (§1, §4.1).

Serverless bills at 1ms granularity.  Molecule's heterogeneous twist is
per-PU *price classes*: end-users explicitly pick PU kinds by price and
capability — DPU cheapest, FPGA dearest — so running the same function
on a slower-but-cheaper PU can cost less.  The ledger records every
invocation and aggregates per function and per PU kind.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.errors import ReproError
from repro.hardware.pu import PuKind


class BillingError(ReproError):
    """Invalid billing operation."""


@dataclass(frozen=True)
class LedgerEntry:
    """One billed invocation."""

    request_id: int
    function: str
    pu_kind: PuKind
    pu_name: str
    duration_s: float
    billed_ms: int
    cost: float
    #: True for work a losing hedge copy executed and then discarded
    #: (repro.hedging).  The provider still bills it — that is exactly
    #: the cost overhead the hedge reports account for.
    hedge_waste: bool = False


@dataclass
class BillingSummary:
    """Aggregate over a set of ledger entries."""

    invocations: int
    billed_ms: int
    cost: float

    def merged(self, other: "BillingSummary") -> "BillingSummary":
        """Combine two summaries."""
        return BillingSummary(
            invocations=self.invocations + other.invocations,
            billed_ms=self.billed_ms + other.billed_ms,
            cost=self.cost + other.cost,
        )


class BillingLedger:
    """The machine's invocation ledger."""

    def __init__(self):
        self._entries: list[LedgerEntry] = []
        #: Running sum of every entry's cost — O(1) for hot-path
        #: consumers (the hedge budget's waste ceiling) where
        #: :meth:`total` would rescan the ledger.
        self.total_cost = 0.0

    def charge(
        self,
        request_id: int,
        function: str,
        pu,
        duration_s: float,
        hedge_waste: bool = False,
    ) -> LedgerEntry:
        """Record one invocation's bill (1ms minimum granularity)."""
        if duration_s < 0:
            raise BillingError(f"negative billed duration: {duration_s}")
        billed_ms = max(1, round(duration_s * 1000))
        price = pu.spec.price_class
        entry = LedgerEntry(
            request_id=request_id,
            function=function,
            pu_kind=pu.kind,
            pu_name=pu.name,
            duration_s=duration_s,
            billed_ms=billed_ms,
            cost=price.value * billed_ms,
            hedge_waste=hedge_waste,
        )
        self._entries.append(entry)
        self.total_cost += entry.cost
        return entry

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def entries(self) -> list[LedgerEntry]:
        """All entries (copy)."""
        return list(self._entries)

    def _summarize(self, entries: Iterable[LedgerEntry]) -> BillingSummary:
        entries = list(entries)
        return BillingSummary(
            invocations=len(entries),
            billed_ms=sum(e.billed_ms for e in entries),
            cost=sum(e.cost for e in entries),
        )

    def total(self) -> BillingSummary:
        """Whole-ledger summary."""
        return self._summarize(self._entries)

    def by_function(self, function: str) -> BillingSummary:
        """Summary for one function."""
        return self._summarize(e for e in self._entries if e.function == function)

    def by_pu_kind(self, kind: PuKind) -> BillingSummary:
        """Summary for one PU kind."""
        return self._summarize(e for e in self._entries if e.pu_kind == kind)

    def cheapest_kind_for(self, function: str) -> Optional[PuKind]:
        """The PU kind that has billed this function the least per
        invocation so far (what a cost-aware profile selector would
        choose, §4.1)."""
        per_kind: dict[PuKind, list[float]] = {}
        for entry in self._entries:
            if entry.function == function:
                per_kind.setdefault(entry.pu_kind, []).append(entry.cost)
        if not per_kind:
            return None
        return min(
            per_kind, key=lambda kind: sum(per_kind[kind]) / len(per_kind[kind])
        )
