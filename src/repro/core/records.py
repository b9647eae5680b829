"""The request path's records: live instances, answers, attempts.

Apart from :mod:`repro.core.invoker` so the engines, the warm pools and
the baselines can build and read them without importing the pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, TYPE_CHECKING

from repro import config
from repro.hardware.pu import ProcessingUnit, PuKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.registry import FunctionDef
    from repro.sandbox.base import Sandbox


@dataclass
class FunctionInstance:
    """One live (warm or executing) function instance."""

    function: FunctionDef
    pu: ProcessingUnit
    sandbox: Sandbox
    forked: bool
    requests_served: int = 0
    #: Set by the first ``Invoker._destroy`` to claim the teardown.
    #: Several paths can race to destroy one instance (keep-alive
    #: reaper, LRU eviction, dead-corpse reaping in ``_find_warm``,
    #: fault injection); without the claim each would release the
    #: instance's DRAM reservation again, corrupting admission control.
    destroyed: bool = False
    #: True while this instance was forked ahead of demand by the
    #: warm-path pre-warmer and no request has claimed it yet; the
    #: engine's hit/wasted accounting keys on it.
    prewarmed: bool = False


@dataclass
class InvocationResult:
    """Timing breakdown of one request."""

    function: str
    request_id: int
    pu_name: str
    #: None for cache-served answers (repro.reuse): no PU ran them.
    pu_kind: Optional[PuKind]
    cold: bool
    startup_s: float
    exec_s: float
    total_s: float
    billed_cost: float
    #: Inter-function communication time (zero for a lone request).
    comm_s: float = 0.0
    #: Attempts the request took (1 = first attempt succeeded).
    attempts: int = 1
    #: Last transient error retried before success, if any.
    error: Optional[str] = None
    #: True when the request fell back from an accelerator profile to a
    #: general-purpose one because the accelerator was down.
    degraded: bool = False
    #: Sim time at which the gateway admitted the request.
    admitted_s: float = 0.0
    #: Gateway shard that admitted the request (None: unsharded front end).
    shard: Optional[int] = None
    #: True when a hedge clone was launched for this request
    #: (repro.hedging), whichever copy won.
    hedged: bool = False
    #: Which copy answered a hedged request: "primary" or "clone"
    #: (empty when no clone launched).
    hedge_winner: str = ""
    #: Result payload (repro.reuse): set for executions of idempotent
    #: functions with an input key, and for every cache-served answer —
    #: a hit's payload must equal what executing its digest produces.
    payload: Optional[str] = None
    #: "" for executed answers; "fresh" or "stale" when this request
    #: was answered from the result cache (repro.reuse).
    cache: str = ""
    #: Why the cache answered it: "fresh", "singleflight", "pressure",
    #: "deadline" or "shed" (in place of the gate's shed); "" if executed.
    cache_reason: str = ""

    @property
    def total_ms(self) -> float:
        """End-to-end latency in milliseconds."""
        return self.total_s / config.MS

    @property
    def retried(self) -> bool:
        """True if the request needed more than one attempt."""
        return self.attempts > 1


@dataclass(slots=True)
class Attempt:
    """One attempt at serving a request: what it runs, and where.

    :meth:`repro.core.invoker.Invoker.invoke` builds the request's own
    record; the retry loop copies it once per attempt (with the kind
    and PU that attempt resolved to, writing to the request's trace),
    and a hedged race copies the attempt once per racing copy.
    """

    function: FunctionDef
    request_id: int
    kind: Optional[PuKind]
    pu: Optional[ProcessingUnit]
    force_cold: bool
    payload_bytes: int
    #: Overrides the function's warm execution model (input-dependent
    #: workloads: file size, entry count).
    exec_time_s: Optional[float]
    #: Sim time the request arrived (latency is measured from here).
    start: float
    trace: object
    #: The hedged race this copy runs in (repro.hedging) and its tag,
    #: "primary" or "clone"; None / "" outside a race.
    hedge: object = None
    tag: str = ""
    #: The PU the attempt targeted (breaker attribution) and that PU's
    #: crash epoch then (the crash check compares against it).
    placed: Optional[ProcessingUnit] = None
    epoch: object = None
    #: The request's settled fate (see repro.core.reliability.FateLedger):
    #: "answered", "shed" or "dead"; "" while in flight.
    fate: str = ""

    def copy(self, kind, pu, trace, hedge=None, tag: str = "") -> "Attempt":
        """A fresh attempt of the same request (nothing placed yet)."""
        return Attempt(
            self.function, self.request_id, kind, pu, self.force_cold,
            self.payload_bytes, self.exec_time_s, self.start, trace,
            hedge, tag,
        )
