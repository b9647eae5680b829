"""The control plane's placement decisions (§4.1, §5 "Profile
selections").

Given a function's allowed PU kinds, the scheduler picks the concrete
PU for a new instance by one rule: the explicit kind, or else the kinds
in the order the user listed the function's profiles; within a kind,
PUs in machine order, minus crashed and open-breaker PUs; the first PU
with DRAM room for the instance wins (the Fig. 2a density experiment
emerges from this admission control).  Accelerators skip DRAM
admission: their runtimes govern their capacity.  Chain co-location is
:meth:`repro.core.dag.DagEngine.co_locate`, not a placement option.
"""

from __future__ import annotations

from typing import Iterable, Optional, TYPE_CHECKING

from repro.errors import SchedulingError
from repro.hardware.machine import HeterogeneousComputer
from repro.hardware.pu import ProcessingUnit, PuKind
from repro.core.registry import FunctionDef

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.reliability import HealthRegistry
    from repro.obs import Observability


class Scheduler:
    """Places function instances onto PUs."""

    def __init__(
        self,
        machine: HeterogeneousComputer,
        obs: Optional["Observability"] = None,
        health: Optional["HealthRegistry"] = None,
    ):
        self.machine = machine
        self.obs = obs
        #: Per-PU health registry; crashed and open-circuit PUs are
        #: excluded from candidates.  None disables health filtering.
        self.health = health
        #: (function name, kind) -> kind-ordered PU tuple.  Function
        #: profiles and the machine topology are static, so this never
        #: needs invalidation for the life of one deployment.
        self._base_candidates: dict[
            tuple[str, Optional[PuKind]], tuple[ProcessingUnit, ...]
        ] = {}
        #: (function name, kind) -> (health version, valid-until time,
        #: filtered PU tuple).  Invalidated by breaker/crash transitions
        #: (version bumps) and by OPEN cool-down expiry (valid-until).
        self._available_candidates: dict[
            tuple[str, Optional[PuKind]],
            tuple[int, float, tuple[ProcessingUnit, ...]],
        ] = {}

    def candidates(
        self, function: FunctionDef, kind: Optional[PuKind] = None
    ) -> tuple[ProcessingUnit, ...]:
        """PUs that could host this function, in placement order.

        Crashed PUs and PUs whose circuit breaker is open are excluded
        when a health registry is wired in.  Results are cached: the
        unfiltered kind-ordered list is static, and the health-filtered
        view is reused until a breaker or crash transition bumps the
        registry version (or an OPEN cool-down elapses).  Returns an
        immutable tuple shared across calls.
        """
        key = (function.name, kind)
        base = self._base_candidates.get(key)
        if base is None:
            kinds = [kind] if kind is not None else function.profiles
            pus: list[ProcessingUnit] = []
            for wanted in kinds:
                if not function.supports(wanted):
                    raise SchedulingError(
                        f"function {function.name!r} has no {wanted.value} profile"
                    )
                pus.extend(self.machine.pus_of_kind(wanted))
            base = tuple(pus)
            self._base_candidates[key] = base
        health = self.health
        if health is None:
            return base
        cached = self._available_candidates.get(key)
        if cached is not None:
            version, valid_until, filtered = cached
            if version == health.version and health.sim._now < valid_until:
                return filtered
        filtered, valid_until = health.filter_available(base)
        # Capture the version *after* filtering: availability checks may
        # themselves transition OPEN -> HALF_OPEN and bump it.
        self._available_candidates[key] = (health.version, valid_until, filtered)
        return filtered

    def clone_candidates(
        self,
        function: FunctionDef,
        kind: Optional[PuKind] = None,
        exclude: Optional[ProcessingUnit] = None,
    ) -> tuple[ProcessingUnit, ...]:
        """Candidate PUs for a hedge clone: the normal breaker-filtered
        candidate list minus the primary copy's PU (anti-affinity).

        An empty result means the clone has nowhere distinct and
        healthy to run, and the hedge policy skips cloning.
        """
        return tuple(
            pu for pu in self.candidates(function, kind) if pu is not exclude
        )

    def place(
        self,
        function: FunctionDef,
        kind: Optional[PuKind] = None,
        exclude: Optional[ProcessingUnit] = None,
    ) -> ProcessingUnit:
        """Choose and reserve a PU for one new instance.

        Reserves the instance's memory immediately (admission control);
        call :meth:`release` when the instance dies.  ``exclude``
        expresses hedge anti-affinity: that PU is never chosen.
        """
        candidates = self.candidates(function, kind)
        if exclude is not None:
            candidates = tuple(pu for pu in candidates if pu is not exclude)
        for pu in candidates:
            if pu.kind.general_purpose:
                if pu.try_reserve_dram(function.code.memory_mb):
                    self._observe_placement(pu)
                    return pu
            else:
                # Accelerator capacity is governed by its runtime
                # (fabric resources / contexts), not host-style DRAM.
                self._observe_placement(pu)
                return pu
        if self.obs is not None:
            self.obs.metrics.placement_failures_total.inc()
        raise SchedulingError(
            f"no PU has capacity for {function.name!r} "
            f"({function.code.memory_mb}MB over {[p.name for p in candidates]})"
        )

    def warm_locality(
        self,
        function: FunctionDef,
        pools,
        kind: Optional[PuKind] = None,
    ) -> Optional[ProcessingUnit]:
        """The first healthy candidate PU holding a warm idle instance.

        ``pools`` is the invoker's ``pu_id -> WarmPool`` mapping.  The
        sharded front end's locality router uses this to steer a
        request to the shard fronting a PU with a warm sandbox; returns
        None when no candidate has one (callers fall back to their
        default placement).
        """
        for pu in self.candidates(function, kind):
            pool = pools.get(pu.pu_id)
            if pool is not None and pool.idle_instances(function.name):
                return pu
        return None

    def _observe_placement(self, pu: ProcessingUnit) -> None:
        if self.obs is not None:
            self.obs.metrics.placements_total.child(pu.kind.value).inc()

    def release(self, function: FunctionDef, pu: ProcessingUnit) -> None:
        """Return the memory reservation of a dead instance."""
        if pu.kind.general_purpose:
            pu.release_dram(function.code.memory_mb)

    def max_density(self, function: FunctionDef, kinds: Iterable[PuKind]) -> int:
        """How many concurrent instances fit across PUs of ``kinds``
        (the Fig. 2a vertical-scaling metric)."""
        total = 0
        for kind in kinds:
            for pu in self.machine.pus_of_kind(kind):
                total += int(pu.dram_free_mb // function.code.memory_mb)
        return total
