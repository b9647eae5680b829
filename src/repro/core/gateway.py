"""The API gateway / global manager front-end (§4.1).

Requests enter Molecule through the gateway, which admits them (a small
scheduling overhead), stamps request ids, and hands them to the
invoker.  Baseline systems route *inter-function* traffic through the
gateway too; Molecule's nIPC DAG calls bypass it — that contrast is the
point of §4.3.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterator, Optional, TYPE_CHECKING

from repro import config
from repro.sim import Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs import Observability


class ApiGateway:
    """Request admission for one worker machine.

    With ``default_deadline_s`` configured, every admitted request is
    stamped with an absolute deadline; the invoker abandons attempts
    that would overrun it and raises
    :class:`~repro.errors.DeadlineExceeded`.

    ``request_ids`` lets several gateways share one id stream: the
    sharded front end (:mod:`repro.loadgen.sharding`) passes a common
    counter to every shard so request ids stay machine-unique and the
    dead-letter accounting (``answered + dead == admitted``) spans all
    shards.
    """

    def __init__(
        self,
        sim: Simulator,
        overhead_ms: float = config.GATEWAY_OVERHEAD_MS,
        obs: Optional["Observability"] = None,
        default_deadline_s: Optional[float] = None,
        request_ids: Optional[Iterator[int]] = None,
    ):
        self.sim = sim
        #: The admission delay the invoker yields before :meth:`stamp`.
        self.overhead_s = overhead_ms * config.MS
        self.obs = obs
        self.default_deadline_s = default_deadline_s
        self._request_ids = request_ids if request_ids is not None else itertools.count(1)
        self.requests_admitted = 0
        self._deadlines: dict[int, float] = {}
        #: Called with the running admitted count after each admission
        #: (the fault injector's after-N-requests triggers hook in here).
        self._admit_listeners: list[Callable[[int], None]] = []
        #: The :class:`~repro.loadgen.sharding.GatewayShard` this
        #: gateway admits for (None for the runtime's own gateway); the
        #: invoker settles the shard's counters through it.
        self.shard = None
        # The label-less admission series, resolved at the first
        # admission (so a gateway that admits nothing adds no series).
        self._series = None

    def add_admit_listener(self, listener: Callable[[int], None]) -> None:
        """Subscribe to admissions (called with the admitted count)."""
        self._admit_listeners.append(listener)

    def deadline_for(self, request_id: int) -> Optional[float]:
        """Absolute sim-time deadline of a request (None if unbounded)."""
        return self._deadlines.get(request_id)

    def release(self, request_id: int) -> None:
        """Forget a request's deadline once the request has settled."""
        self._deadlines.pop(request_id, None)

    def stamp(self, began: float, deadline_s: Optional[float] = None) -> int:
        """Admit one request whose :attr:`overhead_s` delay, begun at
        sim time ``began``, has elapsed; returns its request id.

        The caller (:meth:`repro.core.invoker.Invoker.invoke`) yields
        the delay itself, so admission adds no generator frame.
        ``deadline_s`` (relative) overrides the gateway default for
        this one request.
        """
        now = self.sim._now
        self.requests_admitted += 1
        if self.obs is not None:
            series = self._series
            if series is None:
                m = self.obs.metrics
                series = self._series = (
                    m.gateway_requests.child(),
                    m.gateway_admit_seconds.child(),
                )
            requests, admit_seconds = series
            requests.inc()
            admit_seconds.observe(now - began)
        request_id = next(self._request_ids)
        budget = deadline_s if deadline_s is not None else self.default_deadline_s
        if budget is not None:
            self._deadlines[request_id] = now + budget
        for listener in self._admit_listeners:
            listener(self.requests_admitted)
        return request_id
