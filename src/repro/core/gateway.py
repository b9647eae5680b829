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
        self.overhead_ms = overhead_ms
        self.obs = obs
        self.default_deadline_s = default_deadline_s
        self._request_ids = request_ids if request_ids is not None else itertools.count(1)
        self.requests_admitted = 0
        self._deadlines: dict[int, float] = {}
        #: Called with the running admitted count after each admission
        #: (the fault injector's after-N-requests triggers hook in here).
        self._admit_listeners: list[Callable[[int], None]] = []

    def add_admit_listener(self, listener: Callable[[int], None]) -> None:
        """Subscribe to admissions (called with the admitted count)."""
        self._admit_listeners.append(listener)

    def deadline_for(self, request_id: int) -> Optional[float]:
        """Absolute sim-time deadline of a request (None if unbounded)."""
        return self._deadlines.get(request_id)

    def release(self, request_id: int) -> None:
        """Forget a request's deadline once the request has settled."""
        self._deadlines.pop(request_id, None)

    def admit(self, deadline_s: Optional[float] = None):
        """Generator: admit one request, returning its request id.

        ``deadline_s`` (relative) overrides the gateway default for
        this one request.
        """
        sim = self.sim
        began = sim._now
        yield sim.timeout(self.overhead_ms * config.MS)
        self.requests_admitted += 1
        if self.obs is not None:
            m = self.obs.metrics
            m.gateway_requests.inc()
            m.gateway_admit_seconds.observe(sim._now - began)
        request_id = next(self._request_ids)
        budget = deadline_s if deadline_s is not None else self.default_deadline_s
        if budget is not None:
            self._deadlines[request_id] = sim._now + budget
        for listener in self._admit_listeners:
            listener(self.requests_admitted)
        return request_id
