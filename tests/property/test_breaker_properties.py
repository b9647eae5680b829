"""The settled-breaker fast paths change nothing observable.

``HealthRegistry.begin_attempt`` returns at once for an existing
CLOSED breaker, ``HealthRegistry.record_success`` for a settled one
(CLOSED, no failures, no probe in flight), and
``CircuitBreaker.record_success`` skips its no-op transition.  Over any
sequence of attempts, outcomes, crashes, reboots, availability checks
and clock advances, a registry with those fast paths must agree with a
reference registry that always takes the full path: the same
``states()``, ``version``, breaker transition logs and
``repro_breaker_transitions_total`` counts.
"""

from types import SimpleNamespace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.reliability import BreakerState, CircuitBreaker, HealthRegistry
from repro.obs import Observability


class _ReferenceBreaker(CircuitBreaker):
    """A breaker whose success always runs the transition."""

    def record_success(self, now: float) -> None:
        self.consecutive_failures = 0
        self.probe_in_flight = False
        self._transition(BreakerState.CLOSED, now)


class _ReferenceRegistry(HealthRegistry):
    """A registry with every fast path patched out."""

    def breaker(self, pu):
        self._names[pu.pu_id] = pu.name
        breaker = self._breakers.get(pu.pu_id)
        if breaker is None:
            breaker = _ReferenceBreaker(self.failure_threshold, self.open_s)
            breaker.on_change = self._bump
            self._breakers[pu.pu_id] = breaker
        return breaker

    def begin_attempt(self, pu) -> None:
        if self.breaker(pu).begin_attempt(self.sim._now):
            self._bump()

    def record_success(self, pu) -> None:
        breaker = self.breaker(pu)
        before = breaker.state
        breaker.record_success(self.sim._now)
        self._observe(pu, before, breaker.state)


class _Clock:
    """The only part of a simulator a health registry reads."""

    def __init__(self):
        self._now = 0.0

    @property
    def now(self) -> float:
        return self._now


_PUS = tuple(SimpleNamespace(pu_id=i, name=f"pu{i}") for i in range(2))

#: Failures and availability checks come up more often than the rest,
#: so runs reach OPEN, HALF_OPEN and the probe regularly.
_PU_OPS = (
    ["record_failure"] * 3 + ["available"] * 2 + ["begin_attempt"] * 2
    + ["record_success", "mark_down", "mark_up"]
)

_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.sampled_from(_PU_OPS),
            st.integers(min_value=0, max_value=len(_PUS) - 1),
        ),
        st.tuples(st.just("advance"), st.sampled_from([0.0, 0.5, 1.0, 2.5])),
    ),
    min_size=20, max_size=60,
)

#: Sequences through each breaker path, run on every test run.
_TRIP = [("record_failure", 0), ("record_failure", 0), ("advance", 1.0),
         ("available", 0)]
_EXAMPLES = (
    # A half-open probe claimed, then answered or failed.
    _TRIP + [("begin_attempt", 0), ("record_success", 0)],
    _TRIP + [("begin_attempt", 0), ("record_failure", 0), ("available", 0)],
    # A success that clears a counted failure.
    [("record_failure", 1), ("record_success", 1), ("record_failure", 1)],
    # A crash and reboot around an open breaker.
    _TRIP[:2] + [("mark_down", 0), ("begin_attempt", 0), ("mark_up", 0),
                 ("record_success", 0)],
)


def _registry(cls):
    clock = _Clock()
    obs = Observability(clock)
    return cls(clock, failure_threshold=2, open_s=1.0, obs=obs), clock, obs


def _observable(registry, obs):
    breakers = {
        pu_id: (breaker.state, breaker.consecutive_failures,
                breaker.probe_in_flight, breaker.opened_at,
                list(breaker.transitions))
        for pu_id, breaker in registry._breakers.items()
    }
    counts = obs.metrics.breaker_transitions_total.to_dict()["series"]
    return (registry.states(), registry.version, breakers, counts,
            sorted(registry.down), dict(registry.epochs))


def _with_examples(test):
    for ops in _EXAMPLES:
        test = example(ops=ops)(test)
    return test


@settings(max_examples=100, deadline=None)
@_with_examples
@given(ops=_OPS)
def test_fast_paths_match_the_full_path(ops):
    fast, fast_clock, fast_obs = _registry(HealthRegistry)
    full, full_clock, full_obs = _registry(_ReferenceRegistry)
    for op, arg in ops:
        if op == "advance":
            fast_clock._now += arg
            full_clock._now += arg
            continue
        pu = _PUS[arg]
        assert getattr(fast, op)(pu) == getattr(full, op)(pu), (op, arg)
        assert _observable(fast, fast_obs) == _observable(full, full_obs)


def test_fast_paths_are_taken():
    """The property compares something: a settled breaker's success and
    a closed breaker's attempt skip the full path entirely."""
    registry, _clock, obs = _registry(HealthRegistry)
    pu = _PUS[0]
    registry.record_success(pu)      # first use creates the breaker
    breaker = registry.breaker(pu)
    breaker.record_success = breaker.begin_attempt = None  # would raise
    registry.begin_attempt(pu)
    registry.record_success(pu)
    assert registry.states() == {"pu0": "closed"}
    assert obs.metrics.breaker_transitions_total.to_dict()["series"] == []
