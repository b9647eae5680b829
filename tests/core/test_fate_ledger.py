"""The fate ledger: one fate per admitted request, checked at run end.

Unit checks of :class:`repro.core.reliability.FateLedger` (sub-reasons,
double settlement, each disagreement the end-of-run check catches),
then the check wired into ``repro faults``: a scenario whose dead
letters go missing raises, and ``repro faults --check`` exits 1.
"""

import re
from types import SimpleNamespace

import pytest

from repro import FunctionCode, FunctionDef, Language, WorkProfile
from repro.cli import main
from repro.core.invoker import Invoker
from repro.core.records import Attempt, InvocationResult
from repro.core.reliability import FateLedger
from repro.errors import (
    DeadlineExceeded,
    FateImbalance,
    RequestShed,
    RetriesExhaustedError,
    SandboxError,
)
from repro.faults import run_scenario
from repro.hardware.pu import PuKind
from repro.obs.spans import NULL_TRACE

_FN = FunctionDef(
    name="f", code=FunctionCode("f", language=Language.PYTHON),
    work=WorkProfile(warm_exec_ms=1.0), profiles=(PuKind.CPU,),
)


def _request(request_id):
    return Attempt(_FN, request_id, None, None, False, 0, None, 0.0,
                   NULL_TRACE)


def _result(**fields):
    return InvocationResult("f", 0, "cpu0", PuKind.CPU, False, 0.0, 0.0,
                            0.0, 0.0, **fields)


def _settled_ledger():
    ledger = FateLedger()
    outcomes = [
        lambda r: ledger.settle_answered(r, _result()),
        lambda r: ledger.settle_answered(r, _result(hedged=True)),
        lambda r: ledger.settle_answered(r, _result(cache="fresh")),
        lambda r: ledger.settle_answered(
            r, _result(cache="stale", cache_reason="shed")),
        lambda r: ledger.settle_shed(
            r, RequestShed("", reason="predicted_wait", gate="0")),
        lambda r: ledger.settle_dead(r, DeadlineExceeded("")),
        lambda r: ledger.settle_dead(r, RetriesExhaustedError("")),
        lambda r: ledger.settle_dead(r, SandboxError("")),
    ]
    for request_id, settle in enumerate(outcomes):
        ledger.admitted += 1
        settle(_request(request_id))
    return ledger


def test_sub_reasons_come_from_the_outcome():
    ledger = _settled_ledger()
    assert ledger.snapshot() == {
        "admitted": 8,
        "answered": {"executed": 1, "fresh": 1, "hedged": 1, "stale": 1},
        "shed": {"predicted_wait": 1},
        "dead": {"deadline": 1, "error": 1, "retries_exhausted": 1},
        "in_flight": 0,
    }
    assert ledger.shed_by_gate == {"0": 1}
    assert ledger.downgraded == 1
    ledger.check(admitted=8, dead=3)


def test_settling_twice_raises_and_stays_counted():
    ledger = FateLedger()
    ledger.admitted = 1
    request = _request(7)
    ledger.settle_answered(request, _result())
    assert request.fate == "answered"
    with pytest.raises(FateImbalance, match="request 7 settled twice"):
        ledger.settle_dead(request, DeadlineExceeded(""))
    # Swallowing the error does not hide it: the run end check fails.
    assert ledger.in_flight == -1
    with pytest.raises(FateImbalance, match="-1 requests in flight"):
        ledger.check(admitted=1, dead=1)


def _reuse(executed):
    return SimpleNamespace(served_fresh=1, served_stale=1, executed=executed)


@pytest.mark.parametrize("admitted, dead, reuse, needle", [
    (9, 3, None, "8 admitted, but the gateways admitted 9"),
    (8, 2, None, "3 dead, but 2 dead-lettered"),
    (8, 3, _reuse(executed=1), "fresh/stale/executed answers (1, 1, 2)"),
])
def test_check_names_each_disagreement(admitted, dead, reuse, needle):
    ledger = _settled_ledger()
    ledger.check(8, 3, _reuse(executed=2))
    with pytest.raises(FateImbalance, match=re.escape(needle)):
        ledger.check(admitted, dead, reuse)


def test_unsettled_request_fails_the_check():
    ledger = _settled_ledger()
    ledger.admitted += 1
    with pytest.raises(FateImbalance, match="1 requests in flight"):
        ledger.check(admitted=9, dead=3)


def _lose_dead_letters(monkeypatch):
    """Mutation: the retry loop stops parking dead requests."""
    monkeypatch.setattr(Invoker, "_dead_letter",
                        lambda self, request, attempts, errors, reason: None)


def test_fault_scenario_with_lost_dead_letters_raises(monkeypatch):
    summary = run_scenario("flaky-nipc", seed=7)
    assert summary["dead_lettered"] > 0 and summary["lost"] == 0
    _lose_dead_letters(monkeypatch)
    with pytest.raises(FateImbalance, match="dead-lettered"):
        run_scenario("flaky-nipc", seed=7)


def test_faults_check_exits_1_on_unbalanced_fates(monkeypatch, capsys):
    assert main(["faults", "flaky-nipc", "--seed", "7", "--check"]) == 0
    _lose_dead_letters(monkeypatch)
    assert main(["faults", "flaky-nipc", "--seed", "7", "--check"]) == 1
    err = capsys.readouterr().err
    assert "flaky-nipc: request fates do not balance" in err
    assert "UNBALANCED FATES in 1 scenario(s)" in err
