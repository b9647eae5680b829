"""Mutation-verified loser teardown.

The hedge race's correctness rests on two properties the happy path
never shows off: a losing copy must (a) stop before responding — no
duplicate answer, no duplicate bill — and (b) release its instance
exactly once.  This module runs a cold stampede that forces dozens of
races, asserts a *detector* over the runtime's books, then breaks the
cancellation path on purpose (monkeypatched mutations) and asserts the
same detector catches each break.  A refactor that silently disables
cancellation fails here, not in production.
"""

from collections import Counter

from repro import (
    FaultKind,
    FaultPlan,
    FaultSpec,
    FunctionCode,
    FunctionDef,
    HedgeConfig,
    Language,
    MoleculeRuntime,
    PuKind,
    WorkProfile,
)
from repro.core.invoker import Invoker
from repro.errors import ReproError
from repro.hedging.engine import _HedgeState

#: Aggressive enough that a 24-request cold stampede hedges most of the
#: queue (the fallback trigger fires long before any cold start ends).
_CFG = HedgeConfig(min_samples=99, default_trigger_s=0.02)


def _stampede(hedging, requests=24, fault_plan=None, seed=7):
    """Fire ``requests`` concurrent invocations of one cold function."""
    molecule = MoleculeRuntime.create(
        num_dpus=2, seed=seed, hedging=hedging, fault_plan=fault_plan
    )
    molecule.deploy_now(FunctionDef(
        name="tail",
        code=FunctionCode("tail", language=Language.PYTHON, import_ms=120.0),
        work=WorkProfile(warm_exec_ms=15.0),
        profiles=(PuKind.CPU, PuKind.DPU),
    ))

    outcomes = []

    def guarded():
        try:
            result = yield from molecule.invoke("tail")
            outcomes.append(result)
        except ReproError:
            outcomes.append(None)

    def drive():
        procs = [molecule.sim.spawn(guarded()) for _ in range(requests)]
        yield molecule.sim.all_of(procs)

    molecule.run(drive())
    return molecule, outcomes


def _violations(molecule, answered_ids):
    """Book-keeping violations a broken loser teardown produces."""
    found = []
    hedger = molecule.hedging
    if hedger.losers_completed:
        found.append(f"{hedger.losers_completed} losers ran to completion")
    # Exactly one normal (non-waste) bill per answered request: a loser
    # that responds bills its request a second time.
    normal = Counter(
        e.request_id for e in molecule.ledger.entries if not e.hedge_waste
    )
    doubles = [rid for rid, n in normal.items() if n > 1]
    if doubles:
        found.append(f"double-billed requests: {sorted(doubles)[:5]}")
    if set(normal) != answered_ids:
        found.append("billed request ids != answered request ids")
    # Instances parked back into the warm pools must be unique: a
    # double release duplicates pool entries (two future requests would
    # share one sandbox) and double-frees DRAM on eviction.
    idle = [
        inst
        for pool in molecule.invoker.pools.values()
        for inst in pool.idle_instances()
    ]
    if len(idle) != len({id(inst) for inst in idle}):
        found.append("duplicate instances in warm pools")
    for pu_id, pool in molecule.invoker.pools.items():
        pu = molecule.machine.pus[pu_id]
        expected = sum(
            inst.function.code.memory_mb for inst in pool.idle_instances()
        )
        if pu.dram_used_mb != expected:
            found.append(
                f"{pu.name} DRAM books off: used {pu.dram_used_mb}, "
                f"idle instances account {expected}"
            )
    return found


def test_stampede_races_and_keeps_the_books_clean():
    molecule, outcomes = _stampede(_CFG)
    assert len(outcomes) == 24 and all(o is not None for o in outcomes)
    hedger = molecule.hedging
    assert hedger.fired > 0
    assert hedger.fired >= hedger.won + hedger.cancelled
    assert _violations(molecule, {o.request_id for o in outcomes}) == []
    # Anti-affinity held in every resolved race.
    for event in hedger.events:
        if event["clone_pu"] is not None:
            assert event["clone_pu"] != event["primary_pu"]


def test_hedged_stampede_is_deterministic():
    first, first_outcomes = _stampede(_CFG)
    second, second_outcomes = _stampede(_CFG)
    assert first.hedging.snapshot() == second.hedging.snapshot()
    assert first.hedging.events == second.hedging.events
    assert first.sim.now == second.sim.now
    assert [o.total_s for o in first_outcomes] == [
        o.total_s for o in second_outcomes
    ]


# -- mutations: break the cancel path, watch the detector catch it -----------------


def test_mutation_disabled_checkpoints_is_caught(monkeypatch):
    """Blind the loss checkpoints: losers run to completion, respond,
    and double-bill — every signal the detector watches for."""
    monkeypatch.setattr(
        _HedgeState, "lost", lambda self, tag: False
    )
    molecule, outcomes = _stampede(_CFG)
    # The run still answers (first-wins claim is the last line of
    # defence against a duplicate *response*)...
    assert all(o is not None for o in outcomes)
    # ...but the books prove the teardown never happened.
    found = _violations(molecule, {o.request_id for o in outcomes})
    assert any("losers ran to completion" in v for v in found)
    assert any("double-billed" in v for v in found)


def test_mutation_double_release_is_caught(monkeypatch):
    """Release the loser's instance twice: the warm pools grow
    duplicate entries the detector flags."""
    original = Invoker._release_instance

    def double_release(self, instance):
        original(self, instance)
        original(self, instance)

    monkeypatch.setattr(Invoker, "_release_instance", double_release)
    molecule, outcomes = _stampede(_CFG)
    found = _violations(
        molecule, {o.request_id for o in outcomes if o is not None}
    )
    assert any(
        "duplicate instances" in v or "DRAM books off" in v for v in found
    )


# -- hedging x faults --------------------------------------------------------------


def test_clone_onto_crashing_pu_still_answers_once():
    """A PU crash taking out in-flight clones mid-race must not lose or
    double-answer any request: answered + dead == admitted, and no
    loser sneaks past its checkpoints."""
    plan = FaultPlan.of(
        FaultSpec(FaultKind.PU_CRASH, "dpu0", at_s=0.05,
                  reboot_after_s=0.5),
    )
    molecule, outcomes = _stampede(_CFG, fault_plan=plan)
    answered = [o for o in outcomes if o is not None]
    dead = len(molecule.dead_letters)
    admitted = molecule.gateway.requests_admitted
    assert admitted == 24
    assert len(answered) + dead == admitted
    # Each answered request was answered exactly once.
    assert len({o.request_id for o in answered}) == len(answered)
    hedger = molecule.hedging
    assert hedger.fired >= hedger.won + hedger.cancelled
    assert hedger.losers_completed == 0
