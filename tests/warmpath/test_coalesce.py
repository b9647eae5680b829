"""Cold-start coalescing: batch bookkeeping units plus the end-to-end
storm behavior (N concurrent misses served by far fewer sandboxes)."""

from repro import (
    FunctionCode,
    FunctionDef,
    Language,
    MoleculeRuntime,
    PuKind,
    WarmPathConfig,
    WorkProfile,
)
from repro.errors import ReproError
from repro.sim import Simulator
from repro.warmpath.coalesce import ColdStartCoalescer
from repro.warmpath.engine import MAX_BATCH


# -- bookkeeping units -------------------------------------------------------------


def test_lookup_finds_only_open_batches():
    sim = Simulator()
    coalescer = ColdStartCoalescer()
    batch = coalescer.begin("f", 0)
    assert coalescer.lookup("f", (0, 1)) is batch
    assert coalescer.lookup("f", (1,)) is None
    assert coalescer.lookup("g", (0,)) is None
    coalescer.close(batch)
    assert coalescer.lookup("f", (0,)) is None


def test_deliver_is_fifo_and_counts():
    sim = Simulator()
    coalescer = ColdStartCoalescer()
    batch = coalescer.begin("f", 0)
    first = batch.join(sim)
    second = batch.join(sim)
    assert coalescer.deliver(batch, "inst-1") is True
    assert first.triggered and first.value == "inst-1"
    assert not second.triggered
    assert coalescer.deliver(batch, "inst-2") is True
    assert second.value == "inst-2"
    assert coalescer.deliver(batch, "inst-3") is False  # nobody waiting
    assert batch.served == 2
    assert coalescer.followers_served == 2


def test_close_requeues_leftover_followers_with_none():
    sim = Simulator()
    coalescer = ColdStartCoalescer()
    batch = coalescer.begin("f", 0)
    waiter = batch.join(sim)
    coalescer.close(batch)
    assert waiter.triggered and waiter.value is None
    assert coalescer.followers_requeued == 1
    assert not batch.open


# -- the storm ---------------------------------------------------------------------


def _storm(warmpath, requests=40, memory_mb=None, seed=7):
    """Fire ``requests`` concurrent invocations of one cold function."""
    molecule = MoleculeRuntime.create(num_dpus=1, seed=seed, warmpath=warmpath)
    if memory_mb is None:
        memory_mb = 128
    molecule.deploy_now(FunctionDef(
        name="storm",
        code=FunctionCode("storm", language=Language.PYTHON,
                          import_ms=120.0, memory_mb=memory_mb),
        work=WorkProfile(warm_exec_ms=15.0),
        profiles=(PuKind.CPU,),
    ))

    outcomes = []

    def guarded():
        try:
            result = yield from molecule.invoke("storm", kind=PuKind.CPU)
            outcomes.append(result)
        except ReproError:
            outcomes.append(None)

    def drive():
        procs = [molecule.sim.spawn(guarded()) for _ in range(requests)]
        yield molecule.sim.all_of(procs)

    molecule.run(drive())
    return molecule, [r for r in outcomes if r is not None]


def test_storm_coalesces_into_fewer_sandboxes():
    molecule, answered = _storm(WarmPathConfig(), requests=40)
    invoker = molecule.invoker
    engine = molecule.warmpath
    assert len(answered) == 40
    # One single-flight batch; one real cold start leads it.
    assert engine.coalescer.batches_opened == 1
    assert invoker.cold_invocations == 1
    assert invoker.coalesced_invocations == 39
    sandboxes = (invoker.cold_invocations + engine.extra_spawned
                 + engine.prewarm_spawned)
    assert sandboxes < 40  # the acceptance bar: fewer sandboxes than requests
    assert sandboxes <= MAX_BATCH
    assert engine.snapshot()["coalesced_served"] == 39


def test_storm_engine_off_forks_per_request():
    molecule, answered = _storm(None, requests=40)
    assert len(answered) == 40
    assert molecule.invoker.cold_invocations == 40
    assert molecule.invoker.coalesced_invocations == 0


def test_storm_under_memory_pressure_survives_only_with_coalescing():
    # DRAM only admits ~an eighth of the storm at once: uncoalesced
    # misses overflow into placement failures, a coalesced batch
    # recycles its capped instance set through every request.
    def pressured(warmpath):
        molecule = MoleculeRuntime.create(num_dpus=1, seed=7,
                                          warmpath=warmpath)
        memory_mb = int(molecule.machine.host_cpu.dram_free_mb // 5)
        return _storm_on(molecule, memory_mb)

    def _storm_on(molecule, memory_mb, requests=40):
        molecule.deploy_now(FunctionDef(
            name="storm",
            code=FunctionCode("storm", language=Language.PYTHON,
                              import_ms=120.0, memory_mb=memory_mb),
            work=WorkProfile(warm_exec_ms=15.0),
            profiles=(PuKind.CPU,),
        ))
        outcomes = []

        def guarded():
            try:
                result = yield from molecule.invoke("storm", kind=PuKind.CPU)
                outcomes.append(result)
            except ReproError:
                outcomes.append(None)

        def drive():
            procs = [molecule.sim.spawn(guarded()) for _ in range(requests)]
            yield molecule.sim.all_of(procs)

        molecule.run(drive())
        return molecule, [r for r in outcomes if r is not None]

    _off_rt, off_answered = pressured(None)
    on_rt, on_answered = pressured(WarmPathConfig())
    assert len(on_answered) == 40
    assert len(off_answered) < len(on_answered)


def test_leader_failure_requeues_followers():
    # A leader whose cold start dies must wake its followers so they
    # retry instead of hanging forever; the sim draining proves it.
    from repro import FaultKind, FaultPlan, FaultSpec

    plan = FaultPlan.of(FaultSpec(FaultKind.PU_CRASH, "cpu0",
                                  at_s=0.005, reboot_after_s=0.05))
    molecule = MoleculeRuntime.create(num_dpus=1, seed=7,
                                      warmpath=WarmPathConfig(),
                                      fault_plan=plan)
    molecule.deploy_now(FunctionDef(
        name="storm",
        code=FunctionCode("storm", language=Language.PYTHON,
                          import_ms=120.0),
        work=WorkProfile(warm_exec_ms=15.0),
        profiles=(PuKind.CPU, PuKind.DPU),
    ))

    outcomes = []

    def guarded():
        try:
            result = yield from molecule.invoke("storm")
            outcomes.append(result)
        except ReproError:
            outcomes.append(None)

    def drive():
        procs = [molecule.sim.spawn(guarded()) for _ in range(8)]
        yield molecule.sim.all_of(procs)

    molecule.run(drive())  # drains: no follower is stranded
    assert len(outcomes) == 8
