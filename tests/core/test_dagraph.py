"""Tests for general function DAGs (fan-out / fan-in)."""

import pytest

from repro import (
    FunctionCode,
    FunctionDef,
    Language,
    MoleculeRuntime,
    PuKind,
    WorkProfile,
)
from repro.core.dag import (
    DagEdge,
    DagEngine,
    FunctionDag,
    alexa_tree,
)
from repro.errors import SchedulingError, WorkloadError


def chain_fn(name, warm_ms=3.78):
    return FunctionDef(
        name=name,
        code=FunctionCode(name, language=Language.NODEJS),
        work=WorkProfile(warm_exec_ms=warm_ms, dpu_slowdown=2.0),
        profiles=(PuKind.CPU, PuKind.DPU),
    )


# -- DAG structure ----------------------------------------------------------------


def test_dag_requires_edges():
    with pytest.raises(WorkloadError):
        FunctionDag("empty", [])


def test_dag_rejects_cycles():
    with pytest.raises(WorkloadError):
        FunctionDag("loop", [DagEdge("a", "b"), DagEdge("b", "a")])


def test_dag_requires_single_entry():
    with pytest.raises(WorkloadError):
        FunctionDag("two-roots", [DagEdge("a", "c"), DagEdge("b", "c")])


def test_single_node_dag():
    dag = FunctionDag("solo", [], nodes=["a"])
    assert dag.nodes == ["a"]
    assert dag.entry == "a"
    assert dag.sinks == ["a"]
    assert dag.edges == []


def test_alexa_tree_shape():
    dag = alexa_tree()
    assert dag.entry == "frontend"
    assert sorted(dag.sinks) == ["door", "light"]
    assert dag.nodes[0] == "frontend"
    assert len(dag.edges) == 4


def test_topological_nodes_respect_edges():
    dag = FunctionDag(
        "diamond",
        [DagEdge("a", "b"), DagEdge("a", "c"), DagEdge("b", "d"), DagEdge("c", "d")],
    )
    order = dag.nodes
    assert order.index("a") < order.index("b") < order.index("d")
    assert order.index("a") < order.index("c") < order.index("d")
    assert dag.sinks == ["d"]


def test_topological_order_is_pinned():
    """Generations in order, each generation in the order its nodes
    became ready."""
    assert alexa_tree().nodes == [
        "frontend", "interact", "smarthome", "door", "light",
    ]
    diamond = FunctionDag(
        "diamond",
        [DagEdge("a", "b"), DagEdge("a", "c"), DagEdge("b", "d"), DagEdge("c", "d")],
    )
    assert diamond.nodes == ["a", "b", "c", "d"]
    wide = FunctionDag(
        "wide",
        [DagEdge("r", "z"), DagEdge("r", "y"), DagEdge("y", "x"),
         DagEdge("z", "x"), DagEdge("r", "x")],
    )
    assert wide.nodes == ["r", "z", "y", "x"]
    assert [(e.src, e.dst) for e in wide.edges] == [
        ("r", "z"), ("r", "y"), ("r", "x"), ("z", "x"), ("y", "x"),
    ]


def test_self_loop_is_a_cycle():
    with pytest.raises(WorkloadError):
        FunctionDag("self", [DagEdge("a", "b"), DagEdge("b", "b")])


def test_critical_path_weighted_by_exec():
    dag = FunctionDag(
        "diamond",
        [DagEdge("a", "b"), DagEdge("a", "c"), DagEdge("b", "d"), DagEdge("c", "d")],
    )
    weights = {"a": 1.0, "b": 10.0, "c": 1.0, "d": 1.0}
    path = dag.critical_path(lambda node: weights[node])
    assert path == ["a", "b", "d"]


# -- execution ----------------------------------------------------------------------


@pytest.fixture
def runtime():
    molecule = MoleculeRuntime.create(num_dpus=1)
    for name in ("frontend", "interact", "smarthome", "door", "light"):
        molecule.deploy_now(chain_fn(name))
    return molecule


def test_alexa_tree_executes_end_to_end(runtime):
    dag = alexa_tree()
    engine = DagEngine(runtime)
    placements = engine.co_locate(dag, runtime.machine.host_cpu)
    runtime.run(engine.prepare(dag, placements))
    result = runtime.run(engine.run(dag, placements))
    assert result.total_s > 0
    # All four edges measured.
    assert set(result.edge_latencies_s) == {
        ("frontend", "interact"),
        ("interact", "smarthome"),
        ("smarthome", "door"),
        ("smarthome", "light"),
    }
    # Same-PU edges land in the Fig. 12 Molecule band.
    for latency in result.edge_latencies_s.values():
        assert 0.1e-3 < latency < 0.5e-3


def test_fanout_branches_run_concurrently(runtime):
    # door and light execute in parallel after smarthome: the tree's
    # total is far less than a serialized 5-stage chain would be.
    dag = alexa_tree()
    engine = DagEngine(runtime)
    placements = engine.co_locate(dag, runtime.machine.host_cpu)
    runtime.run(engine.prepare(dag, placements))
    result = runtime.run(engine.run(dag, placements))
    # Critical path: frontend+interact+smarthome+max(door,light) = 4 execs.
    exec_each = 3.78e-3
    assert result.total_s < 5 * exec_each + 4e-3
    assert result.exec_s == pytest.approx(5 * exec_each, rel=0.01)


def test_fan_in_waits_for_all_predecessors(runtime):
    runtime.deploy_now(chain_fn("join"))
    runtime.deploy_now(chain_fn("slow", warm_ms=20.0))
    dag = FunctionDag(
        "fanin",
        [
            DagEdge("frontend", "slow"),
            DagEdge("frontend", "interact"),
            DagEdge("slow", "join"),
            DagEdge("interact", "join"),
        ],
    )
    engine = DagEngine(runtime)
    placements = engine.co_locate(dag, runtime.machine.host_cpu)
    runtime.run(engine.prepare(dag, placements))
    result = runtime.run(engine.run(dag, placements))
    # join cannot fire before the slow branch: total > slow + 2 stages.
    assert result.total_s > (3.78 + 20.0 + 3.78) * 1e-3


def test_cross_pu_dag_edges_use_nipc(runtime):
    dag = alexa_tree()
    engine = DagEngine(runtime)
    cpu, dpu = runtime.machine.host_cpu, runtime.machine.pu(1)
    placements = {
        "frontend": cpu, "interact": dpu, "smarthome": cpu,
        "door": dpu, "light": cpu,
    }
    runtime.run(engine.prepare(dag, placements))
    result = runtime.run(engine.run(dag, placements))
    cross = result.edge_latencies_s[("frontend", "interact")]
    local = result.edge_latencies_s[("smarthome", "light")]
    assert cross > local


def test_run_requires_prepared_instances(runtime):
    dag = alexa_tree()
    engine = DagEngine(runtime)
    placements = engine.co_locate(dag, runtime.machine.host_cpu)
    with pytest.raises(SchedulingError):
        runtime.run(engine.run(dag, placements))


def test_prepare_requires_full_placement(runtime):
    dag = alexa_tree()
    engine = DagEngine(runtime)
    with pytest.raises(SchedulingError):
        runtime.run(engine.prepare(dag, {"frontend": runtime.machine.host_cpu}))
