"""DAG goldens: the Molecule numbers of every chain-driven figure and
the Alexa tree's edge latencies, pinned exactly.

Chains and general DAGs run on one engine (``DagEngine.run``); a chain
is executed as a path graph.  The chain entries below pin what the
figures report (Fig. 9's molecule comm edge, Fig. 12's per-edge
latencies in all four placement cases, Fig. 14e's chain totals and the
direct-connect vs local-bus ablation), so a change to the engine that
moves any chain number fails here.  The tree entries pin the fan-out
DAG's edges, CPU-only and across PUs, under the engine's one
edge-latency definition: from the sender's end of execution to the
receiver's end of deserialization (Fig. 12's definition).

Values are in milliseconds, compared exactly.  A change that alters
them on purpose must regenerate ``data/dag_golden.json`` (run this
module as a script) and say so in review.
"""

import json
from pathlib import Path

from repro import MoleculeRuntime
from repro.analysis import ablations
from repro.analysis import experiments as ex
from repro.core.dag import DagEngine
from repro.workloads import serverlessbench

GOLDEN = Path(__file__).parent / "data" / "dag_golden.json"
MS = 1e-3

#: Alexa tree placements: node -> "cpu" | "dpu".
TREE_CASES = {
    "cpu": dict.fromkeys(["frontend", "interact", "smarthome", "door", "light"],
                         "cpu"),
    "cross_pu": {"frontend": "cpu", "interact": "dpu", "smarthome": "cpu",
                 "door": "dpu", "light": "cpu"},
}


def _chain_entries() -> dict:
    molecule_row = next(
        row for row in ex.fig9_commercial().rows if row.system == "molecule"
    )
    bus = ablations.dag_direct_vs_bus()
    return {
        "fig9_molecule_comm_ms": molecule_row.comm_ms,
        "fig12_molecule_edges_ms": {
            case.case: case.molecule_ms for case in ex.fig12_dag_comm().cases
        },
        "fig14e_molecule_total_ms": {
            f"{row.application}/{row.case}": row.molecule_ms
            for row in ex.fig14e_chains().rows
        },
        "dag_direct_vs_bus_ms": {
            "direct": bus.direct_total_ms, "bus": bus.bus_total_ms,
        },
    }


def _tree_edges_ms(kinds: dict) -> dict:
    # Imported here, not at the top, so the chain checks above import
    # and run against a tree where alexa_tree still lived elsewhere.
    from repro.core.dag import alexa_tree

    molecule = MoleculeRuntime.create(num_dpus=1)
    for function in serverlessbench.alexa_functions():
        molecule.deploy_now(function)
    pu_of = {"cpu": molecule.machine.host_cpu, "dpu": molecule.machine.pu(1)}
    placements = {node: pu_of[kind] for node, kind in kinds.items()}
    dag = alexa_tree()
    engine = DagEngine(molecule)
    molecule.run(engine.prepare(dag, placements))
    result = molecule.run(engine.run(dag, placements))
    return {
        f"{src}->{dst}": latency / MS
        for (src, dst), latency in result.edge_latencies_s.items()
    }


def _tree_entries() -> dict:
    return {case: _tree_edges_ms(kinds) for case, kinds in TREE_CASES.items()}


def _expected() -> dict:
    return json.loads(GOLDEN.read_text())


def test_chain_numbers_match_golden():
    assert _chain_entries() == _expected()["chains"]


def test_alexa_tree_edges_match_golden():
    assert _tree_entries() == _expected()["alexa_tree_edges_ms"]


def test_golden_covers_every_chain_figure():
    chains = _expected()["chains"]
    assert sorted(chains["fig12_molecule_edges_ms"]) == [
        "CPU to CPU", "CPU to DPU", "DPU to CPU", "DPU to DPU",
    ]
    assert len(chains["fig14e_molecule_total_ms"]) == 6


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    GOLDEN.parent.mkdir(exist_ok=True)
    golden = {"chains": _chain_entries(), "alexa_tree_edges_ms": _tree_entries()}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"regenerated {GOLDEN}")
