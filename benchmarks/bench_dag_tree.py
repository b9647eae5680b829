"""The Alexa skill as its real tree shape (fan-out, beyond the linear
chain approximation of Fig. 12).

smarthome fans out to door and light; with Molecule's direct-connect
FIFOs the two branches run concurrently, so the tree finishes faster
than the serialized 5-stage chain while measuring the same four edges.
"""

from repro import MoleculeRuntime
from repro.analysis.report import format_table
from repro.core.dag import alexa_tree
from repro.workloads import serverlessbench


def _run_tree():
    molecule = MoleculeRuntime.create(num_dpus=1)
    for function in serverlessbench.alexa_functions():
        molecule.deploy_now(function)
    dag = alexa_tree()
    engine = molecule.dag
    placements = engine.co_locate(dag, molecule.machine.host_cpu)
    molecule.run(engine.prepare(dag, placements))
    tree_result = molecule.run(engine.run(dag, placements))

    chain = serverlessbench.alexa_chain()
    chain_placements = [molecule.machine.host_cpu] * 5
    molecule.run(molecule.dag.prepare(chain, chain_placements))
    chain_result = molecule.run(molecule.run_chain(chain, chain_placements))
    return tree_result, chain_result


def bench_dag_tree_vs_chain(benchmark):
    tree, chain = benchmark(_run_tree)
    print()
    print(
        format_table(
            ["edge", "tree latency (ms)"],
            [
                (f"{src}->{dst}", f"{latency * 1e3:.3f}")
                for (src, dst), latency in sorted(tree.edge_latencies_s.items())
            ],
        )
    )
    print(f"tree total: {tree.total_ms:.2f} ms  vs  linear chain: "
          f"{chain.total_ms:.2f} ms (branches run concurrently)")
    assert len(tree.edge_latencies_s) == 4
    assert tree.total_s < chain.total_s  # fan-out parallelism
    for latency in tree.edge_latencies_s.values():
        assert 0.1e-3 < latency < 0.5e-3  # Fig. 12 Molecule band
