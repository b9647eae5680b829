#!/usr/bin/env python
"""Pay-as-you-go billing and energy efficiency across PU kinds.

§4.1: Molecule prices PUs differently (DPU cheapest, FPGA dearest) and
users pick profiles by price and capability.  §6.6 adds that DPUs
promise better energy efficiency despite slower cores.  This example
runs the same function on CPU and DPU and compares the bill and the
marginal energy per request, then asks the billing ledger which kind
was cheaper per invocation.

Run:  python examples/billing_and_energy.py
"""

from repro import (
    FunctionCode,
    FunctionDef,
    Language,
    MoleculeRuntime,
    PuKind,
    WorkProfile,
)
from repro.hardware.power import EnergyMeter, energy_per_request


def main():
    molecule = MoleculeRuntime.create(num_dpus=1)
    function = FunctionDef(
        name="pyaes",
        code=FunctionCode("pyaes", language=Language.PYTHON, memory_mb=60),
        work=WorkProfile(warm_exec_ms=19.5),
        profiles=(PuKind.CPU, PuKind.DPU),
    )
    molecule.deploy_now(function)

    cpu_meter = EnergyMeter(molecule.machine.host_cpu)
    dpu_meter = EnergyMeter(molecule.machine.pu(1))

    requests = 20
    for _ in range(requests):
        molecule.invoke_now("pyaes", kind=PuKind.CPU)
        molecule.invoke_now("pyaes", kind=PuKind.DPU)

    ledger = molecule.ledger
    cpu_bill = ledger.by_pu_kind(PuKind.CPU)
    dpu_bill = ledger.by_pu_kind(PuKind.DPU)
    print(f"{requests} requests per PU kind:")
    print(f"  CPU: {cpu_bill.billed_ms:5d} billed ms -> {cpu_bill.cost:8.1f} credits, "
          f"{energy_per_request(cpu_meter, requests):6.2f} J/request")
    print(f"  DPU: {dpu_bill.billed_ms:5d} billed ms -> {dpu_bill.cost:8.1f} credits, "
          f"{energy_per_request(dpu_meter, requests):6.2f} J/request")
    print("\nThe DPU draws ~10x less marginal power, so even running ~6x"
          " longer it uses less energy per request -- but at these prices"
          " the *bill* still favours the CPU, since billed time grows"
          " faster than the price class shrinks.")

    cheapest = ledger.cheapest_kind_for("pyaes")
    per_inv_cpu = cpu_bill.cost / cpu_bill.invocations
    per_inv_dpu = dpu_bill.cost / dpu_bill.invocations
    print(f"\nobserved cost/invocation: cpu {per_inv_cpu:.1f} vs dpu {per_inv_dpu:.1f} "
          f"-> winner: {cheapest.value}")


if __name__ == "__main__":
    main()
