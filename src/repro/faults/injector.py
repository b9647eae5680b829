"""Deterministic fault injection over a running Molecule deployment.

The :class:`FaultInjector` executes a :class:`~repro.faults.plan.FaultPlan`
against a :class:`~repro.core.molecule.MoleculeRuntime`:

* ``at_s`` triggers become simulation timer processes,
* ``after_requests`` triggers hook the gateway's admission counter,
* each firing flips the corresponding failure surface — OS processes,
  ``runf``/``runG`` state, FIFO fault windows, interconnect degradation,
  FPGA bitstream loads — and records the event.

All randomness (probabilistic FIFO faults) comes from named forks of
the runtime's seeded RNG, so a given ``(seed, plan)`` pair replays the
exact same fault history on every run.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.errors import FaultPlanError
from repro.faults.plan import FaultKind, FaultPlan, FaultSpec
from repro.hardware.pu import ProcessingUnit
from repro.xpu.shim import FifoFault

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.molecule import MoleculeRuntime


class FaultInjector:
    """Drives a fault plan on the simulation loop."""

    def __init__(self, runtime: "MoleculeRuntime", plan: FaultPlan):
        self.runtime = runtime
        self.plan = plan
        #: Chronological record of fired faults: (sim_time, spec).
        self.fired: list[tuple[float, FaultSpec]] = []
        self._rng = runtime.rng.fork("faults")
        self._fifo_seq = 0
        #: Admission-triggered specs not yet fired: (threshold, spec).
        self._pending_admission: list[tuple[int, FaultSpec]] = []
        self._armed = False
        self._validate()

    # -- arming ------------------------------------------------------------------------

    def _validate(self) -> None:
        """Resolve every target eagerly so bad plans fail fast."""
        for spec in self.plan:
            if spec.kind in (FaultKind.PU_CRASH, FaultKind.BITSTREAM_FAIL):
                self._pu(spec.target)
            elif spec.kind is FaultKind.LINK_DEGRADE:
                self._link_endpoints(spec.target)

    def arm(self) -> None:
        """Install triggers.  Idempotent; called by ``start()``."""
        if self._armed:
            return
        self._armed = True
        sim = self.runtime.sim
        for spec in self.plan:
            if spec.at_s is not None:
                sim.spawn(
                    self._timer(spec),
                    name=f"fault:{spec.kind.value}@{spec.at_s}",
                )
            else:
                self._pending_admission.append((spec.after_requests, spec))
        if self._pending_admission:
            self.runtime.gateway.add_admit_listener(self._on_admit)

    def _timer(self, spec: FaultSpec):
        delay = spec.at_s - self.runtime.sim.now
        if delay > 0:
            yield self.runtime.sim.timeout(delay)
        self._fire(spec)

    def _on_admit(self, admitted: int) -> None:
        due = [entry for entry in self._pending_admission if entry[0] <= admitted]
        if not due:
            return
        self._pending_admission = [
            entry for entry in self._pending_admission if entry[0] > admitted
        ]
        for _threshold, spec in due:
            self._fire(spec)

    # -- firing ------------------------------------------------------------------------

    def _fire(self, spec: FaultSpec) -> None:
        handler = {
            FaultKind.PU_CRASH: self._fire_pu_crash,
            FaultKind.SANDBOX_KILL: self._fire_sandbox_kill,
            FaultKind.FIFO_DROP: self._fire_fifo,
            FaultKind.FIFO_DELAY: self._fire_fifo,
            FaultKind.LINK_DEGRADE: self._fire_link_degrade,
            FaultKind.BITSTREAM_FAIL: self._fire_bitstream_fail,
        }[spec.kind]
        handler(spec)
        self.fired.append((self.runtime.sim.now, spec))
        self.runtime.obs.metrics.faults_injected_total.child(spec.kind.value).inc()

    def _fire_pu_crash(self, spec: FaultSpec) -> None:
        runtime = self.runtime
        pu = self._pu(spec.target)
        runtime.health.mark_down(pu)
        if pu.pu_id in runtime.runcs:
            runtime.runcs[pu.pu_id].crash()
        elif pu.pu_id in runtime.runfs:
            runtime.runfs[pu.pu_id].crash()
        elif pu.pu_id in runtime.rungs:
            runtime.rungs[pu.pu_id].lose_context()
        if spec.reboot_after_s is not None:
            runtime.sim.spawn(
                self._reboot(pu, spec.reboot_after_s),
                name=f"reboot:{pu.name}",
            )

    def _reboot(self, pu: ProcessingUnit, delay_s: float):
        yield self.runtime.sim.timeout(delay_s)
        self.runtime.health.mark_up(pu)

    def _fire_sandbox_kill(self, spec: FaultSpec) -> None:
        """Kill sandboxes whose id or func_id matches the target, on
        every container runtime."""
        from repro.sandbox.base import SandboxState

        killed = 0
        for runc in self.runtime.runcs.values():
            for sandbox in list(runc._sandboxes.values()):
                if spec.target not in (sandbox.sandbox_id, sandbox.code.func_id):
                    continue
                backend = sandbox.backend
                if backend and backend.process and backend.process.alive:
                    backend.process.exit()
                sandbox.state = SandboxState.DELETED
                runc.forget(sandbox.sandbox_id)
                killed += 1
        if killed == 0:
            # Nothing matched *now*; that is fine — the plan may target a
            # sandbox that already finished.  Record it regardless.
            pass

    def _fire_fifo(self, spec: FaultSpec) -> None:
        sim = self.runtime.sim
        until = None if spec.duration_s is None else sim.now + spec.duration_s
        self._fifo_seq += 1
        fault = FifoFault(
            uuid=spec.target,
            mode="drop" if spec.kind is FaultKind.FIFO_DROP else "delay",
            probability=spec.probability,
            delay_s=spec.delay_s,
            until_s=until,
            rng=self._rng.fork(f"fifo-{self._fifo_seq}"),
        )
        self.runtime.cluster.fifo_faults.append(fault)

    def _fire_link_degrade(self, spec: FaultSpec) -> None:
        a, b = self._link_endpoints(spec.target)
        interconnect = self.runtime.machine.interconnect
        interconnect.degrade(
            a.pu_id,
            b.pu_id,
            latency_factor=spec.latency_factor,
            bandwidth_factor=spec.bandwidth_factor,
        )
        if spec.duration_s is not None:
            self.runtime.sim.spawn(
                self._restore_link(a.pu_id, b.pu_id, spec.duration_s),
                name=f"restore-link:{spec.target}",
            )

    def _restore_link(self, a: int, b: int, delay_s: float):
        yield self.runtime.sim.timeout(delay_s)
        self.runtime.machine.interconnect.restore(a, b)

    def _fire_bitstream_fail(self, spec: FaultSpec) -> None:
        pu = self._pu(spec.target)
        try:
            runf = self.runtime.runfs[pu.pu_id]
        except KeyError:
            raise FaultPlanError(
                f"bitstream_fail target {spec.target!r} is not an FPGA"
            ) from None
        runf.device.fail_next_programs += spec.count

    # -- lookup helpers ----------------------------------------------------------------

    def _pu(self, name: str) -> ProcessingUnit:
        for pu in self.runtime.machine.pus.values():
            if pu.name == name:
                return pu
        raise FaultPlanError(f"no PU named {name!r} in this machine")

    def _link_endpoints(self, target: str) -> tuple[ProcessingUnit, ProcessingUnit]:
        if "<->" not in target:
            raise FaultPlanError(
                f"link target must look like 'puA<->puB', got {target!r}"
            )
        left, _, right = target.partition("<->")
        return self._pu(left.strip()), self._pu(right.strip())

    # -- reporting ---------------------------------------------------------------------

    def summary(self) -> list[dict]:
        """JSON-friendly record of every fired fault, in firing order."""
        return [
            {"at_s": at, **spec.to_dict()}
            for at, spec in self.fired
        ]
