"""The sandbox abstraction: OCI interfaces and their vectorized
extension (§3.5, Table 3).

Every sandbox runtime (``runc`` for CPU/DPU containers, ``runf`` for
FPGA, ``runG`` for GPU) implements the same five OCI verbs — *state,
create, start, kill, delete* — plus the vectorized variants that let a
runtime create/start/kill/delete a whole vector of sandboxes at once.
The default vectorized implementations loop over the scalar verbs;
``runf`` overrides them to pack a vector into a single FPGA image.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional, Sequence

from repro.errors import SandboxError, SandboxStateError
from repro.hardware.fpga import KernelSpec
from repro.sim import Simulator


class SandboxState(enum.Enum):
    """Lifecycle states reported by the ``state`` verb."""

    CREATING = "creating"
    CREATED = "created"
    RUNNING = "running"
    STOPPED = "stopped"
    DELETED = "deleted"


class Language(enum.Enum):
    """Language runtimes supported for general-purpose PUs (§5: Python
    and Node.js cover ~90% of AWS functions)."""

    PYTHON = "python"
    NODEJS = "nodejs"


class SignalNum(enum.IntEnum):
    """Signals accepted by the ``kill`` verb."""

    SIGTERM = 15
    SIGKILL = 9


@dataclass(frozen=True)
class FunctionCode:
    """The deployable artifact of one serverless function.

    For CPU/DPU functions, ``language`` plus ``import_ms`` (dependency
    import work a dedicated template pre-loads) describe the cold path.
    For accelerator functions, ``kernel`` is the compiled FPGA/GPU
    kernel.
    """

    func_id: str
    language: Optional[Language] = None
    kernel: Optional[KernelSpec] = None
    #: Dependency import cost on the reference CPU, paid at cold boot
    #: and skipped when forking from a dedicated template (§4.2).
    import_ms: float = 0.0
    #: Cold-path data preparation (downloads etc.) no startup
    #: optimisation can remove.
    data_ms: float = 0.0
    #: Instance DRAM footprint (admission control + density experiment).
    memory_mb: float = 60.0

    def __post_init__(self):
        if self.language is None and self.kernel is None:
            raise SandboxError(
                f"function {self.func_id!r} needs a language or a kernel"
            )
        if self.import_ms < 0 or self.data_ms < 0 or self.memory_mb < 0:
            raise SandboxError(f"negative cost in function {self.func_id!r}")


@dataclass
class Sandbox:
    """One sandbox instance managed through the OCI verbs."""

    sandbox_id: str
    code: FunctionCode
    state: SandboxState = SandboxState.CREATING
    created_at: float = 0.0
    started_at: Optional[float] = None
    #: Runtime-specific attachment (container, FPGA slot, ...).
    backend: Any = None

    def require_state(self, *allowed: SandboxState) -> None:
        """Raise unless the sandbox is in one of ``allowed`` states."""
        if self.state not in allowed:
            raise SandboxStateError(
                f"sandbox {self.sandbox_id!r} is {self.state.value}, "
                f"expected one of {[s.value for s in allowed]}"
            )


class SandboxRuntime:
    """Base class for OCI-compatible sandbox runtimes."""

    #: Human-readable runtime name ("runc", "runf", "runG").
    runtime_name = "abstract"

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._sandboxes: dict[str, Sandbox] = {}
        #: Optional :class:`repro.obs.Observability` hub; when set, the
        #: runtime reports per-verb latencies through it.
        self.obs = None

    def observe_verb(self, verb: str, began_s: float) -> None:
        """Report one OCI verb's duration (``began_s`` is the sim time
        captured at the verb's entry)."""
        if self.obs is not None:
            self.obs.metrics.sandbox_verb_seconds.child(
                self.runtime_name, verb
            ).observe(self.sim.now - began_s)

    # -- OCI scalar interface -------------------------------------------------------

    def state(self, sandbox_id: str) -> SandboxState:
        """OCI ``state``: query one sandbox's lifecycle state."""
        return self.get(sandbox_id).state

    def create(self, sandbox_id: str, code: FunctionCode):
        """OCI ``create``: generator building the sandbox."""
        raise NotImplementedError

    def start(self, sandbox_id: str):
        """OCI ``start``: generator running a created sandbox."""
        raise NotImplementedError

    def kill(self, sandbox_id: str, signal: SignalNum = SignalNum.SIGTERM):
        """OCI ``kill``: generator signalling a created/running sandbox."""
        sandbox = self.get(sandbox_id)
        sandbox.require_state(SandboxState.CREATED, SandboxState.RUNNING)
        yield self.sim.timeout(0.0)
        sandbox.state = SandboxState.STOPPED
        return sandbox

    def delete(self, sandbox_id: str):
        """OCI ``delete``: generator removing a sandbox."""
        raise NotImplementedError

    # -- vectorized interface (Table 3, bottom half) -----------------------------------

    def state_vector(self, sandbox_ids: Sequence[str]) -> list[SandboxState]:
        """Query a vector of sandboxes at once."""
        return [self.state(sid) for sid in sandbox_ids]

    def create_vector(self, entries: Sequence[tuple[str, FunctionCode]]):
        """Create a vector of sandboxes; default is a scalar loop."""
        created = []
        for sandbox_id, code in entries:
            sandbox = yield from self.create(sandbox_id, code)
            created.append(sandbox)
        return created

    def start_vector(self, sandbox_ids: Sequence[str]):
        """Start a vector of sandboxes concurrently."""
        procs = [self.sim.spawn(self.start(sid)) for sid in sandbox_ids]
        results = yield self.sim.all_of(procs)
        return [results[p] for p in procs]

    def kill_vector(self, entries: Sequence[tuple[str, SignalNum]]):
        """Signal a vector of sandboxes."""
        killed = []
        for sandbox_id, signal in entries:
            sandbox = yield from self.kill(sandbox_id, signal)
            killed.append(sandbox)
        return killed

    def delete_vector(self, sandbox_ids: Sequence[str]):
        """Delete a vector of sandboxes."""
        deleted = []
        for sandbox_id in sandbox_ids:
            sandbox = yield from self.delete(sandbox_id)
            deleted.append(sandbox)
        return deleted

    # -- bookkeeping ---------------------------------------------------------------------

    def get(self, sandbox_id: str) -> Sandbox:
        """Sandbox by id (raises for unknown ids)."""
        try:
            return self._sandboxes[sandbox_id]
        except KeyError:
            raise SandboxError(
                f"{self.runtime_name}: unknown sandbox {sandbox_id!r}"
            ) from None

    def register(self, sandbox: Sandbox) -> Sandbox:
        """Track a new sandbox (rejects duplicate ids)."""
        if sandbox.sandbox_id in self._sandboxes:
            raise SandboxError(
                f"{self.runtime_name}: duplicate sandbox id {sandbox.sandbox_id!r}"
            )
        self._sandboxes[sandbox.sandbox_id] = sandbox
        return sandbox

    def forget(self, sandbox_id: str) -> None:
        """Drop a sandbox from the table."""
        self._sandboxes.pop(sandbox_id, None)

    def sandboxes(self, *states: SandboxState) -> list[Sandbox]:
        """All sandboxes, optionally filtered by state."""
        boxes = list(self._sandboxes.values())
        if states:
            boxes = [b for b in boxes if b.state in states]
        return boxes
