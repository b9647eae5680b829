"""Exception hierarchy for the Molecule reproduction.

Every error raised by this library derives from :class:`ReproError` so
callers can catch library failures with a single ``except`` clause while
still being able to distinguish the subsystem that failed.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SimulationError(ReproError):
    """The simulation kernel was used incorrectly (e.g. double-trigger)."""


class Interrupt(ReproError):
    """Thrown into a simulated process by :meth:`Process.interrupt`.

    The ``cause`` attribute carries the value passed by the interrupter.
    """

    def __init__(self, cause=None):
        super().__init__(cause)
        self.cause = cause


class HardwareError(ReproError):
    """Base class for hardware-model errors."""


class RoutingError(HardwareError):
    """No interconnect route exists between two processing units."""


class FpgaResourceError(HardwareError):
    """An FPGA image does not fit the device's fabric resources."""


class FpgaStateError(HardwareError):
    """An FPGA operation was issued in an invalid device state."""


class OsError_(ReproError):
    """Base class for multi-OS substrate errors.

    Named with a trailing underscore to avoid shadowing the builtin
    ``OSError``.
    """


class UnknownProcessError(OsError_):
    """A PID does not name a live process on this OS instance."""


class FifoError(OsError_):
    """Invalid operation on a (local or XPU) FIFO."""


class XpuError(ReproError):
    """Base class for XPU-Shim errors."""


class CapabilityError(XpuError):
    """Permission denied by the distributed capability system."""


class UnknownObjectError(XpuError):
    """A distributed object id does not resolve to a live object."""


class SandboxError(ReproError):
    """Base class for sandbox-runtime errors."""


class SandboxStateError(SandboxError):
    """An OCI operation was invoked in a state that does not allow it."""


class SchedulingError(ReproError):
    """The control plane could not place a function instance."""


class ReliabilityError(ReproError):
    """Base class for the reliability layer's terminal request errors."""


class DeadlineExceeded(ReliabilityError):
    """A request overran the deadline stamped at gateway admission."""


class RetriesExhaustedError(ReliabilityError):
    """Every retry attempt of a request failed; it was dead-lettered.

    ``attempts`` is the number of attempts made and ``errors`` the
    per-attempt error strings, oldest first.
    """

    def __init__(self, message: str, attempts: int = 0, errors=()):
        super().__init__(message)
        self.attempts = attempts
        self.errors = tuple(errors)


class RequestShed(ReliabilityError):
    """The overload controller refused this request at shard admission
    (repro.overload): the bounded admission queue was full, or the
    queue wait (estimated up front or actually accrued) had already
    consumed the request's deadline budget.

    Terminal but deliberately *cheap*: a shed request never reaches the
    retry loop and is never dead-lettered — the client is expected to
    back off and resubmit against a less-loaded ingress.  ``reason`` is
    one of ``"queue_full"``, ``"predicted_wait"`` or ``"deadline"``;
    ``gate`` is the shard label of the admission gate that shed it.
    """

    def __init__(self, message: str, reason: str = "queue_full",
                 request_id=None, gate=None):
        super().__init__(message)
        self.reason = reason
        self.request_id = request_id
        self.gate = gate


class FateImbalance(ReliabilityError):
    """A run's request fates do not balance: the fate ledger disagrees
    with the gateways' admissions, the dead-letter queue or the result
    cache's answer classes, or some admitted request never settled."""


class FanoutPartialFailure(ReliabilityError):
    """A fan-out job (repro.futures) finished with some partitions in a
    terminal non-answer state: shed by the overload controller,
    dead-lettered out of retries, or expired past the deadline.

    The parent ``map``/``map_reduce`` call raises this instead of a
    partial result so callers never silently reduce over holes.
    ``done``/``shed``/``failed`` count the partition fates and
    ``errors`` carries one representative message per failed partition,
    in partition order.
    """

    def __init__(self, message: str, done: int = 0, shed: int = 0,
                 failed: int = 0, errors=()):
        super().__init__(message)
        self.done = done
        self.shed = shed
        self.failed = failed
        self.errors = tuple(errors)


class HedgeCancelled(ReproError):
    """A hedged request copy was cancelled because the other copy
    already answered (repro.hedging).  Internal control flow: raised at
    a cancellation checkpoint inside the invoker and always caught by
    the hedge join — it never reaches the retry loop or a caller.

    ``wasted_s`` carries the execution time the cancelled copy had
    already burned (0.0 when cancelled before executing).
    """

    def __init__(self, wasted_s: float = 0.0):
        super().__init__(wasted_s)
        self.wasted_s = wasted_s


class FaultInjectedError(ReproError):
    """An injected fault (PU crash, bitstream failure, ...) hit this
    operation.  Transient from the invoker's point of view: attempts
    failing with it are retried."""


class FaultPlanError(ReproError):
    """A fault plan is malformed (bad trigger, unknown kind, ...)."""


class RegistryError(ReproError):
    """Function registry misuse (duplicate or unknown function)."""


class WorkloadError(ReproError):
    """A workload definition is inconsistent or references no profile."""
