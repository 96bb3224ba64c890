"""Exception hierarchy for the RTL simulation kernel.

Every error raised by :mod:`repro.kernel` derives from :class:`KernelError`
so callers can catch simulation problems without also catching unrelated
Python errors.
"""

from __future__ import annotations


class KernelError(Exception):
    """Base class for all simulation-kernel errors."""


class ConvergenceError(KernelError):
    """Combinational logic failed to reach a fixed point.

    Raised by :class:`repro.kernel.simulator.Simulator` when the settle loop
    exceeds its iteration budget.  The attached ``unstable`` list names the
    signals that were still changing, which almost always points at a
    combinational cycle (for example an arbiter whose grant depends on a
    downstream ready that depends on the grant).
    """

    def __init__(self, cycle: int, iterations: int, unstable: list[str]):
        self.cycle = cycle
        self.iterations = iterations
        self.unstable = list(unstable)
        names = ", ".join(self.unstable[:12])
        if len(self.unstable) > 12:
            names += ", ..."
        super().__init__(
            f"combinational settle did not converge at cycle {cycle} after "
            f"{iterations} iterations; unstable signals: [{names}]"
        )


class ProtocolError(KernelError):
    """An elastic-protocol invariant was violated.

    Raised by the protocol monitors in :mod:`repro.elastic.monitor` and
    :mod:`repro.core.monitor`, e.g. when data changes while ``valid`` is
    high and ``ready`` is low, or when more than one thread asserts
    ``valid`` on a multithreaded channel.
    """


class WiringError(KernelError):
    """A structural problem in how components were connected.

    Examples: a signal driven by two components, a port left unconnected at
    elaboration time, or a channel connected to two consumers.
    """


class SimulationError(KernelError):
    """A generic runtime failure during simulation (bad state, bad value)."""


class EnsembleUnsupported(KernelError):
    """A design contains a component that is not ensemble-safe.

    Raised by :func:`repro.kernel.ensemble.lift_simulator` when a
    component's ``ENSEMBLE_DATA`` contract is ``"unsafe"`` (the default),
    or by a component's ``ensemble_lift`` when a per-instance check fails
    (e.g. an :class:`~repro.core.function.MTFunction` whose callable is
    declared non-pure).  Callers fall back to serial execution.
    """


class EnsembleDivergence(KernelError):
    """Lanes of an ensemble stopped agreeing on control flow.

    Raised by a lifted :class:`~repro.core.operators.MBranch` selector
    when live lanes select different output ports (control flow is no
    longer identical across the ensemble), or when every lane of a row
    has already failed.  Callers fall back to serial execution, which is
    always correct.
    """


class SnapshotError(KernelError):
    """A simulator snapshot could not be taken or restored.

    Raised by :mod:`repro.kernel.snapshot` when a component holds state
    that cannot be copied (e.g. a live iterator), or when a snapshot is
    restored onto a simulator whose structure no longer matches it.
    """
