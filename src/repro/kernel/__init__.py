"""Cycle-accurate structural RTL simulation kernel.

This package is the substrate everything else in :mod:`repro` stands on:
a small synchronous-hardware simulator with two-phase evaluation
(combinational fixed point, then race-free register capture/commit).  See
:mod:`repro.kernel.simulator` for the evaluation model.
"""

from repro.kernel.component import Component
from repro.kernel.engine import ENGINES, CompiledEngine, NaiveEngine
from repro.kernel.ensemble import (
    POISON,
    EnsembleContext,
    lift_simulator,
)
from repro.kernel.errors import (
    ConvergenceError,
    EnsembleDivergence,
    EnsembleUnsupported,
    KernelError,
    ProtocolError,
    SimulationError,
    SnapshotError,
    WiringError,
)
from repro.kernel.signal import ControlSignal, Signal, const
from repro.kernel.simulator import Simulator, WatchedPredicate, build
from repro.kernel.slots import SeqPlan, SeqStore, SlotStore
from repro.kernel.snapshot import SimSnapshot
from repro.kernel.trace import TraceRecorder, trace_signals
from repro.kernel.values import X, as_bool, is_x, same_value

__all__ = [
    "CompiledEngine",
    "Component",
    "ControlSignal",
    "ConvergenceError",
    "ENGINES",
    "EnsembleContext",
    "EnsembleDivergence",
    "EnsembleUnsupported",
    "NaiveEngine",
    "KernelError",
    "POISON",
    "ProtocolError",
    "SimSnapshot",
    "SimulationError",
    "Signal",
    "Simulator",
    "SnapshotError",
    "SeqPlan",
    "SeqStore",
    "SlotStore",
    "TraceRecorder",
    "WatchedPredicate",
    "WiringError",
    "X",
    "lift_simulator",
    "as_bool",
    "build",
    "const",
    "is_x",
    "same_value",
    "trace_signals",
]
