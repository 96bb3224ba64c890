"""Value helpers for the simulation kernel.

Signals in this kernel carry arbitrary Python objects.  Handshake wires
(valids, readies) are :class:`~repro.kernel.signal.ControlSignal` s and
hold only ``bool``; datapath signals may carry tuples, dataclasses, or
whole message blocks.  The special sentinel
:data:`X` models an unknown/don't-care value, mirroring the ``X`` of
4-state RTL simulators: it is what every signal holds before its driver has
run, and what a buffer's data output shows while it is empty.

Keeping datapath values opaque is a deliberate design decision (see
DESIGN.md §5): the paper's claims are about *control* behaviour at cycle
granularity, so the kernel only needs exact control semantics, while the
area/timing cost model consumes separately declared bit-widths.
"""

from __future__ import annotations

from typing import Any


class _Unknown:
    """Singleton sentinel for an unknown signal value (RTL ``X``)."""

    _instance: "_Unknown | None" = None

    def __new__(cls) -> "_Unknown":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "X"

    def __bool__(self) -> bool:
        # An unknown value must never silently steer control flow.
        raise ValueError("attempted boolean coercion of unknown value X")

    def __reduce__(self):
        return (_Unknown, ())


#: The unknown-value sentinel.  Compare with ``is`` (it is a singleton).
X = _Unknown()


def is_x(value: Any) -> bool:
    """Return True when *value* is the unknown sentinel :data:`X`."""
    return value is X


def as_bool(value: Any) -> bool:
    """Coerce a control-signal value to bool, rejecting :data:`X`.

    :class:`~repro.kernel.signal.ControlSignal` writes go through this
    helper, so a handshake wire driven with an unknown value fails loudly
    at the write instead of being silently treated as False.
    """
    if value is X:
        raise ValueError("control signal is X (undriven?)")
    return bool(value)


def same_value(a: Any, b: Any) -> bool:
    """Equality that treats :data:`X` specially and never raises.

    Used by the settle loop to detect signal changes and by the protocol
    monitors to check data stability.  Two ``X`` values compare equal; an
    ``X`` never equals a concrete value.  Values that raise on ``==`` are
    considered different (conservative: forces another settle iteration).
    """
    if a is b:
        return True
    if a is X or b is X:
        return False
    try:
        return bool(a == b)
    except Exception:
        return False


def state_changed(a: Any, b: Any) -> bool:
    """Inequality for registered-state snapshots that never raises.

    Used by component ``commit()`` implementations to report whether the
    cycle's state update actually changed anything.  Values that raise on
    ``==`` are considered changed (conservative: forces re-evaluation).
    """
    if a is b:
        return False
    try:
        return not bool(a == b)
    except Exception:
        return True
