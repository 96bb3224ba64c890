"""Signals: named value holders connecting components.

A :class:`Signal` is the kernel's wire.  It has exactly one logical driver
(enforced loosely through :meth:`Signal.set_driver`), a current value, and a
declared bit-width used only by the cost model and the trace renderer.

A signal is a mutable cell with change tracking.  Under the simulator's
naive engine the change tracking is purely passive (the settle loop
snapshots and compares); under the compiled engine every signal additionally
carries the indices of the components that declared a combinational read
of it (``_readers``) plus a back-reference to the live engine, so a
:meth:`Signal.set` that actually changes the value can mark exactly the
affected readers dirty instead of forcing a whole-design re-evaluation.

Storage is **slot-indexed**: a signal's value lives at ``_store[_slot]``
where ``_store`` is a plain Python list.  A freshly created signal owns a
private one-element list; when the simulator finalizes, a
:class:`~repro.kernel.slots.SlotStore` re-homes every signal into one
shared flat list so that the compiled settle engine (and any vectorized
``compile_comb`` path) can read and write raw slots — slices included —
without ever touching the Signal object, while ``Signal.get``/``set``
keep observing the exact same cells.

Handshake wires (the ``valid``/``ready`` pairs of every elastic channel)
are :class:`ControlSignal` s: they canonicalize at the write, so their
slots only ever hold ``True`` or ``False`` and every reader — scalar or
slot-compiled — can take them raw.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.kernel.errors import WiringError
from repro.kernel.values import X, as_bool, same_value

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.component import Component


class Signal:
    """A named wire carrying an arbitrary Python value.

    Parameters
    ----------
    name:
        Local name; the full hierarchical name is assigned when the owning
        component is registered with a simulator.
    width:
        Declared bit-width.  Purely descriptive for control signals
        (width 1); the cost model uses it for datapath sizing.
    init:
        Initial value (defaults to the unknown sentinel ``X``).
    """

    __slots__ = (
        "name", "width", "_store", "_slot", "_driver", "_engine",
        "_readers",
    )

    def __init__(self, name: str, width: int = 1, init: Any = X):
        self.name = name
        self.width = int(width)
        # Slot-indexed storage: a private one-element list until a
        # SlotStore re-homes the signal into the design-wide flat list.
        self._store: list[Any] = [init]
        self._slot = 0
        self._driver: "Component | None" = None
        # Filled in by the compiled engine at finalize time: the engine
        # itself and the indices of the declared reader components.
        self._engine: Any = None
        self._readers: tuple[int, ...] = ()

    # ------------------------------------------------------------------
    # value access
    # ------------------------------------------------------------------
    @property
    def value(self) -> Any:
        """Current value of the signal."""
        return self._store[self._slot]

    def get(self) -> Any:
        """Return the current value (alias of :attr:`value`)."""
        return self._store[self._slot]

    def set(self, value: Any) -> bool:
        """Drive *value* onto the signal.

        Returns True when the value actually changed, which the settle loop
        uses to decide whether another iteration is needed.
        """
        store = self._store
        slot = self._slot
        old = store[slot]
        if old is value or same_value(old, value):
            return False
        store[slot] = value
        engine = self._engine
        if engine is not None:
            engine.note_change(self, old)
        return True

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    def set_driver(self, component: "Component") -> None:
        """Record the driving component, rejecting double drivers."""
        if self._driver is not None and self._driver is not component:
            raise WiringError(
                f"signal {self.name!r} already driven by "
                f"{self._driver.name!r}; cannot also be driven by "
                f"{component.name!r}"
            )
        self._driver = component

    @property
    def driver(self) -> "Component | None":
        return self._driver

    def __repr__(self) -> str:
        return (
            f"Signal({self.name!r}, width={self.width}, "
            f"value={self._store[self._slot]!r})"
        )


class ControlSignal(Signal):
    """A one-bit handshake wire whose slot only ever holds a bool.

    :meth:`set` stores ``True``/``False`` as given, maps any other value
    through ``bool`` (so a truthy non-bool such as ``2`` is asserted on
    every engine) and raises :class:`ValueError` on :data:`X`, leaving
    the wire's previous value in place.  Reset value is ``False``.
    Slot-compiled steps that write handshake slots directly, bypassing
    :meth:`set`, must write bools.
    """

    __slots__ = ()

    def __init__(self, name: str):
        super().__init__(name, init=False)

    def set(self, value: Any) -> bool:
        if value is not True and value is not False:
            value = as_bool(value)
        store = self._store
        slot = self._slot
        old = store[slot]
        if old is value:
            return False
        store[slot] = value
        engine = self._engine
        if engine is not None:
            engine.note_change(self, old)
        return True


def const(name: str, value: Any, width: int = 1) -> Signal:
    """Create a signal permanently holding *value* (a tie-off)."""
    return Signal(name, width=width, init=value)
