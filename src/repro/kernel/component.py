"""Component base class: the structural unit of a simulated circuit.

A component owns signals and implements up to three evaluation hooks:

``combinational()``
    Pure function from input-signal values to output-signal values.  Called
    repeatedly by the settle loop until the whole design is stable, so it
    must be idempotent and must not mutate registered state.

``capture()``
    Called once per cycle after the design has settled.  Reads settled
    signal values and stores the *next* register state internally.  Must
    not write any signal (this keeps register updates race-free regardless
    of component ordering).

``commit()``
    Called once per cycle after every component has captured.  Applies the
    stored next state and drives registered output signals.

Components form a tree (``parent``/``children``) so hierarchical designs
like the processor pipeline get readable hierarchical signal names and so
the cost model can aggregate per-subtree.

Dependency declarations
-----------------------

The compiled settle engine (see :mod:`repro.kernel.engine`) schedules
``combinational()`` calls from a static signal dependency graph.  The
*write* side of that graph is already known — every driven signal records
its driver through :meth:`Component.output` /
:meth:`repro.kernel.signal.Signal.set_driver`.  The *read* side is
declared with :meth:`Component.declare_reads`: the set of signals a
component's ``combinational()`` may ever read, across all internal
states.  Declared components are evaluated exactly once per settle in
dependency order and re-evaluated only when a declared input actually
changes.  Components that do not declare (e.g. ad-hoc test helpers) still
work — the engine falls back to naive repeated evaluation for them — but
they forgo the scheduling win.  Over-declaring is always safe (it can
only cause harmless extra re-evaluation); under-declaring is a
correctness bug, so declare the union over every internal state.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator

from repro.kernel.errors import EnsembleUnsupported, WiringError
from repro.kernel.signal import Signal
from repro.kernel.values import X


class Component:
    """Base class for all simulated hardware blocks."""

    #: Ensemble-safety contract (see :mod:`repro.kernel.ensemble`).
    #:
    #: ``"opaque"``  — the component moves data payloads by reference and
    #: never inspects them, so a row of K per-lane values flows through it
    #: unchanged and the component is ensemble-safe as-is.
    #: ``"lift"``    — the component inspects payloads through callables
    #: that :meth:`ensemble_lift` can rebind to lane-wise lifted forms.
    #: ``"unsafe"``  — the default: payload handling cannot be proven
    #: lane-independent (data-dependent latency, cross-thread context,
    #: tuple-building joins, ...); ensembles must fall back to serial.
    ENSEMBLE_DATA = "unsafe"

    def __init__(self, name: str, parent: "Component | None" = None):
        self.name = name
        self.parent = parent
        self.children: list[Component] = []
        self._signals: dict[str, Signal] = {}
        self._comb_reads: tuple[Signal, ...] | None = None
        self._comb_volatile = False
        self._engine_hook: Any = None
        self._seq_hook: Any = None
        if parent is not None:
            parent._add_child(self)

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    def _add_child(self, child: "Component") -> None:
        for existing in self.children:
            if existing.name == child.name:
                raise WiringError(
                    f"component {self.name!r} already has a child named "
                    f"{child.name!r}"
                )
        self.children.append(child)

    @property
    def path(self) -> str:
        """Hierarchical dotted path from the root component."""
        if self.parent is None:
            return self.name
        return f"{self.parent.path}.{self.name}"

    def iter_tree(self) -> Iterator["Component"]:
        """Yield this component and all descendants, depth-first."""
        yield self
        for child in self.children:
            yield from child.iter_tree()

    # ------------------------------------------------------------------
    # signal management
    # ------------------------------------------------------------------
    def signal(self, name: str, width: int = 1, init: Any = X) -> Signal:
        """Create and register a signal owned (not necessarily driven) here."""
        if name in self._signals:
            raise WiringError(
                f"component {self.name!r} already owns a signal {name!r}"
            )
        sig = Signal(f"{self.path}.{name}", width=width, init=init)
        self._signals[name] = sig
        return sig

    def output(self, name: str, width: int = 1, init: Any = X) -> Signal:
        """Create a signal and mark this component as its driver."""
        sig = self.signal(name, width=width, init=init)
        sig.set_driver(self)
        return sig

    def local_signals(self) -> dict[str, Signal]:
        """Signals owned directly by this component (no descendants)."""
        return dict(self._signals)

    # ------------------------------------------------------------------
    # dependency declaration (consumed by the compiled settle engine)
    # ------------------------------------------------------------------
    def declare_reads(self, *signals: Signal | Iterable[Signal]) -> None:
        """Declare the signals ``combinational()`` may read.

        Accepts :class:`Signal` objects and/or iterables of them; repeated
        calls accumulate.  Call with **no arguments** to declare that the
        component reads no signals combinationally (a registered-output
        component such as an elastic buffer).  The declaration must cover
        every signal the method could read in *any* internal state — a
        state-dependent read (e.g. a half-buffer consulting downstream
        ``ready`` only while full) still belongs in the set.
        """
        flat: list[Signal] = []
        for entry in signals:
            if isinstance(entry, Signal):
                flat.append(entry)
            else:
                flat.extend(entry)
        existing = list(self._comb_reads) if self._comb_reads else []
        seen = {id(sig) for sig in existing}
        for sig in flat:
            if id(sig) not in seen:
                seen.add(id(sig))
                existing.append(sig)
        self._comb_reads = tuple(existing)

    @property
    def declared_reads(self) -> "tuple[Signal, ...] | None":
        """Declared combinational read set, or None when undeclared."""
        return self._comb_reads

    def declare_volatile(self) -> None:
        """Mark ``combinational()`` as depending on non-signal state.

        A volatile component is re-evaluated on every settle even when
        none of its declared inputs changed and its own commit reported
        no state change.  Use it when the combinational function closes
        over mutable context outside the signal graph — e.g. a shared
        register file or a global round counter mutated by another
        component's capture/commit.
        """
        self._comb_volatile = True

    @property
    def volatile(self) -> bool:
        return self._comb_volatile

    def invalidate(self) -> None:
        """Force re-evaluation of ``combinational()`` at the next settle.

        Call this from any out-of-band mutator (``push``, ``block``,
        mid-simulation configuration) that changes state the settle
        engine cannot observe through signals or :meth:`commit` reports.
        Also re-arms this component's compiled tick plan (if any), so a
        delta-skipped capture cannot miss the mutation.  No-op before
        the simulator is finalized (everything starts stale) and under
        the naive engine.
        """
        hook = self._engine_hook
        if hook is not None:
            hook[0].mark_stale(hook[1])
        seq_hook = self._seq_hook
        if seq_hook is not None:
            seq_hook.invalidate()

    def all_signals(self) -> list[Signal]:
        """Every signal owned by this component or any descendant."""
        out: list[Signal] = []
        for comp in self.iter_tree():
            out.extend(comp._signals.values())
        return out

    # ------------------------------------------------------------------
    # evaluation hooks (overridden by subclasses)
    # ------------------------------------------------------------------
    def combinational(self) -> None:
        """Compute combinational outputs from current signal values."""

    def compile_comb(self, store: Any) -> "Any | None":
        """Return a slot-compiled evaluation closure, or None.

        Called once at finalize time by the compiled settle engine with
        the design's :class:`~repro.kernel.slots.SlotStore`.  A component
        may return a zero-argument callable that is *behaviourally
        identical* to :meth:`combinational` but reads and writes
        ``store.values`` slots directly (typically with batched slice
        operations over packed handshake blocks).  The callable has two
        obligations:

        * whenever it changes a signal's value (under
          :func:`~repro.kernel.values.same_value` semantics) it must add
          ``store.readers_of(<the changed signals>)`` — resolved once at
          compile time — to ``store.dirty``, the slot-level analogue of
          ``Signal.set`` notifying declared readers;
        * it should return a truthy value iff it changed at least one
          output (diagnostics and tests rely on it; the engine schedules
          purely from the dirty marks).

        Returning ``None`` (the default) makes the engine fall back to
        calling :meth:`combinational` through the Signal API — always
        correct, just without the slot-level speedup.  Implementations
        should return ``None`` whenever an assumption does not hold
        (non-contiguous signal blocks, subclass overrides of the methods
        they inline, ...) rather than approximate.
        """
        return None

    def compile_seq(self, seq: Any) -> "Any | None":
        """Return a tick-phase :class:`~repro.kernel.slots.SeqPlan`, or None.

        The sibling of :meth:`compile_comb`, called once per engine
        build by the simulator (compiled engine only, and only when
        ``compile_seq`` is enabled) with the design's
        :class:`~repro.kernel.slots.SeqStore`.  A component may:

        * re-home its registered state into a block of ``seq.values``
          via :meth:`SeqStore.alloc` (state must then be read/written
          through the component's own ``(_sstore, base)`` indirection so
          every engine and every introspection path observes the same
          cells — the sequential analogue of Signal re-homing);
        * return a :class:`~repro.kernel.slots.SeqPlan` whose
          ``capture``/``commit`` steps are behaviourally identical to
          :meth:`capture`/:meth:`commit` and whose ``watch`` ranges
          cover **every signal the capture step may read in any internal
          state** (the capture-side analogue of :meth:`declare_reads` —
          under-declaring the watch set is a correctness bug).

        The plan's capture/commit must be pure functions of (watched
        signals, registered state, the passed cycle number): no hidden
        per-cycle side effects outside the ``repeat`` hook.  Out-of-band
        mutations must go through :meth:`invalidate`, which re-arms the
        plan.  Returning ``None`` (the default) keeps the component on
        the legacy per-cycle ``capture()``/``commit()`` dispatch —
        always correct — and implementations must return ``None`` rather
        than approximate whenever an assumption fails (overridden
        capture/commit, unresolvable slots, ...).
        """
        return None

    def ensemble_lift(self, ctx: Any) -> None:
        """Rebind data-inspecting callables to lane-wise lifted forms.

        Called once per design by :func:`repro.kernel.ensemble.lift_simulator`
        with an :class:`~repro.kernel.ensemble.EnsembleContext` for every
        component whose :attr:`ENSEMBLE_DATA` is ``"lift"``.  After lifting,
        the simulator is rebuilt so compiled closures pick up the rebound
        callables.  ``"opaque"`` components need no lifting (this default is
        a no-op for them); ``"unsafe"`` components raise.
        """
        if self.ENSEMBLE_DATA != "opaque":
            raise EnsembleUnsupported(
                f"{self.path} ({type(self).__name__}) is not ensemble-safe "
                f"(ENSEMBLE_DATA={self.ENSEMBLE_DATA!r})"
            )

    def capture(self) -> None:
        """Latch next register state from settled signals (no signal writes)."""

    def commit(self) -> "bool | None":
        """Apply captured state; drive registered output signals.

        May return whether the commit actually changed state the
        component's ``combinational()`` depends on: ``False`` lets the
        compiled settle engine skip the next re-evaluation entirely,
        ``True`` forces one, and ``None`` (the default, and what any
        legacy override returns implicitly) is treated as "unknown —
        assume changed".  Returning ``False`` when state did change is a
        correctness bug; when unsure, return nothing.
        """

    def reset(self) -> None:
        """Return registered state to its power-on value."""

    # ------------------------------------------------------------------
    # cost-model hook
    # ------------------------------------------------------------------
    def area_items(self) -> list[tuple[str, int, int]]:
        """Structural inventory for the cost model.

        Returns a list of ``(kind, count, width)`` triples where *kind* is
        one of the primitive names understood by
        :class:`repro.cost.model.AreaModel` (``"ff"``, ``"mux2"``,
        ``"lut"``, ...).  The default is an empty inventory; leaf
        primitives override this.  Aggregation over a subtree is done by
        the cost model, not here.
        """
        return []

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.path}>"
