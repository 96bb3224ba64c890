"""Slot-indexed value storage: signals (settle) and sequential state (tick).

A :class:`SlotStore` owns one flat Python list holding the current value
of every signal in a finalized design.  At finalize time the simulator
migrates each :class:`~repro.kernel.signal.Signal` into the store: the
signal keeps its identity (name, width, driver, reader bookkeeping) but
its *value* now lives at ``store.values[slot]``.  Because
:meth:`Signal.get`/:meth:`Signal.set` are already written against the
``(_store, _slot)`` pair, the migration is transparent to every engine
and every component — a signal read costs the same two attribute loads
and one list index before and after.

A :class:`SeqStore` is the tick-phase sibling: one flat list holding the
*sequential* (registered) state of every component that opted in through
:meth:`~repro.kernel.component.Component.compile_seq` — MEB per-thread
queues and main/state registers, elastic-buffer stages, barrier arrival
masks — plus the :class:`SeqPlan` schedule that replaces per-component
``capture()``/``commit()`` dispatch with vectorized, delta-gated slot
steps (see the class docstrings below).

What the flat store buys:

* **Slot-compiled evaluation** — the compiled settle engine's generated
  region functions and the components' ``compile_comb`` closures read
  and write ``values[slot]`` directly, skipping the Signal object (and
  its change-notification branch) entirely on the hot path.
* **Packed handshake blocks** — the per-thread ``valid``/``ready``
  signal lists of an :class:`~repro.core.mtchannel.MTChannel` occupy
  consecutive slots (signals are enumerated in creation order), so an
  S-wide handshake vector is one slice read ``values[base:base + S]``
  and one slice compare-and-assign instead of S per-signal calls.
  :meth:`range_of` discovers such blocks, returning ``None`` when a
  signal set is not contiguous (the caller then falls back to the
  scalar path).

The store never reorders or grows after construction; ``values`` is
mutated in place so every captured reference stays valid.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from repro.kernel.codegen import exec_generated
from repro.kernel.signal import Signal


class SlotStore:
    """Flat list-backed value store for a finalized design's signals."""

    __slots__ = ("signals", "values", "_slot_by_id", "dirty", "_reader_map")

    def __init__(self, signals: Sequence[Signal]):
        self.signals: list[Signal] = list(signals)
        #: The single authoritative value list; index = slot.
        self.values: list[Any] = [sig.get() for sig in self.signals]
        self._slot_by_id = {
            id(sig): slot for slot, sig in enumerate(self.signals)
        }
        # Dependency plumbing for slot-compiled steps, attached by the
        # compiled engine (see attach_readers); inert otherwise.
        self.dirty: set[int] = set()
        self._reader_map: dict[int, tuple[int, ...]] = {}
        # Re-home every signal onto the shared list.  Signal.get/set index
        # `_store[_slot]`, so after this loop reads and writes through the
        # Signal API and through the raw list are one and the same cell.
        values = self.values
        for slot, sig in enumerate(self.signals):
            sig._store = values
            sig._slot = slot

    def __len__(self) -> int:
        return len(self.values)

    # ------------------------------------------------------------------
    # lookups used by compile_comb implementations
    # ------------------------------------------------------------------
    def slot(self, sig: Signal) -> int:
        """The slot index of *sig* (KeyError if not in this store)."""
        return self._slot_by_id[id(sig)]

    def slot_or_none(self, sig: Signal) -> int | None:
        return self._slot_by_id.get(id(sig))

    def name_of(self, slot: int) -> str:
        return self.signals[slot].name

    def range_of(self, signals: Iterable[Signal]) -> tuple[int, int] | None:
        """``(base, end)`` when *signals* occupy consecutive ascending
        slots (a packed block), else ``None``.

        A block lets S-wide handshake vectors be read as one slice
        ``values[base:end]`` and written with one slice compare/assign.
        """
        slots = []
        for sig in signals:
            slot = self._slot_by_id.get(id(sig))
            if slot is None:
                return None
            slots.append(slot)
        if not slots:
            return None
        base = slots[0]
        for offset, slot in enumerate(slots):
            if slot != base + offset:
                return None
        return base, base + len(slots)

    # ------------------------------------------------------------------
    # dependency plumbing (populated by the compiled settle engine)
    # ------------------------------------------------------------------
    def attach_readers(
        self,
        readers: "dict[int, Sequence[int]]",
        dirty: set[int],
    ) -> None:
        """Install the declared-reader map and shared dirty set.

        *readers* maps ``id(signal)`` to the indices of the components
        that declared a combinational read of it; *dirty* is the
        engine's live worklist.  Compiled steps capture both so a block
        write that actually changed values marks exactly the affected
        readers — the batched analogue of ``Signal.set`` notifying its
        ``_readers``.  Before attachment, :meth:`readers_of` returns
        empty tuples and ``dirty`` is an unused scratch set, so compiled
        steps stay correct (just unscheduled) under the other engines.
        """
        self._reader_map = {
            key: tuple(value) for key, value in readers.items()
        }
        self.dirty = dirty

    def readers_of(self, signals: Iterable[Signal]) -> tuple[int, ...]:
        """Union of declared-reader component indices over *signals*."""
        out: set[int] = set()
        for sig in signals:
            out.update(self._reader_map.get(id(sig), ()))
        return tuple(sorted(out))


class SeqPlan:
    """One component's compiled tick-phase schedule entry.

    Produced by :meth:`~repro.kernel.component.Component.compile_seq`;
    the per-cycle driving is code-generated from these fields by
    :meth:`SeqStore.compile_driver`.  Fields:

    ``capture``
        ``fn(cycle) -> None`` — behaviourally identical to the
        component's ``capture()`` (it may stage next state and raise the
        same protocol/simulation errors) but typically reading settled
        handshake inputs as raw slot slices.  Receives the simulator's
        cycle counter so endpoint/monitor steps need no private counter
        reads on the hot path.

    ``commit``
        ``fn() -> bool | None`` — the component's ``commit()`` contract:
        apply staged state, report whether combinationally relevant
        state changed (``False`` enables delta-skipping; anything else
        keeps the plan dirty and, for engine-tracked components, feeds
        the settle engine's cross-cycle staleness).

    ``watch``
        Slot ranges ``((base, end), ...)`` of every *signal* the capture
        step may read.  Together with ``clean`` (last commit returned
        ``False``) an unchanged watch set proves this cycle's
        capture+commit is a no-op, so both are skipped — the delta-driven
        replacement for per-component idle early-outs.

    ``repeat``
        Optional ``fn(cycle) -> None`` for components with an
        unconditional per-cycle effect (monitors appending activity
        rows, endpoints advancing local cycle counters).  When the plan
        skips, ``repeat(cycle)`` replays the last observation for this
        one cycle instead.  ``None`` means skipping has no observable
        effect at all (pure register components).

    ``state``
        Seq-store ranges ``((base, end), ...)`` of the component's own
        re-homed state block.  Included in the delta snapshot so an
        *external* poke of slot-backed state (a fault-injection test
        corrupting registers directly) re-arms the plan without an
        explicit ``invalidate()`` — matching the legacy behaviour where
        capture/commit ran unconditionally every cycle.
    """

    __slots__ = (
        "component", "capture", "commit", "watch", "repeat", "state",
        "clean", "snap", "ran",
    )

    def __init__(self, component, capture, commit, watch, repeat=None,
                 state=()):
        self.component = component
        self.capture = capture
        self.commit = commit
        self.watch = tuple(watch)
        self.repeat = repeat
        self.state = tuple(state)
        #: True when the last commit reported no relevant state change.
        self.clean = False
        #: Watch/state snapshot from the last clean commit (one-slot
        #: ranges store the bare value, wider ranges a slice — the
        #: layout the generated driver compares against).
        self.snap: list[Any] | None = None
        #: Whether capture ran this cycle (commit pairs with it).
        self.ran = False

    def invalidate(self) -> None:
        """Force the next tick to run capture/commit (out-of-band mutation)."""
        self.clean = False


class SeqStore:
    """Columnar store + schedule for the compiled tick phase.

    Mirrors :class:`SlotStore` one phase later: where the slot store
    re-homes every *signal* value into one flat list for the settle
    phase, the seq store re-homes opted-in components' *registered*
    state (``values``) and replaces the simulator's per-component
    ``capture()``/``commit()`` dispatch with :class:`SeqPlan` steps.

    Scheduling is **delta-driven**: a plan whose watch slices are
    unchanged since its last capture and whose last commit reported no
    state change is skipped outright (or handed to its ``repeat`` hook
    when it has an unconditional per-cycle effect).

    Component state is migrated exactly like signal values: a component
    keeps its state behind a private ``(_sstore, _sbase)``-style pair
    from construction, and :meth:`alloc` hands it a block of cells in
    the shared ``values`` list at compile time, *copying the current
    values in* — so re-homing (first finalize, or a
    :meth:`~repro.kernel.simulator.Simulator.rebuild` after a
    collaborator swap) preserves all live state.
    """

    __slots__ = ("store", "values", "plans")

    def __init__(self, store: SlotStore):
        self.store = store
        #: Flat columnar sequential-state cells; index = seq slot.
        self.values: list[Any] = []
        self.plans: list[SeqPlan] = []

    def __len__(self) -> int:
        return len(self.values)

    # ------------------------------------------------------------------
    # compilation helpers (used by compile_seq implementations)
    # ------------------------------------------------------------------
    def alloc(self, cells: Sequence[Any]) -> int:
        """Append *cells* (the component's current state) and return the
        base index of the new block."""
        base = len(self.values)
        self.values.extend(cells)
        return base

    # ------------------------------------------------------------------
    # fused driver (code-generated; the per-cycle hot path)
    # ------------------------------------------------------------------
    def compile_driver(self, stale, engine_index):
        """Generate the fused ``(capture_fn, commit_fn)`` tick driver.

        Like the compiled settle engine's region fusion, the whole
        schedule becomes straight-line functions, one block per plan:

        * the capture sweep inlines each plan's skip predicate —
          ``clean`` plus watch/state compares against the stored
          snapshot (one-slot ranges compare without slicing) — and calls
          ``capture``/``repeat`` directly;
        * the commit sweep inlines the clean/dirty bookkeeping, rebuilds
          the snapshot only when a plan *ends* clean (a dirty plan will
          re-run regardless, so its snapshot is dead), and marks the
          settle engine's stale set with the component's engine index
          instead of going through ``note_state_change``.

        The source names every per-design value instead of printing it:
        plan ``k``'s ``i``-th watch/state range is ``_a{k}_{i}`` (a
        ``slice``, or an ``int`` for a one-slot range), its engine index
        is ``_i{k}``, and its plan object and callables are ``_p{k}``,
        ``_c{k}``, ``_m{k}`` and ``_r{k}``.  The text thus depends only
        on the sequence of plan shapes (watch/state range counts, a
        ``repeat`` hook or not, tracked or not), and designs of one
        shape share a code object through :mod:`repro.kernel.codegen`;
        each design runs it in its own namespace.

        *stale* is the compiled engine's cross-cycle stale set and
        *engine_index* maps ``id(component)`` to engine indices;
        untracked components (pure observers) skip the marking.
        Snapshot timing relies on the kernel-wide invariant that commits
        never write signals (outputs are driven during settle).
        """
        ns: dict[str, Any] = {
            "_V": self.store.values,
            "_S": self.values,
            "_stale": stale,
        }
        cap_lines = ["def _capture(cycle):"]
        com_lines = ["def _commit():"]
        for k, plan in enumerate(self.plans):
            p, c, m = f"_p{k}", f"_c{k}", f"_m{k}"
            ns[p] = plan
            ns[c] = plan.capture
            ns[m] = plan.commit
            segments: list[tuple[str, int, int]] = [
                ("_V", b, e) for b, e in plan.watch
            ]
            segments += [("_S", b, e) for b, e in plan.state]
            compares = []
            rebuild = []
            for i, (arr, b, e) in enumerate(segments):
                a = f"_a{k}_{i}"
                ns[a] = b if e == b + 1 else slice(b, e)
                compares.append(f"{arr}[{a}] == {p}.snap[{i}]")
                rebuild.append(f"{arr}[{a}]")
            cond = " and ".join(compares) or "True"
            cap_lines += [
                f"    if {p}.clean:",
                "        try:",
                f"            _skip = {cond}",
                "        except Exception:",
                "            _skip = False",
                "    else:",
                "        _skip = False",
                "    if _skip:",
                f"        {p}.ran = False",
            ]
            if plan.repeat is not None:
                r = f"_r{k}"
                ns[r] = plan.repeat
                cap_lines.append(f"        {r}(cycle)")
            cap_lines += [
                "    else:",
                f"        {c}(cycle)",
                f"        {p}.ran = True",
            ]
            com_lines += [
                f"    if {p}.ran:",
                f"        if {m}() is False:",
                f"            {p}.clean = True",
                f"            {p}.snap = [{', '.join(rebuild)}]",
                "        else:",
                f"            {p}.clean = False",
            ]
            index = engine_index.get(id(plan.component))
            if index is not None:
                ns[f"_i{k}"] = index
                com_lines.append(f"            _stale.add(_i{k})")
        exec_generated("\n".join(cap_lines + com_lines), ns)
        return ns["_capture"], ns["_commit"]
