"""Settle engines: strategies for reaching the combinational fixed point.

The simulator delegates its settle phase to one of two interchangeable
engines, selected with ``Simulator(engine=...)``:

``NaiveEngine`` (the seed behaviour, kept as the differential-testing
oracle)
    Evaluates *every* component's ``combinational()`` in registration
    order, snapshots every signal, and repeats until a whole pass
    produces no net change — O(components x iterations) work per cycle
    plus an O(signals) snapshot per iteration.

``CompiledEngine`` (the default, the production engine)
    Builds a static dependency graph at finalize time from the
    components' declared read sets (:meth:`Component.declare_reads`) and
    the recorded signal drivers, collapses it into strongly connected
    components, and orders the SCC condensation topologically
    (:mod:`repro.graphs`).  Every signal is assigned a slot in a flat
    list-backed value store (:mod:`repro.kernel.slots`); each maximal
    run of acyclic SCCs is fused into **one generated straight-line
    function** (compiled once per region length and process, see
    :mod:`repro.kernel.codegen`), and cyclic regions (combinational
    handshake loops such as lazy-fork/join meshes or the elastic rings
    of the MD5 and processor apps) iterate a **dirty-set worklist** to a
    local fixed point.  Component evaluations come from
    :meth:`Component.compile_comb` where available — slot-indexed,
    batch-vectorized closures (an MEB reads its S downstream readies as
    one slice and writes its S ``valid`` wires with one slice
    compare-and-assign, marking the declared readers of a block only
    when it really changed) — and fall back to the plain
    ``combinational()`` method otherwise.  Components whose
    ``combinational`` is not overridden (channels, monitors, memories)
    are never visited at all.

All engines preserve the kernel's contract exactly: same fixed points,
same :class:`ConvergenceError` (with ``iterations`` equal to the budget
and the still-unstable signal names) on true combinational loops.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.graphs import condensation_order
from repro.kernel.codegen import exec_generated
from repro.kernel.component import Component
from repro.kernel.errors import ConvergenceError
from repro.kernel.signal import Signal
from repro.kernel.slots import SlotStore
from repro.kernel.values import same_value

#: Engine names accepted by :class:`repro.kernel.simulator.Simulator`.
ENGINES = ("compiled", "naive")


def _split_components(
    components: Sequence[Component],
) -> tuple[list[Component], list[Component]]:
    """Partition into (declared-active, opaque) evaluatable components.

    Components that never override ``combinational`` are inert and appear
    in neither list; components with an overridden ``combinational`` but
    no declared read set are *opaque* and must be settled the naive way.
    """
    base = Component.combinational
    active: list[Component] = []
    opaque: list[Component] = []
    for comp in components:
        if type(comp).combinational is base:
            continue  # inert: nothing to evaluate during settle
        if comp.declared_reads is None:
            opaque.append(comp)
        else:
            active.append(comp)
    return active, opaque


def _dependency_graph(
    active: Sequence[Component],
    signals: Sequence[Signal],
    index_of: dict[int, int],
) -> tuple[dict[int, list[int]], list[list[int]]]:
    """Build (signal-id -> reader indices, component successor lists).

    *index_of* maps ``id(component)`` to its position in *active*; the
    caller builds it once and shares it with its own bookkeeping.
    """
    readers: dict[int, list[int]] = {}
    for i, comp in enumerate(active):
        for sig in comp.declared_reads or ():
            readers.setdefault(id(sig), []).append(i)
    succ: list[list[int]] = [[] for _ in range(len(active))]
    for sig in signals:
        driver = sig.driver
        if driver is None:
            continue
        writer = index_of.get(id(driver))
        if writer is None:
            continue
        for reader in readers.get(id(sig), ()):
            if reader not in succ[writer]:
                succ[writer].append(reader)
    return readers, succ


class NaiveEngine:
    """Whole-design fixed-point iteration (the original settle loop)."""

    name = "naive"
    #: Naive settling never uses the Signal.set fast notification path.
    recording = False

    def __init__(
        self,
        components: Sequence[Component],
        signals: Sequence[Signal],
        max_iterations: int,
        profiler=None,
    ):
        self._components = list(components)
        self._signals = list(signals)
        self._max_iterations = int(max_iterations)
        self._evals = [
            profiler.wrap_comb(comp.combinational, comp.path)
            if profiler is not None
            else comp.combinational
            for comp in self._components
        ]

    def settle(self, cycle: int) -> int:
        for iteration in range(1, self._max_iterations + 1):
            # Convergence is judged on net change across the whole pass,
            # so a component may harmlessly clear-then-set a signal within
            # one evaluation (a common idiom in demux-style logic).
            before = [sig.value for sig in self._signals]
            for evaluate in self._evals:
                evaluate()
            changed = [
                sig.name
                for sig, old in zip(self._signals, before)
                if not same_value(sig.value, old)
            ]
            if not changed:
                return iteration
        raise ConvergenceError(cycle, self._max_iterations, changed)


class CompiledEngine:
    """Slot-compiled settling: fused straight-line regions + int worklists.

    Scheduling contract.  A settle evaluates only what may have moved.
    It is seeded from the cross-cycle *stale* set: a component lands
    there when its ``commit()`` reported (or, capturing state without
    overriding ``commit``, could not rule out) a state change, when one
    of its declared inputs was written outside a settle (a test or
    driver poking a wire), or when :meth:`Simulator.invalidate` asked
    for it.  Components that :meth:`Component.declare_volatile` are
    re-evaluated every settle.  During the settle a member is
    re-evaluated only when one of its declared inputs actually changed.
    Components with an overridden ``combinational`` but no declared read
    set are *opaque*: they run after every sweep until the whole design
    shows no net change, so ad-hoc user components stay correct, just
    unoptimized.

    Every mechanism is lowered onto the flat slot store:

    * each active component evaluates through its
      :meth:`Component.compile_comb` closure when it provides one and
      all its signals resolved to store slots — slot-indexed, with S-wide
      handshake blocks read and written as single slices, and declared
      readers marked per *block* rather than per signal — falling back
      to the plain ``combinational()`` method otherwise (whose
      ``Signal.set`` writes keep signal-precise marking);
    * maximal runs of acyclic SCCs are fused into one generated
      function whose member indices and steps are bound as closure
      cells: a clean member costs one set-membership probe, a dirty one
      is invoked directly, and the code object is shared by every
      region of the same length (:mod:`repro.kernel.codegen`);
    * cyclic SCCs iterate the dirty-set worklist over component ints.
    """

    name = "compiled"

    def __init__(
        self,
        components: Sequence[Component],
        signals: Sequence[Signal],
        max_iterations: int,
        store: SlotStore,
        profiler=None,
    ):
        self._max_iterations = int(max_iterations)
        self.recording = False
        self._store = store
        self._values = store.values

        active, opaque = _split_components(components)
        self._active = active
        self._opaque = opaque
        self._index_by_id = {id(comp): i for i, comp in enumerate(active)}
        readers, succ = _dependency_graph(active, signals, self._index_by_id)

        #: Component indices needing (re-)evaluation.  Fed with
        #: slot-block precision by the compiled steps (through the
        #: reader map attached to the store) and with signal precision
        #: by note_change for everything still going through Signal.set.
        self._dirty: set[int] = set()
        #: Cross-cycle staleness (see the class docstring).  Everything
        #: starts stale.
        self._stale: set[int] = set(range(len(active)))
        self._volatile: tuple[int, ...] = tuple(
            i
            for i, comp in enumerate(active)
            if comp.volatile
            or (
                type(comp).capture is not Component.capture
                and type(comp).commit is Component.commit
            )
        )
        # id(sig) -> (sig, value at its first change this pass).  Net
        # change is judged against these baselines, so a transient
        # clear-then-set within one evaluation does not count as
        # instability (the naive engine's snapshot semantics).
        self._pass_base: dict[int, tuple[Signal, Any]] = {}
        for sig in signals:
            sig._engine = self
            sig._readers = tuple(readers.get(id(sig), ()))
        for i, comp in enumerate(active):
            comp._engine_hook = (self, i)
        store.attach_readers(readers, self._dirty)

        # One evaluation step per active component: the component's
        # slot-compiled closure, or plain combinational() (whose writes
        # mark readers through Signal.set -> note_change).  With a
        # profiler attached, every step is wrapped in a timing closure
        # *before* region fusion below, so the generated straight-line
        # code binds the instrumented steps — and a rebuild without the
        # profiler binds the plain ones again (same compiled code).
        steps: list[Callable[[], Any]] = [
            comp.compile_comb(store) or comp.combinational
            for comp in active
        ]
        if profiler is not None:
            steps = [
                profiler.wrap_comb(fn, comp.path)
                for fn, comp in zip(steps, active)
            ]
            self._opaque_evals = [
                profiler.wrap_comb(comp.combinational, comp.path)
                for comp in opaque
            ]
        else:
            self._opaque_evals = [comp.combinational for comp in opaque]
        self._steps = steps

        # Slots driven by each active component (ConvergenceError names).
        out_slots: list[list[int]] = [[] for _ in active]
        for sig in signals:
            driver = sig.driver
            if driver is None:
                continue
            writer = self._index_by_id.get(id(driver))
            if writer is not None:
                out_slots[writer].append(store.slot(sig))

        # Fuse maximal runs of acyclic groups into straight-line code;
        # keep cyclic SCCs as worklist regions.  `regions` mirrors the
        # program for introspection/profiling: one entry per compiled
        # region with its member component paths.
        groups = condensation_order(succ)
        program: list[tuple[str, Any]] = []
        regions: list[dict] = []
        pending: list[int] = []  # acyclic member indices awaiting fusion

        def flush() -> None:
            if pending:
                program.append(
                    ("line", self._fuse([steps[i] for i in pending],
                                        pending))
                )
                regions.append(
                    {
                        "kind": "line",
                        "members": [active[i].path for i in pending],
                    }
                )
                del pending[:]

        for grp in groups:
            cyclic = len(grp) > 1 or grp[0] in succ[grp[0]]
            if not cyclic:
                pending.append(grp[0])
                continue
            flush()
            # Keep the condensation's member order: these handshake
            # loops contain probing arbiters whose convergence is
            # order-sensitive, and this order is the one the
            # differential suite has proven out.
            members = list(grp)
            member_set = frozenset(members)
            region_out = sorted(
                {s for i in members for s in out_slots[i]}
            )
            program.append((
                "scc",
                (
                    members,
                    [steps[i] for i in members],
                    member_set,
                    region_out,
                ),
            ))
            regions.append(
                {
                    "kind": "scc",
                    "members": [active[i].path for i in members],
                }
            )
        flush()
        self._program = program
        #: Compiled-region table, program order: ``{"kind": "line"|"scc",
        #: "members": [component paths]}`` per region.
        self.regions = regions

    def _fuse(
        self, steps: Sequence[Callable[[], Any]], indices: Sequence[int]
    ) -> Callable[[], None]:
        """Generate one straight-line function sweeping *steps* in order.

        Each member costs one set-membership test when clean and is
        invoked directly when dirty, with no loop bookkeeping, no
        indirection through member lists and no per-member Python frames
        besides the evaluation itself.  Member ``k``'s engine index and
        step are the factory arguments ``_k{k}`` and ``_s{k}`` (closure
        cells of the returned function), so the source depends only on
        the region's length and regions of one length share a code
        object (:mod:`repro.kernel.codegen`).  A dirty mark placed by an
        earlier member in the same run is consumed by the in-order
        evaluation; a write *backwards* (only possible through an
        undeclared driver relationship) leaves its mark standing and
        triggers a whole-design resweep.
        """
        n = len(steps)
        params = [f"_s{k}" for k in range(n)] + [f"_k{k}" for k in range(n)]
        lines = [f"def _make(_D, {', '.join(params)}):", "    def _run():"]
        for k in range(n):
            lines.append(f"        if _k{k} in _D:")
            lines.append(f"            _D.discard(_k{k})")
            lines.append(f"            _s{k}()")
        lines.append("    return _run")
        namespace = exec_generated("\n".join(lines), {})
        return namespace["_make"](self._dirty, *steps, *indices)

    # ------------------------------------------------------------------
    # change notification (called by Signal.set)
    # ------------------------------------------------------------------
    def note_change(self, sig: Signal, old: Any) -> None:
        if not self.recording:
            # Out-of-settle write (a test or driver poking a wire):
            # remember the affected readers for the next settle.
            self._stale.update(sig._readers)
            return
        key = id(sig)
        base = self._pass_base
        if key not in base:
            base[key] = (sig, old)
        readers = sig._readers
        if readers:
            self._dirty.update(readers)

    # ------------------------------------------------------------------
    # cross-cycle staleness
    # ------------------------------------------------------------------
    def mark_stale(self, index: int) -> None:
        """Schedule one component for re-evaluation at the next settle."""
        self._stale.add(index)

    def invalidate_all(self) -> None:
        """Schedule every component for re-evaluation (e.g. after reset)."""
        self._stale.update(range(len(self._active)))

    def note_state_change(self, comp: Component) -> None:
        """Called per cycle for each component whose commit changed state."""
        index = self._index_by_id.get(id(comp))
        if index is not None:
            self._stale.add(index)

    @property
    def tracked_component_ids(self) -> frozenset[int]:
        """ids of the components whose commit reports this engine uses."""
        return frozenset(self._index_by_id)

    @property
    def stale_set(self) -> set[int]:
        """The live cross-cycle stale set (for the fused tick driver)."""
        return self._stale

    @property
    def component_index(self) -> dict[int, int]:
        """``id(component) -> engine index`` for scheduled components."""
        return self._index_by_id

    @staticmethod
    def _net_changed(base: dict[int, tuple[Signal, Any]]) -> list[str]:
        """Names of signals whose value differs from their baseline."""
        return [
            sig.name
            for sig, old in base.values()
            if not same_value(sig.value, old)
        ]

    # ------------------------------------------------------------------
    # settle
    # ------------------------------------------------------------------
    def settle(self, cycle: int) -> int:
        budget = self._max_iterations
        dirty = self._dirty
        # Seed: components whose state changed at the last commit (or
        # that cannot prove otherwise), volatile components, externally
        # poked readers, plus anything left over from an aborted settle.
        # Everything else still holds correct settled outputs from the
        # previous cycle and is skipped at one set-probe of cost.
        stale = self._stale
        if stale:
            dirty.update(stale)
            stale.clear()
        dirty.update(self._volatile)
        self.recording = True
        self._pass_base = {}
        worst_local = 1
        passes = 0
        try:
            while True:
                passes += 1
                if passes > budget:
                    raise ConvergenceError(
                        cycle, budget, self._net_changed(self._pass_base)
                    )
                self._pass_base = {}
                for kind, payload in self._program:
                    if kind == "line":
                        payload()
                    else:
                        local = self._run_scc(payload, cycle, budget)
                        if local > worst_local:
                            worst_local = local
                if not self._opaque:
                    if not dirty:
                        return max(passes, worst_local)
                    continue  # undeclared backward write: resweep
                for evaluate in self._opaque_evals:
                    evaluate()
                if not dirty and not self._net_changed(self._pass_base):
                    return max(passes, worst_local)
        finally:
            self.recording = False

    def _run_scc(self, region: tuple, cycle: int, budget: int) -> int:
        """Iterate one cyclic SCC to a local fixed point (Gauss-Seidel).

        Seeded from the cross-cycle stale set; a member is then re-swept
        only while one of its declared inputs actually changed —
        compiled steps mark the affected readers block-wise through the
        store's reader map, plain ``combinational()`` members mark them
        signal-wise through ``Signal.set`` -> note_change.  Dirtiness is
        checked at visit time so a member dirtied mid-sweep by an
        earlier member is evaluated in the *same* sweep, keeping value
        propagation coherent along the ring.
        """
        members, steps, member_set, out_slots = region
        dirty = self._dirty
        values = self._values
        local = 0
        snap: list[Any] | None = None
        while not dirty.isdisjoint(member_set):
            local += 1
            if local > budget:
                raise ConvergenceError(
                    cycle, budget, self._unstable(out_slots, snap)
                )
            if local == budget:
                snap = [values[s] for s in out_slots]
            for pos, i in enumerate(members):
                if i in dirty:
                    dirty.discard(i)
                    steps[pos]()
        return local

    def _unstable(
        self, out_slots: Sequence[int], snap: Sequence[Any] | None
    ) -> list[str]:
        """Names of region outputs still moving when the budget ran out."""
        store = self._store
        if snap is None:  # pragma: no cover - budget < 2 degenerate case
            return [store.name_of(s) for s in out_slots]
        values = self._values
        return [
            store.name_of(s)
            for s, old in zip(out_slots, snap)
            if not same_value(values[s], old)
        ]


def make_engine(
    name: str,
    components: Sequence[Component],
    signals: Sequence[Signal],
    max_iterations: int,
    store: SlotStore,
    profiler=None,
) -> NaiveEngine | CompiledEngine:
    """Instantiate the settle engine called *name* (see :data:`ENGINES`).

    *profiler*, when given (a :class:`repro.obs.profile.KernelProfiler`),
    is compiled into the engine: every evaluation step is wrapped in a
    timing closure before any region fusion, so attribution covers the
    generated code too.  ``None`` builds the plain engine with zero
    profiling residue.
    """
    if name == "compiled":
        return CompiledEngine(
            components, signals, max_iterations, store, profiler=profiler
        )
    if name == "naive":
        return NaiveEngine(
            components, signals, max_iterations, profiler=profiler
        )
    raise ValueError(
        f"unknown settle engine {name!r}; expected one of {ENGINES}"
    )
