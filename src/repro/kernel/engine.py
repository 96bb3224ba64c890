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
    list-backed value store (:mod:`repro.kernel.slots`).  The whole
    schedule is emitted as **straight-line source** that the simulator
    inlines into its generated per-cycle function (see
    :meth:`CompiledEngine.settle_source`): acyclic members cost one
    set probe each, and cyclic regions (combinational handshake loops
    such as lazy-fork/join meshes or the elastic rings of the MD5 and
    processor apps) iterate an unrolled **dirty-set worklist** to a
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

    def settle_source(self, ns: dict[str, Any]) -> tuple[list[str], str]:
        """The cycle function's settle step: one call of :meth:`settle`."""
        ns["_E"] = self
        return ["    _it = _E.settle(cycle)"], "_it"

    def seed_size(self) -> int:
        """Components evaluated per settle pass (the profiler's seed)."""
        return len(self._components)


class CompiledEngine:
    """Slot-compiled settling: unrolled straight-line probes + int worklists.

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
    * the schedule is emitted as source (:meth:`settle_source`) that
      the simulator inlines into its per-cycle function: a clean member
      costs one set-membership probe, a dirty one is invoked directly,
      and member indices and steps are namespace names, so designs of
      one shape share a code object (:mod:`repro.kernel.codegen`);
    * cyclic SCCs iterate the dirty-set worklist over component ints,
      unrolled in the same source.
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
        # instability (the naive engine's snapshot semantics).  One
        # dict, cleared in place at the start of every pass.
        self._pass_base: dict[int, tuple[Signal, Any]] = {}
        #: Region outputs when an SCC reached its budget (diagnostics).
        self._snap: list[Any] = []
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
        # before the schedule is emitted, so the generated cycle
        # function binds the instrumented steps — and a rebuild without
        # the profiler binds the plain ones again (same compiled code).
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

        # Maximal runs of acyclic groups become straight-line probes;
        # cyclic SCCs stay worklist regions.  Each program entry is
        # (kind, member indices, output slots); `regions` mirrors it for
        # introspection/profiling with component paths.
        program: list[tuple[str, list[int], list[int]]] = []
        for grp in condensation_order(succ):
            if len(grp) == 1 and grp[0] not in succ[grp[0]]:
                if program and program[-1][0] == "line":
                    program[-1][1].append(grp[0])
                else:
                    program.append(("line", [grp[0]], []))
                continue
            # Keep the condensation's member order: these handshake
            # loops contain probing arbiters whose convergence is
            # order-sensitive, and this order is the one the
            # differential suite has proven out.
            members = list(grp)
            outs = sorted({s for i in members for s in out_slots[i]})
            program.append(("scc", members, outs))
        self._program = program
        #: Compiled-region table, program order: ``{"kind": "line"|"scc",
        #: "members": [component paths]}`` per region.
        self.regions = [
            {"kind": kind, "members": [active[i].path for i in members]}
            for kind, members, _out in program
        ]

    def settle_source(self, ns: dict[str, Any]) -> tuple[list[str], str]:
        """Emit the settle program as function-body lines over ``cycle``.

        Returns the lines and the expression of the iteration count
        (whole-design passes or the deepest SCC sweep count, whichever
        is larger).  Every member becomes
        ``if _kN in _D: _D.discard(_kN); _sN()`` in program order, and
        each cyclic SCC wraps its members in a ``while`` over its member
        set (Gauss-Seidel: dirtiness is checked at visit time, so a
        member dirtied mid-sweep by an earlier one runs in the same
        sweep).  A dirty mark placed by an earlier member is consumed by
        the in-order evaluation; a write *backwards* (only possible
        through an undeclared driver relationship) leaves its mark
        standing and triggers a whole-design resweep.  Member ``n``'s
        engine index and step are the names ``_kN`` and ``_sN`` in *ns*,
        so the text depends only on the program's shape.
        """
        ns.update(
            _D=self._dirty, _stale=self._stale, _E=self,
            _B=self._pass_base, _N=self._max_iterations,
        )
        # Seed: components whose state changed at the last commit (or
        # that cannot prove otherwise), volatile components, externally
        # poked readers, plus anything left over from an aborted settle.
        # Everything else still holds correct settled outputs from the
        # previous cycle and is skipped at one set-probe of cost.
        lines = ["    if _stale:", "        _D.update(_stale)",
                 "        _stale.clear()"]
        if self._volatile:
            ns["_vol"] = self._volatile
            lines.append("    _D.update(_vol)")
        lines += [
            "    _E.recording = True",
            "    try:",
            "        _p = 0",
            "        _w = 1",
            "        while True:",
            "            _p += 1",
            "            if _p > _N:",
            "                _E._diverged(cycle)",
            "            if _B:",
            "                _B.clear()",
        ]
        n = 0
        for r, (kind, members, _out) in enumerate(self._program):
            pad = " " * 12
            if kind == "scc":
                ns[f"_g{r}"] = frozenset(members)
                lines += [
                    f"{pad}_l = 0",
                    f"{pad}while not _D.isdisjoint(_g{r}):",
                    f"{pad}    _l += 1",
                    f"{pad}    if _l >= _N:",
                    f"{pad}        _E._scc_budget({r}, _l, cycle)",
                ]
                pad += "    "
            for i in members:
                ns[f"_k{n}"], ns[f"_s{n}"] = i, self._steps[i]
                lines += [f"{pad}if _k{n} in _D:",
                          f"{pad}    _D.discard(_k{n})",
                          f"{pad}    _s{n}()"]
                n += 1
            if kind == "scc":
                lines += ["            if _l > _w:", "                _w = _l"]
        if self._opaque:
            ns["_opq"] = tuple(self._opaque_evals)
            lines += [
                "            for _f in _opq:",
                "                _f()",
                "            if not _D and not _E._net_changed(_B):",
                "                break",
            ]
        else:  # a mark left standing is an undeclared backward write
            lines += ["            if not _D:", "                break"]
        lines += ["    finally:", "        _E.recording = False"]
        return lines, "(_p if _p > _w else _w)"

    def _diverged(self, cycle: int) -> None:
        """Raise: whole-design passes exhausted the budget."""
        raise ConvergenceError(
            cycle, self._max_iterations, self._net_changed(self._pass_base)
        )

    def _scc_budget(self, region: int, local: int, cycle: int) -> None:
        """An SCC sweep count reached the budget: snapshot, then raise.

        At the last allowed sweep the region's outputs are recorded;
        one sweep later the ones still moving are named in the
        :class:`ConvergenceError`.
        """
        out_slots = self._program[region][2]
        values = self._values
        if local == self._max_iterations:
            self._snap = [values[s] for s in out_slots]
            return
        raise ConvergenceError(cycle, self._max_iterations, [
            self._store.name_of(s)
            for s, old in zip(out_slots, self._snap)
            if not same_value(values[s], old)
        ])

    def seed_size(self) -> int:
        """Components this settle starts from (the profiler's seed)."""
        return len(self._stale | self._dirty | set(self._volatile))

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
        """The live cross-cycle stale set (for the generated tick sweeps)."""
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
