"""Two-phase cycle-accurate simulator with pluggable settle engines.

Each simulated clock cycle runs:

1. **Settle** — combinational logic is evaluated until every signal is
   stable (a fixed point).  This models the combinational logic between
   register stages, including the backward combinational propagation of
   elastic ``ready`` signals through joins and forks.  Failure to
   converge within ``max_settle_iterations`` raises
   :class:`~repro.kernel.errors.ConvergenceError` naming the unstable
   signals — the kernel's stand-in for a synthesis tool's combinational
   loop check.
2. **Observe** — registered probes (monitors, trace recorders, user
   callbacks) sample the settled values.
3. **Capture** — every component computes its next register state from the
   settled values without writing any signal.
4. **Commit** — every component applies the captured state and drives its
   registered outputs.  Because capture and commit are split, register
   updates are race-free regardless of component ordering, exactly like
   nonblocking assignment in RTL.

Under the compiled engine the capture/commit phases (the **tick**) are
additionally compiled onto the slot architecture: components that
implement :meth:`~repro.kernel.component.Component.compile_seq` re-home
their registered state into a columnar
:class:`~repro.kernel.slots.SeqStore` and supply vectorized
capture/commit steps that are **delta-gated** — a component whose
watched inputs did not change since its last capture and whose last
commit reported no state change is skipped outright.  Components
without a plan keep the legacy per-cycle dispatch transparently;
``compile_seq`` can be force-disabled with ``REPRO_SIM_SEQ=0`` (or
``Simulator(compile_seq=False)``) for differential testing.

*How* the settle phase reaches its fixed point is delegated to a settle
engine (:mod:`repro.kernel.engine`), chosen per simulator:

* ``engine="compiled"`` (default) — signals are flattened into a
  slot-indexed value store (:mod:`repro.kernel.slots`) at finalize time;
  the declared dependency graph is unrolled into generated
  straight-line code and combinational cycles run a dirty-set
  worklist over component ints.  Hot components supply
  vectorized slot-level evaluations via
  :meth:`~repro.kernel.component.Component.compile_comb`; everything
  else falls back to its plain ``combinational()`` transparently.
  Scheduling is change-first: components whose inputs did not change
  are never re-evaluated.
* ``engine="naive"`` — the original brute-force loop: every component is
  re-evaluated until a whole pass changes nothing.  Kept as the oracle
  for differential testing (``tests/test_engine_differential.py`` drives
  every network under all engines and asserts cycle-identical traces)
  and as an escape hatch for components with undeclarable dependencies.

The default can also be set process-wide through the
``REPRO_SIM_ENGINE`` environment variable, which is how the differential
suite replays unmodified examples under every engine.

Both engines run each cycle through one function generated per
design (:meth:`Simulator._compile_cycle`): the settle phase, the
``until`` check, the observers and the tick, inlined in that order.

All engines produce identical settled values, identical
:class:`ConvergenceError` diagnostics on true combinational loops, and
identical race-free capture/commit ordering; only the work per cycle
differs (see ``docs/engines.md`` for the contract and the measured
speedups).

The simulator owns a flat list of components (the tree flattened in
registration order) and a cycle counter.
"""

from __future__ import annotations

import os
from time import perf_counter
from typing import Any, Callable

from repro.kernel.codegen import exec_generated
from repro.kernel.component import Component
from repro.kernel.engine import ENGINES, make_engine

# Re-exported here because ensemble execution is part of the simulator's
# public surface (build one simulator, advance K scenarios in lockstep).
from repro.kernel.ensemble import (
    lift_simulator as lift_simulator,
)
from repro.kernel.errors import SimulationError
from repro.kernel.signal import Signal
from repro.kernel.slots import SeqStore, SlotStore
from repro.kernel.snapshot import (
    ForkContext,
    SimSnapshot,
    restore_snapshot,
    take_snapshot,
)


class WatchedPredicate:
    """A plain ``until`` predicate that also names the signals it watches.

    Calling it calls *fn* with the simulator; ``run(until=...)`` treats
    it like any other callable and polls it every cycle.  The class is
    kept only because the benchmark workload ``perfbench/kernel_long.py``
    constructs ``repro.kernel.WatchedPredicate(fn, watches=...)``;
    delete it when perfbench is next re-cut.
    """

    def __init__(
        self,
        fn: Callable[["Simulator"], bool],
        watches: Any = (),
    ):
        self.fn = fn
        self.watches = tuple(watches)

    def __call__(self, sim: "Simulator") -> bool:
        return bool(self.fn(sim))


class Simulator:
    """Drives a set of components through synchronous clock cycles.

    Parameters
    ----------
    max_settle_iterations:
        Upper bound on fixed-point iterations per cycle.  The elastic
        networks in this repo settle in a handful of passes; the default
        of 64 leaves generous headroom while still catching true
        combinational loops quickly.
    engine:
        Settle strategy: ``"compiled"`` (slot-compiled, the default)
        or ``"naive"`` (brute-force whole-design iteration).  ``None`` reads the
        ``REPRO_SIM_ENGINE`` environment variable, falling back to
        ``"compiled"``.
    compile_seq:
        Whether the compiled engine also compiles the tick phase
        (:class:`~repro.kernel.slots.SeqStore` plans with delta-gated
        capture).  ``None`` reads the ``REPRO_SIM_SEQ`` environment
        variable (default on); has no effect under the naive engine,
        whose tick is always the legacy per-component dispatch.
    profile:
        ``True`` attaches a fresh
        :class:`~repro.obs.profile.KernelProfiler` (available as
        ``sim.profiler``); an existing profiler instance attaches that
        one.  Profiling hooks are *compiled into* the engine and tick
        plans rather than registered as observers, and reports stay
        bit-identical; see
        :meth:`profile` for scoped use and ``docs/observability.md``
        for the contract.
    """

    def __init__(
        self,
        max_settle_iterations: int = 64,
        engine: str | None = None,
        compile_seq: bool | None = None,
        profile: bool | Any = False,
    ):
        if engine is None:
            engine = os.environ.get("REPRO_SIM_ENGINE") or "compiled"
        if engine not in ENGINES:
            raise ValueError(
                f"unknown settle engine {engine!r}; expected one of {ENGINES}"
            )
        if compile_seq is None:
            compile_seq = (os.environ.get("REPRO_SIM_SEQ") or "1") not in (
                "0", "false", "off",
            )
        self.max_settle_iterations = int(max_settle_iterations)
        self.engine_name = engine
        self.seq_enabled = bool(compile_seq)
        self.cycle = 0
        self._components: list[Component] = []
        self._by_path: dict[str, Component] = {}
        self._signals: list[Signal] = []
        self._signal_by_name: dict[str, Signal] = {}
        self._observers: list[Callable[["Simulator"], None]] = []
        self._engine: Any = None
        self._seq: SeqStore | None = None
        # This build's generated functions (see _compile_cycle).
        self._cycle_fn: Callable[[int, Any], Any] | None = None
        self._settle_fn: Callable[[int], int] | None = None
        self._tick_source = ""
        self._snapshot_hooks: list[
            tuple[Callable[[], Any], Callable[[Any], None]]
        ] = []
        self._finalized = False
        self._profiler: Any = None
        if profile:
            self.attach_profiler(None if profile is True else profile)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add(self, component: Component) -> Component:
        """Register *component* (and its whole subtree) with the simulator."""
        if self._finalized:
            raise SimulationError("cannot add components after simulation start")
        for comp in component.iter_tree():
            self._components.append(comp)
            self._by_path.setdefault(comp.path, comp)
        return component

    def add_observer(self, fn: Callable[["Simulator"], None]) -> None:
        """Register a callback invoked after each cycle's settle phase."""
        self._observers.append(fn)

    def remove_observer(self, fn: Callable[["Simulator"], None]) -> None:
        """Deregister an observer added with :meth:`add_observer`.

        Observers are not part of snapshots, so a caller that attaches
        one for a bounded window (the coverage maps of
        :mod:`repro.sweep.coverage`) must detach it explicitly — a
        leftover observer keeps firing every cycle, across later
        snapshot rewinds too.  Removing a function that is not
        registered is a no-op.
        """
        try:
            self._observers.remove(fn)
        except ValueError:
            pass

    def _finalize(self) -> None:
        if self._finalized:
            return
        seen: set[int] = set()
        signals: list[Signal] = []
        for comp in self._components:
            for sig in comp.local_signals().values():
                if id(sig) not in seen:
                    seen.add(id(sig))
                    signals.append(sig)
        self._signals = signals
        self._signal_by_name = {}
        for sig in signals:
            self._signal_by_name.setdefault(sig.name, sig)
        # Flatten every signal into the shared slot-indexed value store.
        # All engines read/write through it (Signal.get/set index the
        # same list); the compiled engine additionally evaluates raw
        # slots and slices directly.
        self._store = SlotStore(signals)
        # Components with no capture/commit/reset override are skipped in
        # the per-cycle phase sweeps (channels and monitors make up a
        # large share of real designs and have nothing to do there).
        # The phase loops run over pre-bound methods: one global lookup
        # fewer per component per cycle.
        self._capture_list = [
            c for c in self._components if type(c).capture is not Component.capture
        ]
        self._commit_list = [
            c for c in self._components if type(c).commit is not Component.commit
        ]
        self._reset_list = [
            c for c in self._components if type(c).reset is not Component.reset
        ]
        self._build_engine()
        self._finalized = True

    def _build_engine(self) -> None:
        """(Re)create the settle engine and tick plans over the structure.

        Tick plans are compiled *first* so that components re-home their
        sequential state before the settle engine asks for
        ``compile_comb`` closures — both then bind the same storage.
        Re-compiling (``rebuild()``/``reset()``) re-homes live state
        into the fresh :class:`SeqStore`, preserving it.
        """
        profiler = self._profiler
        self._seq = None
        seq_ids: set[int] = set()
        for comp in self._components:
            comp._seq_hook = None
        if self.engine_name == "compiled" and self.seq_enabled:
            seq = SeqStore(self._store)
            tick_ids = {id(c) for c in self._capture_list}
            tick_ids.update(id(c) for c in self._commit_list)
            for comp in self._components:
                if id(comp) not in tick_ids:
                    continue
                plan = comp.compile_seq(seq)
                if plan is not None:
                    if profiler is not None:
                        # Timing hooks are wrapped into the plan *before*
                        # compile_driver emits the tick sweeps, so a
                        # profiled build binds the timed callables into
                        # the cycle function's namespace — nothing
                        # branches on the profiler at cycle time.
                        path = plan.component.path
                        plan.capture = profiler.wrap_tick_capture(
                            plan.capture, path
                        )
                        plan.commit = profiler.wrap_tick_fn(
                            plan.commit, path
                        )
                    seq.plans.append(plan)
                    comp._seq_hook = plan
                    seq_ids.add(id(comp))
            if seq.plans:
                self._seq = seq
        self._engine = make_engine(
            self.engine_name,
            self._components,
            self._signals,
            self.max_settle_iterations,
            self._store,
            profiler=profiler,
        )
        self._note_state = getattr(self._engine, "note_state_change", None)
        # Commit-change reports only matter for components the engine
        # actually schedules; observers (monitors, sinks) commit without
        # the notification round-trip.
        tracked = getattr(self._engine, "tracked_component_ids", frozenset())
        if self._note_state is None:
            tracked = frozenset()
        def tick_fn(fn, comp):
            if profiler is None:
                return fn
            return profiler.wrap_tick_fn(fn, comp.path)

        self._captures = [
            tick_fn(c.capture, c)
            for c in self._capture_list
            if id(c) not in seq_ids
        ]
        self._noted_commits = [
            (c, tick_fn(c.commit, c))
            for c in self._commit_list
            if id(c) in tracked and id(c) not in seq_ids
        ]
        self._plain_commits = [
            tick_fn(c.commit, c)
            for c in self._commit_list
            if id(c) not in tracked and id(c) not in seq_ids
        ]
        self._compile_cycle()
        if profiler is not None:
            profiler.bind_engine(self._engine)

    def _compile_cycle(self) -> None:
        """Generate this build's per-cycle function and its settle sibling.

        One generated source defines ``_cycle(cycle, until)`` and
        ``_settle(cycle)``.  ``_cycle`` inlines, in order: the engine's
        settle program (for the compiled engine its line-region probes
        and unrolled SCC worklists), the ``until`` check, the observers,
        the tick plans' capture sweep, the legacy per-component captures
        and commits (emitted only when present), the plans' commit sweep
        and the cycle count.  A profiled build also gets its settle and
        tick phase timers emitted into both functions.  Every per-design
        value is a name in the design's own namespace, so designs of one
        shape share one code object (:mod:`repro.kernel.codegen`).

        The function is per cycle, not per run, so CPython's adaptive
        interpreter specializes it after a few cycles of any run.  A
        rebuild marks the replaced namespace ``_gone``; a replaced
        function that notices it after its observers hands the rest of
        the cycle to :meth:`_resume`.
        """
        if self._cycle_fn is not None:
            self._cycle_fn.__globals__["_gone"] = True
        engine, profiler = self._engine, self._profiler
        ns: dict[str, Any] = {
            "_sim": self, "_obs": self._observers, "_gone": False,
        }
        settle, iterations = engine.settle_source(ns)
        tick: list[str] = []
        commit: list[str] = []
        if self._seq is not None:
            tick, commit = self._seq.compile_driver(
                ns, engine.stale_set, engine.component_index
            )
        if self._captures:
            ns["_caps"] = self._captures
            tick += ["    for _f in _caps:", "        _f()"]
        if self._plain_commits:
            ns["_coms"] = self._plain_commits
            tick += ["    for _f in _coms:", "        _f()"]
        if self._noted_commits:
            # False lets the engine skip the component's next settle.
            ns["_noted"], ns["_note"] = self._noted_commits, self._note_state
            tick += ["    for _c, _f in _noted:",
                     "        if _f() is not False:", "            _note(_c)"]
        tick += commit + ["    _sim.cycle = cycle + 1"]
        timer: list[str] = []
        if profiler is not None:  # the tick phase times the observers too
            ns.update(_perf=perf_counter, _P=profiler,
                      _seed=engine.seed_size)
            settle = [
                "    _t = _perf()", "    _n = _seed()", *settle,
                f"    _P.settled(_perf() - _t, {iterations}, _n)",
            ]
            timer = ["    _t = _perf()"]
            tick.append("    _P.ticked(_perf() - _t)")
        self._tick_source = "\n".join(["def _tick(cycle):", *timer, *tick])
        observe = [
            "    if until is not None and until(_sim):",
            "        return True",
            *timer,
            "    for _o in _obs:",
            "        _o(_sim)",
            "    if _gone:",
            "        return _sim._resume()",
            "    cycle = _sim.cycle",
        ]
        exec_generated("\n".join([
            "def _settle(cycle):", *settle, f"    return {iterations}",
            "def _cycle(cycle, until):", *settle, *observe, *tick,
        ]), ns)
        self._cycle_fn, self._settle_fn = ns["_cycle"], ns["_settle"]

    def _resume(self) -> None:
        """Finish a cycle whose build was replaced mid-cycle.

        An ``until`` predicate or an observer may ``reset()``,
        ``rebuild()`` or attach a profiler; the old plans then bind a
        stale seq store, so the capture/commit sweeps run on the new
        build here, at the (possibly reset) cycle count — the phase
        order of an uninterrupted cycle.  Compiled on first use.
        """
        ns = self._cycle_fn.__globals__
        if "_tick" not in ns:
            exec_generated(self._tick_source, ns)
        ns["_tick"](self.cycle)

    # ------------------------------------------------------------------
    # profiling
    # ------------------------------------------------------------------
    @property
    def profiler(self) -> Any:
        """The attached :class:`KernelProfiler`, or ``None``."""
        return self._profiler

    def attach_profiler(self, profiler: Any = None) -> Any:
        """Attach *profiler* (or a fresh one) by recompiling the engine.

        This is explicitly **not** an observer registration: the engine
        and tick plans are rebuilt with timing closures compiled in, so
        the run's observable behaviour is bit-identical (everything is
        marked stale, and the re-derived fixed point is the same one).  Returns the profiler.
        """
        if profiler is None:
            from repro.obs.profile import KernelProfiler

            profiler = KernelProfiler()
        if self._profiler is profiler:
            return profiler
        if self._profiler is not None:
            self.detach_profiler()
        self._profiler = profiler
        if self._finalized:
            self._build_engine()
            invalidate_all = getattr(self._engine, "invalidate_all", None)
            if invalidate_all is not None:
                invalidate_all()
        return profiler

    def detach_profiler(self) -> Any:
        """Detach the profiler and recompile the unprofiled fast path.

        The engine and tick plans are rebuilt without any timing
        closures — the simulator afterwards runs the exact code it
        would have run had the profiler never existed (the
        ``profile_overhead`` benchmark gate holds this to <2% on
        ``mt_pipeline``).  Returns the detached profiler (its
        accumulated report stays readable), or ``None`` if none was
        attached.
        """
        profiler = self._profiler
        if profiler is None:
            return None
        self._profiler = None
        if self._finalized:
            self._build_engine()
            invalidate_all = getattr(self._engine, "invalidate_all", None)
            if invalidate_all is not None:
                invalidate_all()
        return profiler

    def profile(self, profiler: Any = None) -> Any:
        """Scoped profiling: ``with sim.profile() as prof: sim.run(...)``.

        Attaches on enter, detaches on exit; ``prof.report()`` stays
        available after the block.  See
        :class:`repro.obs.profile.ProfileSession`.
        """
        from repro.obs.profile import ProfileSession

        return ProfileSession(self, profiler)

    # ------------------------------------------------------------------
    # reset / rebuild
    # ------------------------------------------------------------------
    def rebuild(self) -> None:
        """Recompile the settle engine and tick plans, keeping all state.

        Post-finalize collaborator swaps (replacing an MEB's arbiter in
        an ablation, re-wiring a function) need the compile-time
        bindings of the compiled engine's slot/seq steps refreshed;
        ``rebuild()`` does exactly that without touching registered
        state — sequential slots are re-homed into the fresh
        :class:`SeqStore` with their live values, so traces continue
        seamlessly.  Everything is marked stale, as after any
        out-of-band mutation.
        """
        already_finalized = self._finalized
        self._finalize()
        if already_finalized:
            self._build_engine()
        invalidate_all = getattr(self._engine, "invalidate_all", None)
        if invalidate_all is not None:
            invalidate_all()

    def reset(self) -> None:
        """Reset all registered state and the cycle counter.

        On an already-finalized simulator this includes a
        :meth:`rebuild`, so collaborator swaps take effect at the next
        reset.  Mutating collaborators *without* a reset or rebuild is
        undefined under the compiled engine (its slot steps hold
        compile-time bindings).
        """
        self.rebuild()
        for comp in self._reset_list:
            comp.reset()
        self.cycle = 0

    # ------------------------------------------------------------------
    # snapshot / restore / fork
    # ------------------------------------------------------------------
    def add_snapshot_hook(
        self,
        save: Callable[[], Any],
        load: Callable[[Any], None],
    ) -> None:
        """Register extra (non-component) state with the snapshot layer.

        *save* returns a copyable blob of the state; *load* receives a
        private copy of that blob on every restore.  Used for state that
        lives outside the component tree but inside the simulated
        semantics — e.g. the MD5 circuit's global round counter.
        """
        self._snapshot_hooks.append((save, load))

    def snapshot(self) -> SimSnapshot:
        """Capture the complete simulation state at this point.

        One columnar copy of the signal store and the sequential-state
        store plus a structure-sharing copy of every component's
        registered Python state (monitor columns, endpoint logs, FSMs).
        The snapshot is immutable with respect to further simulation:
        restoring and running never corrupts it, so a single warm-up
        snapshot can seed any number of forked trajectories.  See
        :mod:`repro.kernel.snapshot` for the exact contract.
        """
        self._finalize()
        return take_snapshot(self)

    def restore(self, snap: SimSnapshot) -> None:
        """Rewind this simulator to *snap* (taken from this instance).

        State is written through the existing objects (lists in place,
        helper objects' ``__dict__`` rewritten) so compiled closures
        keep their bindings; afterwards everything is marked stale, as
        after any out-of-band mutation.  Out-of-band inputs applied
        since the snapshot (``push``, ``block``) are rewound with it.
        """
        self._finalize()
        restore_snapshot(self, snap)

    def fork(self) -> ForkContext:
        """Branch point: ``with sim.fork(): ...`` rewinds on exit.

        Takes a snapshot immediately; the ``with`` body runs one
        trajectory (push stimulus, run, measure) and the exit restores
        the branch-point state — warm-up cycles are paid once and
        shared by every variant.  Entering the context yields the
        underlying :class:`SimSnapshot` for explicit reuse.
        """
        self._finalize()
        return ForkContext(self)

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def settle(self) -> int:
        """Run combinational evaluation to a fixed point.

        Returns the number of iterations used (an engine-specific
        effort measure: whole-design passes for the naive engine, the
        deepest local iteration count for the compiled engine).  Exposed
        publicly so tests can inspect settled values mid-cycle without
        advancing the clock.
        """
        self._finalize()
        return self._settle_fn(self.cycle)

    def step(self) -> None:
        """Advance the simulation by one clock cycle."""
        self._finalize()
        self._cycle_fn(self.cycle, None)

    def run(
        self,
        cycles: int | None = None,
        until: Callable[["Simulator"], bool] | None = None,
        max_cycles: int = 100_000,
    ) -> int:
        """Run for a fixed number of cycles or until a predicate holds.

        Parameters
        ----------
        cycles:
            Exact number of cycles to run (mutually exclusive with *until*).
        until:
            Stop as soon as the predicate returns True (checked after the
            settle phase of each cycle, before state commit — i.e. the
            condition is observed in the cycle in which it first holds).
        max_cycles:
            Safety bound for *until* runs; exceeding it raises
            :class:`~repro.kernel.errors.SimulationError` so a deadlocked
            elastic network fails a test instead of hanging it.

        Returns the number of cycles executed by this call.
        """
        if (cycles is None) == (until is None):
            raise ValueError("specify exactly one of 'cycles' or 'until'")
        self._finalize()
        limit = max_cycles if cycles is None else cycles
        executed = 0
        # The cycle function is re-read every cycle, not bound once: an
        # observer or `until` predicate may reset(), rebuild() or attach
        # a profiler, which swaps in a new one mid-run.
        while executed < limit:
            if self._cycle_fn(self.cycle, until):
                return executed
            executed += 1
        if until is None:
            return executed
        raise SimulationError(
            f"'until' predicate not satisfied within {max_cycles} cycles "
            f"(possible deadlock)"
        )

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def components(self) -> list[Component]:
        return list(self._components)

    @property
    def signals(self) -> list[Signal]:
        """Every signal owned by a registered component."""
        self._finalize()
        return list(self._signals)

    @property
    def store(self) -> SlotStore:
        """The flat slot-indexed value store backing every signal."""
        self._finalize()
        return self._store

    @property
    def seq(self) -> SeqStore | None:
        """The columnar sequential-state store (compiled engine with
        ``compile_seq`` enabled and at least one planned component),
        else ``None``."""
        self._finalize()
        return self._seq

    def find(self, path: str) -> Component:
        """Look up a component by hierarchical dotted path (O(1))."""
        try:
            return self._by_path[path]
        except KeyError:
            raise KeyError(f"no component with path {path!r}") from None

    def signal_by_name(self, name: str) -> Signal:
        """Look up a signal by its full hierarchical name (O(1))."""
        self._finalize()
        try:
            return self._signal_by_name[name]
        except KeyError:
            raise KeyError(f"no signal named {name!r}") from None


def build(
    *components: Component,
    max_settle_iterations: int = 64,
    engine: str | None = None,
    compile_seq: bool | None = None,
) -> Simulator:
    """Convenience constructor: make a simulator, add components, reset."""
    sim = Simulator(
        max_settle_iterations=max_settle_iterations,
        engine=engine,
        compile_seq=compile_seq,
    )
    for comp in components:
        sim.add(comp)
    sim.reset()
    return sim
