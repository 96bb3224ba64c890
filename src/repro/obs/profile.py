"""Kernel profiler: wall-time attribution without breaking the fast path.

:class:`KernelProfiler` attributes wall-time and invocation counts per
component, per compiled region, and per phase (settle vs tick), plus
engine counters (settle iterations, dirty-set seed sizes, ensemble lane
occupancy) for one :class:`~repro.kernel.simulator.Simulator`.

The contract (differentially tested in ``tests/test_obs.py``):

* **Not an observer.**  Attaching never calls ``add_observer``, which
  would add a per-cycle call the run being diagnosed does not make.
  Instead the simulator *recompiles* its engine and tick plans with
  timing wrappers baked in (``Simulator.attach_profiler`` ->
  ``_build_engine``), and recompiles them back out on detach.
* **Bit-identical reports.**  The wrappers time and count; they never
  reorder, skip, or add evaluations, so settled values, cycle counts
  and every campaign metric are unchanged.
* **Zero cost when off.**  Profiling hooks exist only in plans compiled
  while a profiler is attached; a detached simulator runs the exact
  code it would have run had the profiler never existed (gated by the
  ``profile_overhead`` ratio in ``BENCH_kernel.json``).

Usage::

    with sim.profile() as prof:
        sim.run(cycles=10_000)
    report = prof.report()          # JSON-safe dict

or ``Simulator(profile=True)`` + ``sim.profiler.report()``.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Callable

__all__ = ["KernelProfiler", "ProfileSession"]


class KernelProfiler:
    """Accumulates timing/counter data for one simulator's run window."""

    def __init__(self) -> None:
        self.engine_name: str | None = None
        self.reset()

    def reset(self) -> None:
        """Zero every accumulator (keeps engine/region attribution)."""
        # path -> [seconds, calls] for settle-phase evaluations.
        self._comb: dict[str, list] = {}
        # path -> [seconds, calls] for tick-phase capture+commit.
        self._tick: dict[str, list] = {}
        # phase -> [seconds, calls]
        self._phase = {
            "settle": [0.0, 0],
            "tick": [0.0, 0],
        }
        self.settle_iterations = 0
        self.dirty_seeded = 0
        self.dirty_max = 0
        self.cycles_ticked = 0
        self._regions: list[dict] = []
        self._ensemble = {"batches": 0, "lanes": 0, "lanes_live": 0}

    # ------------------------------------------------------------------
    # wrappers compiled into engines / plans (only while attached)
    # ------------------------------------------------------------------
    def wrap_comb(self, fn: Callable[[], Any], path: str) -> Callable[[], Any]:
        """Time a settle-phase evaluation step attributed to *path*."""
        cell = self._comb.setdefault(path, [0.0, 0])
        perf = perf_counter

        def timed():
            t0 = perf()
            try:
                return fn()
            finally:
                cell[0] += perf() - t0
                cell[1] += 1

        timed.__qualname__ = f"profiled[{path}]"
        return timed

    def wrap_tick_capture(self, fn, path: str):
        """Time a tick-phase capture step (``fn(cycle)``) for *path*."""
        cell = self._tick.setdefault(path, [0.0, 0])
        perf = perf_counter

        def timed(cycle):
            t0 = perf()
            try:
                return fn(cycle)
            finally:
                cell[0] += perf() - t0
                cell[1] += 1

        return timed

    def wrap_tick_fn(self, fn: Callable[[], Any], path: str):
        """Time a tick-phase capture()/commit() (no-arg) for *path*."""
        cell = self._tick.setdefault(path, [0.0, 0])
        perf = perf_counter

        def timed():
            t0 = perf()
            try:
                return fn()
            finally:
                cell[0] += perf() - t0
                cell[1] += 1

        return timed

    # ------------------------------------------------------------------
    # engine / simulator instrumentation (instance-attribute shadowing,
    # never observers)
    # ------------------------------------------------------------------
    def instrument_engine(self, engine) -> None:
        """Wrap ``engine.settle`` with phase timing + scheduling counters.

        The wrapper is an *instance* attribute shadowing the class
        method, so a detach simply rebuilds the engine and the shadow is
        gone with it.  Reads the engines' private scheduling state to
        size the dirty seed — the profiler lives in-tree and tracks
        those structures.
        """
        self.engine_name = engine.name
        self._regions = [
            dict(region) for region in getattr(engine, "regions", ())
        ]
        name = engine.name
        if name == "compiled":
            stale, dirty = engine._stale, engine._dirty
            volatile = frozenset(engine._volatile)

            def seed_size() -> int:
                return len(stale | dirty | volatile)

        else:  # naive: every component, every settle
            n = len(engine._components)

            def seed_size() -> int:
                return n

        orig = type(engine).settle
        phase = self._phase["settle"]
        perf = perf_counter

        def timed_settle(cycle: int) -> int:
            seeded = seed_size()
            self.dirty_seeded += seeded
            if seeded > self.dirty_max:
                self.dirty_max = seeded
            t0 = perf()
            try:
                iterations = orig(engine, cycle)
            finally:
                phase[0] += perf() - t0
                phase[1] += 1
            self.settle_iterations += iterations
            return iterations

        engine.settle = timed_settle

    def instrument_sim(self, sim) -> None:
        """Shadow ``sim._tick`` with a timed call."""
        orig_tick = type(sim)._tick
        tick_phase = self._phase["tick"]
        perf = perf_counter

        def timed_tick() -> None:
            t0 = perf()
            try:
                orig_tick(sim)
            finally:
                tick_phase[0] += perf() - t0
                tick_phase[1] += 1
            self.cycles_ticked += 1

        sim.__dict__["_tick"] = timed_tick

    def release_sim(self, sim) -> None:
        """Remove the instance-attribute shadow placed by instrument_sim."""
        sim.__dict__.pop("_tick", None)

    # ------------------------------------------------------------------
    # extra data points
    # ------------------------------------------------------------------
    def note_ensemble(self, width: int, live: int) -> None:
        """Record one lockstep batch: *live* of *width* lanes finished."""
        ens = self._ensemble
        ens["batches"] += 1
        ens["lanes"] += int(width)
        ens["lanes_live"] += int(live)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def report(self, top: int | None = None) -> dict:
        """JSON-safe summary of everything accumulated so far.

        ``top`` caps the component hot-list length (None = all), sorted
        by total attributed time descending.
        """
        components = []
        for path in sorted(set(self._comb) | set(self._tick)):
            comb = self._comb.get(path, (0.0, 0))
            tick = self._tick.get(path, (0.0, 0))
            components.append(
                {
                    "path": path,
                    "settle_s": round(comb[0], 6),
                    "settle_calls": comb[1],
                    "tick_s": round(tick[0], 6),
                    "tick_calls": tick[1],
                    "total_s": round(comb[0] + tick[0], 6),
                }
            )
        components.sort(key=lambda row: (-row["total_s"], row["path"]))
        if top is not None:
            components = components[:top]
        regions = []
        for region in self._regions:
            members = region.get("members", ())
            time_s = sum(self._comb.get(p, (0.0, 0))[0] for p in members)
            calls = sum(self._comb.get(p, (0.0, 0))[1] for p in members)
            regions.append(
                {
                    "kind": region.get("kind"),
                    "size": len(members),
                    "members": list(members),
                    "settle_s": round(time_s, 6),
                    "settle_calls": calls,
                }
            )
        settle_calls = self._phase["settle"][1]
        ens = self._ensemble
        report = {
            "engine": self.engine_name,
            # Every cycle is ticked.  "fused" is always 0 and is kept
            # only because the perfbench workloads read cycles.fused;
            # drop it when perfbench is next re-cut.
            "cycles": {
                "total": self.cycles_ticked,
                "ticked": self.cycles_ticked,
                "fused": 0,
            },
            "phases": {
                name: {"time_s": round(cell[0], 6), "calls": cell[1]}
                for name, cell in self._phase.items()
            },
            "settle": {
                "calls": settle_calls,
                "iterations": self.settle_iterations,
                "mean_iterations": (
                    round(self.settle_iterations / settle_calls, 3)
                    if settle_calls
                    else 0.0
                ),
                "dirty_seeded": self.dirty_seeded,
                "mean_dirty": (
                    round(self.dirty_seeded / settle_calls, 3)
                    if settle_calls
                    else 0.0
                ),
                "max_dirty": self.dirty_max,
            },
            "components": components,
            "regions": regions,
        }
        if ens["batches"]:
            report["ensemble"] = {
                "batches": ens["batches"],
                "lanes": ens["lanes"],
                "lanes_live": ens["lanes_live"],
                "occupancy": round(ens["lanes_live"] / ens["lanes"], 6)
                if ens["lanes"]
                else 0.0,
            }
        return report


class ProfileSession:
    """Context manager: attach a profiler on enter, detach on exit.

    Returned by :meth:`Simulator.profile`.  The profiler object stays
    usable after exit (``session.profiler.report()``), and the simulator
    leaves the context running the exact unprofiled fast path.
    """

    def __init__(self, sim, profiler: KernelProfiler | None = None):
        self.sim = sim
        self.profiler = profiler if profiler is not None else KernelProfiler()

    def __enter__(self) -> KernelProfiler:
        self.sim.attach_profiler(self.profiler)
        return self.profiler

    def __exit__(self, exc_type, exc, tb) -> None:
        self.sim.detach_profiler()
