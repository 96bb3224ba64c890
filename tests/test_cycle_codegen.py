"""The generated per-cycle function, differentially against ``naive``.

Every simulator runs its cycles through one generated function that
inlines the settle program, the ``until`` check, the observers and the
tick sweeps (``Simulator._compile_cycle``).  Pinned here, each against
the naive oracle and the compiled engine with tick compilation off:

* an ``until`` predicate or an observer that resets, rebuilds or
  attaches/detaches a profiler mid-run (the replaced function hands the
  rest of its cycle to the new build);
* ``settle()``, ``step()``, ``run()`` and ``snapshot()``/``restore()``
  interleaved on one simulator;
* a design with an opaque (undeclared-read) component;
* a true combinational loop: the same ``ConvergenceError`` (cycle,
  iterations, unstable signal names) from every entry point.
"""

from __future__ import annotations

import pytest

from repro.core import FullMEB, ReducedMEB
from repro.kernel import Component, ConvergenceError, Simulator
from repro.kernel.values import same_value

from tests.conftest import make_mt_pipeline

VARIANTS = ("naive", "compiled", "compiled-noseq")


def make(variant, meb_cls=FullMEB):
    items = [list(range(t * 100, t * 100 + 9)) for t in range(3)]
    sim, source, sink, _mebs, _mons = make_mt_pipeline(
        meb_cls, threads=3, items=items, n_stages=3,
        engine="naive" if variant == "naive" else "compiled",
    )
    if variant == "compiled-noseq":
        sim.seq_enabled = False
        sim.reset()
    assert (sim.seq is not None) == (variant == "compiled")
    return sim, source, sink


def values(sim):
    return [sig.value for sig in sim.signals]


def assert_same(rows, ref, label):
    assert len(rows) == len(ref), label
    for i, (row, want) in enumerate(zip(rows, ref)):
        assert len(row) == len(want)
        assert all(same_value(a, b) for a, b in zip(row, want)), (
            f"{label}: first difference at sample {i}"
        )


def run_variants(scenario):
    """Run *scenario(variant)* under every variant; compare to naive."""
    results = {variant: scenario(variant) for variant in VARIANTS}
    for variant in VARIANTS[1:]:
        assert_same(results[variant], results["naive"], variant)
    return results


ACTIONS = {
    "reset": lambda sim: sim.reset(),
    "rebuild": lambda sim: sim.rebuild(),
    "attach_profiler": lambda sim: sim.attach_profiler(),
    "detach_profiler": lambda sim: sim.detach_profiler(),
}


class TestMidRunRebuild:
    """A hook that replaces the build mid-cycle is cycle-identical."""

    @pytest.mark.parametrize("action", sorted(ACTIONS))
    @pytest.mark.parametrize("hook", ["until", "observer"])
    @pytest.mark.parametrize("meb_cls", [FullMEB, ReducedMEB])
    def test_replaced_mid_cycle(self, action, hook, meb_cls):
        def scenario(variant):
            sim, _source, sink = make(variant, meb_cls)
            if action == "detach_profiler":
                sim.attach_profiler()
            rows = []
            calls = [0]

            def act(s):
                calls[0] += 1
                if calls[0] == 7:
                    before = s._cycle_fn
                    ACTIONS[action](s)
                    assert s._cycle_fn is not before
                    assert before.__globals__["_gone"]
                return calls[0] >= 40

            sim.add_observer(lambda s: rows.append([s.cycle, *values(s)]))
            if hook == "until":
                assert sim.run(until=act, max_cycles=100) == 39
            else:
                sim.add_observer(act)
                sim.run(cycles=40)
            # The replaced function finished its cycle through _resume.
            assert "_tick" in sim._cycle_fn.__globals__
            rows.append([sim.cycle, len(sink.received), *values(sim)])
            if action == "attach_profiler":
                report = sim.profiler.report()
                ticks = 40 - 7 + (hook == "observer")
                assert report["cycles"]["total"] == ticks
            return rows

        run_variants(scenario)


class TestInterleavedEntryPoints:
    def test_settle_step_run_snapshot_restore(self):
        def scenario(variant):
            sim, source, sink = make(variant)
            rows = []

            def sample(tag):
                rows.append([tag, sim.cycle, len(sink.received),
                             *values(sim)])

            assert sim.settle() >= 1
            sample("settle")
            sim.step()
            sample("step")
            sim.run(cycles=5)
            sample("run")
            snap = sim.snapshot()
            sim.settle()
            sim.settle()
            sample("settle-twice")
            ran = sim.run(until=lambda s: len(sink.received) >= 4,
                          max_cycles=200)
            sample(f"until-{ran}")
            sim.step()
            sim.restore(snap)
            sample("restore")
            sim.settle()
            sample("settle-after-restore")
            for _ in range(3):
                sim.step()
                sample("step")
            source.push(1, 4242)
            sim.run(until=lambda s: len(sink.received) == 27,
                    max_cycles=500)
            sample("drained")
            return rows

        results = run_variants(scenario)
        assert results["naive"][-1][2] == 27


class _Latch(Component):
    """Declared register: counts up, publishes the count."""

    def __init__(self, name):
        super().__init__(name)
        self.out = self.output("out", width=8, init=0)
        self.declare_reads()
        self._value = 0
        self._next = 0

    def combinational(self):
        self.out.set(self._value)

    def capture(self):
        self._next = (self._value + 1) % 256

    def commit(self):
        self._value = self._next

    def reset(self):
        self._value = self._next = 0


class _Opaque(Component):
    """Reads another component's output without declaring it."""

    def __init__(self, name, src):
        super().__init__(name)
        self.src = src
        self.out = self.output("out", width=8, init=0)

    def combinational(self):
        self.out.set((self.src.value * 3 + 1) % 256)


class _Follower(Component):
    """Declared reader of the opaque component's output."""

    def __init__(self, name, src):
        super().__init__(name)
        self.out = self.output("out", width=8, init=0)
        self.src = src
        self.declare_reads(src)

    def combinational(self):
        self.out.set(self.src.value ^ 0x55)


class TestOpaqueComponent:
    def test_opaque_design_matches_naive(self):
        def scenario(variant):
            sim = Simulator(
                engine="naive" if variant == "naive" else "compiled",
                compile_seq=variant != "compiled-noseq",
            )
            latch = _Latch("latch")
            opaque = _Opaque("opq", latch.out)
            follower = _Follower("fol", opaque.out)
            for comp in (latch, opaque, follower):
                sim.add(comp)
            sim.reset()
            rows = []
            sim.add_observer(lambda s: rows.append(values(s)))
            sim.run(cycles=20)
            sim.step()
            sim.settle()
            rows.append(values(sim))
            sim.run(until=lambda s: follower.out.value == (91 ^ 0x55),
                    max_cycles=300)
            rows.append([sim.cycle, *values(sim)])
            return rows

        run_variants(scenario)


class _Inverter(Component):
    def __init__(self, name):
        super().__init__(name)
        self.src = None
        self.out = self.output("out", init=False)

    def late_bind(self, sig):
        self.src = sig
        self.declare_reads(sig)

    def combinational(self):
        self.out.set(not self.src.value)


class _Gate(Component):
    """Closes an inverter ring only from cycle ``at`` onwards."""

    def __init__(self, name, at):
        super().__init__(name)
        self.at = at
        self.count = 0
        self.src = None
        self.out = self.output("out", init=False)
        self.declare_volatile()

    def late_bind(self, sig):
        self.src = sig
        self.declare_reads(sig)

    def combinational(self):
        self.out.set(bool(self.src.value) if self.count >= self.at else False)

    def capture(self):
        pass

    def commit(self):
        self.count += 1

    def reset(self):
        self.count = 0


class TestCombinationalLoop:
    @pytest.mark.parametrize("entry", ["settle", "step", "run", "until"])
    def test_same_convergence_error_as_naive(self, entry):
        def scenario(variant):
            sim = Simulator(
                max_settle_iterations=9,
                engine="naive" if variant == "naive" else "compiled",
                compile_seq=variant != "compiled-noseq",
            )
            # gate -> inv0 -> inv1 -> inv2 -> gate: an odd inverting
            # ring once the gate closes at cycle 3.
            gate = _Gate("gate", at=3)
            ring = [_Inverter(f"inv{i}") for i in range(3)]
            ring[0].late_bind(gate.out)
            for prev, inv in zip(ring, ring[1:]):
                inv.late_bind(prev.out)
            gate.late_bind(ring[-1].out)
            for comp in (gate, *ring):
                sim.add(comp)
            sim.reset()
            with pytest.raises(ConvergenceError) as exc:
                if entry == "settle":
                    sim.run(cycles=3)
                    sim.settle()
                elif entry == "step":
                    for _ in range(10):
                        sim.step()
                elif entry == "run":
                    sim.run(cycles=10)
                else:
                    sim.run(until=lambda s: False, max_cycles=10)
            err = exc.value
            return [[err.cycle, err.iterations, *sorted(err.unstable)]]

        results = run_variants(scenario)
        cycle, iterations, *names = results["naive"][0]
        assert (cycle, iterations) == (3, 9)
        assert names
