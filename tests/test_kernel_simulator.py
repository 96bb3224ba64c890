"""Tests for the two-phase simulator: settle loop, clocking, run control."""

import pytest

from repro.kernel import (
    Component,
    ConvergenceError,
    SimulationError,
    Simulator,
    TraceRecorder,
    build,
)


class Counter(Component):
    """Registered counter: classic sequential behaviour."""

    def __init__(self, name):
        super().__init__(name)
        self.out = self.output("out", width=8, init=0)
        self._value = 0
        self._next = None

    def combinational(self):
        self.out.set(self._value)

    def capture(self):
        self._next = self._value + 1

    def commit(self):
        self._value = self._next

    def reset(self):
        self._value = 0
        self._next = None


class Doubler(Component):
    """Combinational: out = 2 * in."""

    def __init__(self, name, src):
        super().__init__(name)
        self.src = src
        self.out = self.output("out", width=8, init=0)

    def combinational(self):
        self.out.set(2 * self.src.value)


class Oscillator(Component):
    """Deliberate combinational loop: out = !out."""

    def __init__(self, name):
        super().__init__(name)
        self.out = self.output("out", init=False)

    def combinational(self):
        self.out.set(not self.out.value)


class TestSettle:
    def test_combinational_chain_settles(self):
        counter = Counter("cnt")
        doubler = Doubler("dbl", counter.out)
        sim = build(counter, doubler)
        sim.settle()
        assert doubler.out.value == 0
        sim.step()
        sim.settle()
        assert counter.out.value == 1
        assert doubler.out.value == 2

    def test_settle_returns_iteration_count(self):
        counter = Counter("cnt")
        sim = build(counter)
        # One pass to compute, one to confirm stability.
        assert sim.settle() <= 2

    def test_oscillator_raises_convergence_error(self):
        sim = build(Oscillator("osc"))
        with pytest.raises(ConvergenceError) as exc:
            sim.settle()
        assert "osc.out" in str(exc.value)

    def test_convergence_error_carries_diagnostics(self):
        sim = build(Oscillator("osc"), max_settle_iterations=5)
        with pytest.raises(ConvergenceError) as exc:
            sim.settle()
        assert exc.value.iterations == 5
        assert exc.value.unstable == ["osc.out"]


class TestClocking:
    def test_step_advances_cycle(self):
        sim = build(Counter("cnt"))
        assert sim.cycle == 0
        sim.step()
        assert sim.cycle == 1

    def test_counter_counts(self):
        counter = Counter("cnt")
        sim = build(counter)
        sim.run(cycles=5)
        sim.settle()
        assert counter.out.value == 5

    def test_capture_commit_is_race_free(self):
        # Two counters where B registers A's output; regardless of order
        # B must see A's *pre-edge* value (nonblocking semantics).
        class Follower(Component):
            def __init__(self, name, src):
                super().__init__(name)
                self.src = src
                self.out = self.output("out", init=0)
                self._value = 0
                self._next = None

            def combinational(self):
                self.out.set(self._value)

            def capture(self):
                self._next = self.src.value

            def commit(self):
                self._value = self._next

            def reset(self):
                self._value = 0

        counter = Counter("cnt")
        follower = Follower("fol", counter.out)
        sim = build(counter, follower)
        sim.run(cycles=3)
        sim.settle()
        # After 3 edges: counter=3, follower holds counter's value at edge 3,
        # which was 2.
        assert counter.out.value == 3
        assert follower.out.value == 2

    def test_reset_restores_initial_state(self):
        counter = Counter("cnt")
        sim = build(counter)
        sim.run(cycles=7)
        sim.reset()
        assert sim.cycle == 0
        sim.settle()
        assert counter.out.value == 0


class TestRunControl:
    def test_run_requires_exactly_one_mode(self):
        sim = build(Counter("cnt"))
        with pytest.raises(ValueError):
            sim.run()
        with pytest.raises(ValueError):
            sim.run(cycles=1, until=lambda s: True)

    def test_run_until_predicate(self):
        counter = Counter("cnt")
        sim = build(counter)
        sim.run(until=lambda s: counter.out.value == 4)
        assert counter.out.value == 4

    def test_run_until_deadlock_guard(self):
        sim = build(Counter("cnt"))
        with pytest.raises(SimulationError):
            sim.run(until=lambda s: False, max_cycles=10)

    def test_until_deadlock_diagnosis_is_cycle_exact(self):
        # 10 items pushed, 11 awaited: the network drains, idles, and the
        # guard fires after exactly max_cycles cycles on every engine,
        # with the same transfers as a run that stops at completion.
        from repro.sweep.families import make_mt_chain

        def loaded_chain(engine):
            sim, source, sink = make_mt_chain(threads=2, n_funcs=2, n_items=0, engine=engine)
            for t in range(2):
                for k in range(5):
                    source.push(t, t * 100 + k)
            return sim, sink

        done_sim, done_sink = loaded_chain("naive")
        done_sim.run(until=lambda _s: done_sink.count >= 10, max_cycles=300)
        assert done_sim.cycle < 300
        for engine in ("compiled", "naive"):
            sim, sink = loaded_chain(engine)
            with pytest.raises(SimulationError, match="within 300 cycles"):
                sim.run(until=lambda _s: sink.count >= 11, max_cycles=300)
            assert sim.cycle == 300
            assert list(sink.received) == list(done_sink.received)

    def test_add_after_start_rejected(self):
        sim = build(Counter("cnt"))
        sim.step()
        with pytest.raises(SimulationError):
            sim.add(Counter("late"))

    def test_find_component_by_path(self):
        counter = Counter("cnt")
        sim = build(counter)
        assert sim.find("cnt") is counter
        with pytest.raises(KeyError):
            sim.find("nope")

    def test_signal_by_name(self):
        counter = Counter("cnt")
        sim = build(counter)
        assert sim.signal_by_name("cnt.out") is counter.out
        with pytest.raises(KeyError):
            sim.signal_by_name("cnt.missing")


class TestTrace:
    def test_trace_records_every_cycle(self):
        counter = Counter("cnt")
        sim = Simulator()
        sim.add(counter)
        sim.reset()
        rec = TraceRecorder([counter.out], labels=["count"]).attach(sim)
        sim.run(cycles=4)
        assert rec.column("count") == [0, 1, 2, 3]
        assert rec.cycles == [0, 1, 2, 3]

    def test_ascii_waveform_contains_values(self):
        counter = Counter("cnt")
        sim = Simulator()
        sim.add(counter)
        sim.reset()
        rec = TraceRecorder([counter.out], labels=["count"]).attach(sim)
        sim.run(cycles=3)
        art = rec.ascii_waveform()
        assert "count" in art
        assert "2" in art

    def test_vcd_export(self, tmp_path):
        counter = Counter("cnt")
        sim = Simulator()
        sim.add(counter)
        sim.reset()
        rec = TraceRecorder([counter.out], labels=["count"]).attach(sim)
        sim.run(cycles=3)
        path = tmp_path / "dump.vcd"
        rec.write_vcd(str(path))
        text = path.read_text()
        assert "$enddefinitions" in text
        assert "#0" in text

    def test_trace_label_mismatch_rejected(self):
        counter = Counter("cnt")
        with pytest.raises(ValueError):
            TraceRecorder([counter.out], labels=["a", "b"])
