"""Differential validation: the compiled engine vs. the naive oracle.

The naive whole-design fixed-point loop is the semantics oracle; the
slot-compiled engine (with and without its compiled tick phase) must be
indistinguishable from it at cycle granularity.  Every network family in
the repo is built once per engine and driven for the same number of
cycles while *every signal in the design* is sampled after each settle.
The traces must match value-for-value, cycle-for-cycle.

Also covered here: ConvergenceError parity on deliberate combinational
loops (both for undeclared components, which take the engines' naive
fallback path, and for declared components, which take the SCC worklist
path), slot-store edge cases (X-valued slots, ``invalidate()`` after
finalize, ``declare_volatile``), engine selection plumbing, and
replaying the shipped examples under every engine via the
``REPRO_SIM_ENGINE`` environment variable.  Every design built here
also checks, after each cycle, that every handshake slot holds a bool
(:func:`check_handshakes`).
"""

from __future__ import annotations

import contextlib
import os
import pathlib
import runpy
import sys

import pytest

from repro.apps.md5 import MD5Hasher
from repro.apps.processor import Processor, programs
from repro.core import FullMEB, GrantPolicy, ReducedMEB, StructuralFullMEB
from repro.core.meb import EMPTY
from repro.elastic import (
    Branch,
    EagerFork,
    ElasticBuffer,
    ElasticChannel,
    FunctionUnit,
    Join,
    LatchElasticBuffer,
    LazyFork,
    Merge,
    Sink,
    Source,
    VariableLatencyUnit,
)
from repro.elastic.buffer import HalfBuffer
from repro.elastic.endpoints import duty_cycle, stall_window
from repro.kernel import Component, ControlSignal, ConvergenceError, Simulator, build
from repro.kernel.values import same_value
from repro.netlist import DataflowGraph, elaborate
from repro.sweep.families import make_mt_chain
from repro.sweep.fuzz import DroppingMEB, DuplicatingMEB

from tests.conftest import make_mt_pipeline

ENGINES = ("naive", "compiled")

#: The trace/application differentials additionally pin the compiled
#: engine with its tick-phase compilation force-disabled, so the legacy
#: per-component capture/commit dispatch stays cycle-identical to the
#: SeqStore plans (and to the other engines).
TICK_VARIANTS = ENGINES + ("compiled-noseq",)


@contextlib.contextmanager
def engine_context(variant: str):
    """Yield the engine name for *variant*, pinning env for noseq.

    ``Simulator`` reads ``REPRO_SIM_SEQ`` at construction time, so the
    variable only needs to be set while the factory builds the sim.
    """
    if variant != "compiled-noseq":
        yield variant
        return
    old = os.environ.get("REPRO_SIM_SEQ")
    os.environ["REPRO_SIM_SEQ"] = "0"
    try:
        yield "compiled"
    finally:
        if old is None:
            del os.environ["REPRO_SIM_SEQ"]
        else:
            os.environ["REPRO_SIM_SEQ"] = old


def check_handshakes(sim: Simulator) -> Simulator:
    """Assert, after every cycle's settle, that each valid/ready slot
    holds a bool.

    The compiled steps and tick plans read handshake slots raw, relying
    on :class:`ControlSignal` coercing every write; a step that writes an
    int or a truthy object straight into the slot store breaks that
    invariant and fails here.
    """
    wires = [sig for sig in sim.signals if isinstance(sig, ControlSignal)]

    def check(s: Simulator) -> None:
        bad = [(sig.name, sig.value) for sig in wires if type(sig.value) is not bool]
        assert not bad, f"cycle {s.cycle}: non-bool handshake slots {bad[:8]}"

    if wires:
        sim.add_observer(check)
    return sim


@pytest.fixture(autouse=True)
def handshake_slots_hold_bools(monkeypatch):
    """Every design this module builds runs under :func:`check_handshakes`."""
    finalize = Simulator._finalize

    def checked(sim: Simulator) -> None:
        first = not sim._finalized
        finalize(sim)
        if first:
            check_handshakes(sim)

    monkeypatch.setattr(Simulator, "_finalize", checked)


def run_and_trace(sim: Simulator, cycles: int) -> list[dict[str, object]]:
    """Step *cycles* times, sampling every signal after each settle."""
    signals = sim.signals
    rows: list[dict[str, object]] = []
    sim.add_observer(
        lambda s: rows.append({sig.name: sig.value for sig in signals})
    )
    sim.run(cycles=cycles)
    return rows


def assert_identical_traces(factory, cycles: int) -> None:
    """Build the network once per engine variant and compare traces."""
    traces = {}
    for variant in TICK_VARIANTS:
        with engine_context(variant) as engine:
            sim = factory(engine)
        traces[variant] = run_and_trace(sim, cycles)
    naive = traces["naive"]
    assert len(naive) == cycles
    for engine in TICK_VARIANTS[1:]:
        other = traces[engine]
        assert len(other) == cycles
        for cycle, (rown, rowe) in enumerate(zip(naive, other)):
            assert rown.keys() == rowe.keys()
            diffs = [
                (name, rown[name], rowe[name])
                for name in rown
                if not same_value(rown[name], rowe[name])
            ]
            assert not diffs, (
                f"cycle {cycle}: naive vs {engine} diverge on {diffs[:8]}"
            )


# ----------------------------------------------------------------------
# single-thread elastic networks
# ----------------------------------------------------------------------

class TestSingleThreadNetworks:
    def test_buffer_chain_mixed_kinds(self):
        def factory(engine):
            chans = [ElasticChannel(f"c{i}", width=16) for i in range(5)]
            src = Source("src", chans[0], items=list(range(30)),
                         pattern=duty_cycle(3, 4))
            b0 = ElasticBuffer("eb", chans[0], chans[1])
            b1 = HalfBuffer("hb", chans[1], chans[2])
            b2 = LatchElasticBuffer("leb", chans[2], chans[3])
            fu = FunctionUnit("fu", chans[3], chans[4], fn=lambda x: x + 100)
            snk = Sink("snk", chans[4], pattern=stall_window(10, 20))
            return build(*chans, src, b0, b1, b2, fu, snk, engine=engine)

        assert_identical_traces(factory, 80)

    def test_fork_join_diamond_with_vlu(self):
        def factory(engine):
            c = {n: ElasticChannel(n, width=16)
                 for n in ("in", "a", "b", "a2", "b2", "j", "out")}
            src = Source("src", c["in"], items=list(range(20)))
            fork = LazyFork("fork", c["in"], [c["a"], c["b"]])
            fa = FunctionUnit("fa", c["a"], c["a2"], fn=lambda x: x * 3)
            vlu = VariableLatencyUnit(
                "vlu", c["b"], c["b2"], fn=lambda x: x + 7,
                latency=lambda d, k: 1 + (k % 3),
            )
            join = Join("join", [c["a2"], c["b2"]], c["j"])
            buf = ElasticBuffer("buf", c["j"], c["out"])
            snk = Sink("snk", c["out"], pattern=duty_cycle(2, 3))
            return build(*c.values(), src, fork, fa, vlu, join, buf, snk,
                         engine=engine)

        assert_identical_traces(factory, 120)

    def test_eager_fork_branch_merge(self):
        def factory(engine):
            c = {n: ElasticChannel(n, width=16)
                 for n in ("in", "a", "b", "t", "f", "m", "out")}
            src = Source("src", c["in"], items=list(range(24)))
            fork = EagerFork("fork", c["in"], [c["a"], c["b"]])
            sa = Sink("sa", c["a"], pattern=duty_cycle(1, 2))
            br = Branch("br", c["b"], [c["t"], c["f"]],
                        selector=lambda x: x % 2)
            mg = Merge("mg", [c["t"], c["f"]], c["m"], strict=False)
            buf = ElasticBuffer("buf", c["m"], c["out"])
            snk = Sink("snk", c["out"])
            return build(*c.values(), src, fork, sa, br, mg, buf, snk,
                         engine=engine)

        assert_identical_traces(factory, 100)


# ----------------------------------------------------------------------
# multithreaded networks
# ----------------------------------------------------------------------

class TestMultithreadedNetworks:
    @pytest.mark.parametrize("meb_cls", [FullMEB, ReducedMEB])
    def test_mt_pipeline_with_stalls(self, meb_cls):
        def factory(engine):
            items = [list(range(t, t + 12)) for t in range(4)]
            sim, _src, _snk, _mebs, _mons = make_mt_pipeline(
                meb_cls, threads=4, items=items, n_stages=3,
                sink_patterns=[None, stall_window(5, 15), None,
                               duty_cycle(1, 2)],
                engine=engine,
            )
            return sim

        assert_identical_traces(factory, 90)

    def test_structural_full_meb(self):
        def factory(engine):
            from repro.core import MTChannel, MTSink, MTSource
            up = MTChannel("up", threads=3, width=16)
            down = MTChannel("down", threads=3, width=16)
            src = MTSource("src", up, items=[[1, 2], [3, 4], [5, 6]])
            meb = StructuralFullMEB("smeb", up, down)
            snk = MTSink("snk", down, patterns=[duty_cycle(2, 3)] * 3)
            return build(up, down, src, meb, snk, engine=engine)

        assert_identical_traces(factory, 60)

    def test_elaborated_graph_all_operators(self):
        def graph():
            g = DataflowGraph("diff")
            g.source("src", items=[[3, 5, 8, 13], [21, 34, 55, 89]])
            g.buffer("b0")
            g.fork("fk", n_outputs=2)
            g.op("double", fn=lambda x: x * 2)
            g.buffer("b1")
            g.vlu("slow", fn=lambda x: x + 1, latency=2)
            g.buffer("b2")
            g.join("jn", n_inputs=2)
            g.buffer("b3")
            g.sink("snk")
            g.connect("src", "b0")
            g.connect("b0", "fk")
            g.connect("fk", "double", src_port=0)
            g.connect("fk", "slow", src_port=1)
            g.connect("double", "b1")
            g.connect("slow", "b2")
            g.connect("b1", "jn", dst_port=0)
            g.connect("b2", "jn", dst_port=1)
            g.connect("jn", "b3")
            g.connect("b3", "snk")
            return g

        for threads in (1, 2):
            def factory(engine, threads=threads):
                return elaborate(graph(), threads=threads,
                                 engine=engine).sim

            assert_identical_traces(factory, 70)


# ----------------------------------------------------------------------
# full applications
# ----------------------------------------------------------------------

class TestApplications:
    def test_md5_identical_digests_and_cycles(self):
        results = {}
        for variant in TICK_VARIANTS:
            with engine_context(variant) as engine:
                h = MD5Hasher(threads=4, engine=engine)
            digests = h.hash_batch([b"alpha", b"beta", b"gamma", b"delta"])
            results[variant] = (digests, h.circuit.sim.cycle,
                                h.circuit.round_counter)
        for variant in TICK_VARIANTS[1:]:
            assert results["naive"] == results[variant], variant

    def test_md5_pipelined_rounds_identical(self):
        results = {}
        for variant in TICK_VARIANTS:
            with engine_context(variant) as engine:
                h = MD5Hasher(threads=4, round_stages=4, engine=engine)
            digests = h.hash_batch([b"pipelined", b"round"])
            results[variant] = (digests, h.circuit.sim.cycle)
        for variant in TICK_VARIANTS[1:]:
            assert results["naive"] == results[variant], variant

    def test_processor_identical_execution(self):
        results = {}
        for variant in TICK_VARIANTS:
            with engine_context(variant) as engine:
                cpu = Processor(threads=4, meb="reduced", engine=engine)
            mix = programs.standard_mix()
            for t in range(4):
                cpu.load_program(t, mix[t % len(mix)].source)
            stats = cpu.run()
            regs = [[cpu.reg(t, r) for r in range(8)] for t in range(4)]
            results[variant] = (stats.cycles, tuple(stats.retired), regs)
        for variant in TICK_VARIANTS[1:]:
            assert results["naive"] == results[variant], variant

    def test_processor_full_meb_identical(self):
        results = {}
        for variant in TICK_VARIANTS:
            with engine_context(variant) as engine:
                cpu = Processor(threads=2, meb="full", engine=engine)
            cpu.load_program(0, programs.standard_mix()[0].source)
            cpu.load_program(1, programs.standard_mix()[1].source)
            stats = cpu.run()
            results[variant] = (stats.cycles, tuple(stats.retired))
        for variant in TICK_VARIANTS[1:]:
            assert results["naive"] == results[variant], variant

    @pytest.mark.parametrize(
        "program", programs.standard_mix()[:5], ids=lambda p: p.name
    )
    def test_processor_each_program_identical(self, program):
        """Per-program RunStats and architectural state pinned across
        naive/compiled/compiled-noseq (the slot-ported stages must
        be cycle-exact for every instruction class, not just the mix)."""
        results = {}
        for variant in TICK_VARIANTS:
            with engine_context(variant) as engine:
                cpu = Processor(threads=1, meb="reduced", engine=engine)
            cpu.load_program(0, program.source)
            stats = cpu.run()
            results[variant] = (
                stats.cycles,
                tuple(stats.retired),
                cpu.regfile.dump(0),
                cpu.dmem.dump(0),
            )
        for variant in TICK_VARIANTS[1:]:
            assert results["naive"] == results[variant], variant

    def test_processor_memory_programs_identical(self):
        """memcpy + dot-product: loads, stores and the long-latency
        multiplier, with a pre-seeded data-memory image, across all
        engine variants."""
        memcpy_prog, memcpy_image = programs.memcpy([7, 11, 13, 17])
        dot_prog, dot_image = programs.dot_product([3, 5, 7], [2, 4, 6])
        results = {}
        for variant in TICK_VARIANTS:
            with engine_context(variant) as engine:
                cpu = Processor(threads=2, meb="reduced", engine=engine)
            for addr, value in memcpy_image.items():
                cpu.dmem.write(0, addr, value)
            for addr, value in dot_image.items():
                cpu.dmem.write(1, addr, value)
            cpu.load_program(0, memcpy_prog.source)
            cpu.load_program(1, dot_prog.source)
            stats = cpu.run()
            results[variant] = (
                stats.cycles,
                tuple(stats.retired),
                cpu.dmem.dump(0),
                cpu.dmem.dump(1),
            )
        for variant in TICK_VARIANTS[1:]:
            assert results["naive"] == results[variant], variant
        kind, where = memcpy_prog.check
        assert results["naive"][2][where] == memcpy_prog.expected
        kind, where = dot_prog.check
        assert results["naive"][3][where] == dot_prog.expected


# ----------------------------------------------------------------------
# wide designs (the compiled fast paths branch on the thread count)
# ----------------------------------------------------------------------

class EmptyOnlyReducedMEB(ReducedMEB):
    """Storage-hook override: admits only EMPTY threads (no shared slot)."""

    def can_accept(self, thread):
        return self.thread_state(thread) == EMPTY


class CapacityOneFullMEB(FullMEB):
    """Storage-hook override: one item per thread, through can_accept."""

    def can_accept(self, thread):
        return self.occupancy(thread) < 1


#: MEBs overriding a hook the inlined settle step reads: they settle
#: through the reference ``combinational()``.  The capture-only fault
#: MEBs keep the inlined settle step.
HOOK_OVERRIDES = (EmptyOnlyReducedMEB, CapacityOneFullMEB)


class TestWideDifferential:
    """Thread counts where the compiled steps take their width-dependent
    shortcuts: all-empty exits, single-occupant grants, masked grants
    with no request, and the general vector path behind them."""

    def test_mt_chain_32_threads(self):
        def factory(engine):
            sim, _src, _snk = make_mt_chain(
                threads=32, n_funcs=8, n_items=2, engine=engine,
                sink_patterns={3: stall_window(4, 30), 17: duty_cycle(1, 3)},
            )
            return sim

        assert_identical_traces(factory, 60)

    def test_md5_pipelined_16_threads(self):
        messages = [bytes([65 + t]) * (t + 1) for t in range(16)]
        results = {}
        for variant in TICK_VARIANTS:
            with engine_context(variant) as engine:
                h = MD5Hasher(threads=16, round_stages=4, engine=engine)
            digests = h.hash_batch(messages)
            results[variant] = (digests, h.circuit.sim.cycle,
                                h.circuit.round_counter)
        for variant in TICK_VARIANTS[1:]:
            assert results["naive"] == results[variant], variant

    @pytest.mark.parametrize(
        "meb_cls",
        [FullMEB, ReducedMEB, *HOOK_OVERRIDES, DroppingMEB, DuplicatingMEB],
    )
    @pytest.mark.parametrize("policy", list(GrantPolicy), ids=lambda p: p.value)
    def test_mt_pipeline_8_threads_stalling(self, meb_cls, policy):
        def factory(engine):
            items = [list(range(10 * t, 10 * t + 6)) for t in range(8)]
            sim, _src, _snk, mebs, _mons = make_mt_pipeline(
                meb_cls, threads=8, items=items, n_stages=3,
                sink_patterns={0: stall_window(3, 25), 2: duty_cycle(1, 2),
                               5: duty_cycle(2, 5), 7: stall_window(0, 40)},
                policy=policy, engine=engine,
            )
            if engine == "compiled":
                inlined = meb_cls not in HOOK_OVERRIDES
                for meb in mebs:
                    assert (meb.compile_comb(sim.store) is not None) == inlined
            return sim

        assert_identical_traces(factory, 70)


# ----------------------------------------------------------------------
# convergence-error parity
# ----------------------------------------------------------------------

class _UndeclaredOscillator(Component):
    """Combinational loop with no declarations (engine fallback path)."""

    def __init__(self, name):
        super().__init__(name)
        self.out = self.output("out", init=False)

    def combinational(self):
        self.out.set(not self.out.value)


class _DeclaredOscillator(Component):
    """Combinational loop *with* declarations (SCC worklist path)."""

    def __init__(self, name):
        super().__init__(name)
        self.out = self.output("out", init=False)
        self.declare_reads(self.out)

    def combinational(self):
        self.out.set(not self.out.value)


class TestConvergenceParity:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize(
        "osc_cls", [_UndeclaredOscillator, _DeclaredOscillator]
    )
    def test_combinational_loop_raises(self, engine, osc_cls):
        if engine == "naive" and osc_cls is _DeclaredOscillator:
            pytest.skip("declarations are ignored by the naive engine")
        sim = build(osc_cls("osc"), max_settle_iterations=7, engine=engine)
        with pytest.raises(ConvergenceError) as exc:
            sim.settle()
        assert exc.value.iterations == 7
        assert "osc.out" in exc.value.unstable

    def test_cross_component_declared_loop_raises(self):
        # A ring of an odd number of inverters has no stable point; the
        # naive whole-design loop must give up (the compiled twin below
        # covers the SCC worklist).
        class Inverter(Component):
            def __init__(self, name):
                super().__init__(name)
                self.src = None
                self.out = self.output("out", init=False)

            def late_bind(self, sig):
                self.src = sig
                self.declare_reads(sig)

            def combinational(self):
                self.out.set(not self.src.value)

        ring = [Inverter(f"inv{i}") for i in range(3)]
        for i, inv in enumerate(ring):
            inv.late_bind(ring[(i + 1) % 3].out)
        sim = build(*ring, max_settle_iterations=9, engine="naive")
        with pytest.raises(ConvergenceError):
            sim.settle()

    def test_cross_component_declared_loop_raises_compiled(self):
        class Inverter(Component):
            def __init__(self, name):
                super().__init__(name)
                self.src = None
                self.out = self.output("out", init=False)

            def late_bind(self, sig):
                self.src = sig
                self.declare_reads(sig)

            def combinational(self):
                self.out.set(not self.src.value)

        ring = [Inverter(f"inv{i}") for i in range(3)]
        for i, inv in enumerate(ring):
            inv.late_bind(ring[(i + 1) % 3].out)
        sim = build(*ring, max_settle_iterations=9, engine="compiled")
        with pytest.raises(ConvergenceError) as exc:
            sim.settle()
        assert any("inv" in name for name in exc.value.unstable)


# ----------------------------------------------------------------------
# slot-store edge cases (compiled engine)
# ----------------------------------------------------------------------

class TestSlotStoreEdgeCases:
    def make_pipeline(self, engine="compiled"):
        items = [list(range(t, t + 6)) for t in range(3)]
        return make_mt_pipeline(
            FullMEB, threads=3, items=items, n_stages=2, engine=engine,
        )

    def test_store_backs_every_signal(self):
        sim, _src, _snk, _mebs, _mons = self.make_pipeline()
        store = sim.store
        assert len(store) == len(sim.signals)
        for sig in sim.signals:
            assert sig._store is store.values
            assert store.values[store.slot(sig)] is sig.value

    def test_channel_blocks_are_packed(self):
        sim, _src, _snk, mebs, _mons = self.make_pipeline()
        store = sim.store
        channel = mebs[0].down
        blk = store.range_of(channel.valid)
        assert blk is not None and blk[1] - blk[0] == channel.threads
        assert store.range_of(channel.ready) is not None
        # Non-contiguous selections are rejected, not approximated.
        scattered = [channel.valid[0], channel.ready[0]]
        assert store.range_of(scattered) is None
        assert store.range_of([]) is None

    def test_x_valued_slot_round_trip(self):
        from repro.kernel.values import X, is_x

        sim, _src, _snk, mebs, _mons = self.make_pipeline()
        store = sim.store
        meb = mebs[0]
        data = meb.down.data
        slot = store.slot(data)
        sim.run(cycles=3)
        # Poke X through the Signal API: the raw slot must see it (the
        # Signal and the store index the same cell) ...
        data.set(X)
        assert is_x(store.values[slot])
        assert store.values[slot] is data.value
        # ... and once the driver is rescheduled, the next settle
        # recomputes the slot from the MEB's storage.
        meb.invalidate()
        sim.settle()
        if any(meb.occupancy(t) for t in range(meb.threads)):
            assert not is_x(data.value)

    def test_x_on_handshake_wire_raises_like_scalar_path(self):
        """X is rejected at the write on every engine, and the wire
        keeps its previous value for the raw slice readers."""
        from repro.kernel.values import X

        for variant in TICK_VARIANTS:
            with engine_context(variant) as engine:
                sim, _src, _snk, mebs, _mons = self.make_pipeline(engine)
            sim.run(cycles=2)
            wire = mebs[0].down.ready[1]
            before = wire.value
            assert type(before) is bool
            with pytest.raises(ValueError):
                wire.set(X)
            assert wire.value is before
            assert mebs[0].down.readies()[1] is before
            sim.run(cycles=2)

    def test_int_in_handshake_slot_fails_the_bool_check(self):
        """A compiled step writing ints straight into ready slots (equal
        to bools under ``==``, so no compare catches it) trips
        :func:`check_handshakes`; the naive oracle never runs the step."""
        from repro.core import MTChannel, MTSink, MTSource

        class IntReadySink(MTSink):
            def compile_comb(self, store):
                rb, re_ = store.range_of(self.channel.ready)
                values = store.values
                ones = [1] * self.threads

                def step() -> bool:
                    values[rb:re_] = ones
                    return False

                return step

        for engine in ENGINES:
            ch = MTChannel("ch", threads=2, width=8)
            src = MTSource("src", ch, items=[[1, 2], [3]])
            sim = build(ch, src, IntReadySink("snk", ch), engine=engine)
            if engine == "naive":
                sim.run(cycles=3)
            else:
                with pytest.raises(AssertionError, match="non-bool handshake"):
                    sim.run(cycles=3)

    def test_invalidate_after_finalize_reschedules(self):
        sim, src, snk, _mebs, _mons = self.make_pipeline()
        sim.run(cycles=40)
        drained = snk.count
        assert src.exhausted
        # Out-of-band mutation + invalidate() must wake the source even
        # though no declared input changed and its commit reported
        # nothing: push() calls invalidate() internally.
        src.push(0, 99)
        sim.run(cycles=10)
        assert snk.count == drained + 1
        assert snk.values_for(0)[-1] == 99

    def test_declare_volatile_reevaluated_every_settle(self):
        from repro.kernel import Signal

        class CycleCounter(Component):
            """Output depends on out-of-graph state (an eval counter)."""

            def __init__(self, name):
                super().__init__(name)
                self.out = self.output("out", width=8, init=0)
                self.evals = 0
                self.declare_reads()
                self.declare_volatile()

            def combinational(self):
                self.evals += 1
                self.out.set(self.evals)

        comp = CycleCounter("vol")
        sim = build(comp, engine="compiled")
        sim.run(cycles=1)
        base = comp.evals
        assert base >= 1
        sim.run(cycles=5)
        # One evaluation per settle even though no declared input ever
        # changes and commit never reports anything.
        assert comp.evals == base + 5
        assert isinstance(sim.signal_by_name("vol.out"), Signal)

    def test_poked_wire_reschedules_readers(self):
        sim, _src, snk, mebs, _mons = self.make_pipeline()
        sim.run(cycles=4)
        # Force all readies low from outside any settle: the writes land
        # in the slot store, mark the reading MEB stale, and — because
        # the stateless sink is (correctly) not rescheduled — block any
        # further transfer on that channel.
        meb = mebs[-1]
        for sig in meb.down.ready:
            sig.set(False)
        count0 = snk.count
        sim.step()
        assert snk.count == count0


# ----------------------------------------------------------------------
# engine selection plumbing
# ----------------------------------------------------------------------

class TestEngineSelection:
    def test_unknown_engine_rejected(self):
        for name in ("quantum", "event"):
            with pytest.raises(ValueError, match="unknown settle engine"):
                Simulator(engine=name)

    def test_env_var_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_ENGINE", "naive")
        assert Simulator().engine_name == "naive"
        monkeypatch.setenv("REPRO_SIM_ENGINE", "compiled")
        assert Simulator().engine_name == "compiled"
        monkeypatch.delenv("REPRO_SIM_ENGINE")
        assert Simulator().engine_name == "compiled"

    def test_explicit_engine_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_ENGINE", "compiled")
        assert Simulator(engine="naive").engine_name == "naive"
        monkeypatch.setenv("REPRO_SIM_ENGINE", "naive")
        assert Simulator(engine="compiled").engine_name == "compiled"


# ----------------------------------------------------------------------
# shipped examples under every engine
# ----------------------------------------------------------------------

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parents[1] / "examples"


@pytest.mark.parametrize(
    "example", ["quickstart.py", "branch_merge_loop.py", "barrier_sync.py"]
)
def test_example_output_engine_invariant(example, capsys, monkeypatch):
    outputs = {}
    for variant in TICK_VARIANTS:
        with engine_context(variant) as engine:
            monkeypatch.setenv("REPRO_SIM_ENGINE", engine)
            argv = sys.argv
            try:
                sys.argv = [str(EXAMPLES_DIR / example)]
                runpy.run_path(str(EXAMPLES_DIR / example),
                               run_name="__main__")
            finally:
                sys.argv = argv
        outputs[variant] = capsys.readouterr().out
    for variant in TICK_VARIANTS[1:]:
        assert outputs["naive"] == outputs[variant], variant


# ----------------------------------------------------------------------
# snapshot/fork differential: rewound trajectories are engine-invariant
# ----------------------------------------------------------------------

class TestForkDifferential:
    """``fork()`` mid-run must be unobservable — under every engine.

    For each engine variant (including the compiled engine with the
    tick compilation disabled), a run that snapshots mid-flight and a
    rewound re-run of the same stretch must produce the state an
    uninterrupted run produces; and because the engines are themselves
    cycle-identical, the fingerprints must also agree *across* engines.
    """

    @staticmethod
    def _factory(engine):
        items = [list(range(12)) for _ in range(4)]
        return make_mt_pipeline(
            ReducedMEB, threads=4, items=items, n_stages=3,
            sink_patterns=[None, duty_cycle(1, 3), None, duty_cycle(2, 5)],
            engine=engine,
        )

    @staticmethod
    def _fingerprint(sim, sink, monitor):
        sim.settle()
        return (
            sim.cycle,
            tuple(sink.received),
            tuple(monitor.transfers),
            monitor.cycles_observed,
            tuple(sig.value for sig in sim.signals),
        )

    def test_fork_mid_run_equals_uninterrupted(self):
        fingerprints = {}
        for variant in TICK_VARIANTS:
            with engine_context(variant) as engine:
                sim, _src, sink, _mebs, mons = self._factory(engine)
            sim.run(cycles=13)
            snap = sim.snapshot()
            sim.run(cycles=50)
            interrupted = self._fingerprint(sim, sink, mons[-1])

            sim.restore(snap)
            assert sim.cycle == 13
            sim.run(cycles=50)
            rewound = self._fingerprint(sim, sink, mons[-1])
            assert rewound == interrupted, variant

            with engine_context(variant) as engine:
                ref_sim, _s, ref_sink, _m, ref_mons = self._factory(engine)
            ref_sim.run(cycles=63)
            reference = self._fingerprint(ref_sim, ref_sink, ref_mons[-1])
            assert reference == interrupted, variant
            fingerprints[variant] = interrupted
        for variant in TICK_VARIANTS[1:]:
            assert fingerprints[variant] == fingerprints["naive"], variant
