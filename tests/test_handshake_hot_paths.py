"""Non-bool handshake values: every engine treats them alike.

Handshake wires are :class:`~repro.kernel.signal.ControlSignal` s, which
canonicalize at the write, so the slot-compiled settle steps and tick
plans read S-wide valid/ready vectors as raw slot slices with no check of
their own.  Non-bool values must still behave exactly as under the naive
oracle:

* driving ``X`` onto a handshake wire raises ``ValueError`` at the
  write, at the same point on every engine, whichever component would
  have read the wire;
* a truthy non-bool valid (here ``2``, driven by a plain
  ``combinational()`` producer) is stored as ``True``, so every engine
  moves the same items at the same cycles;
* injection and stall gates returning ints or other truthy objects gate
  the same transfers on every engine, and the compiled ``MTSink`` step,
  which writes its ready slots directly, writes bools.
"""

from __future__ import annotations

import pytest

from repro.apps.processor.core import PCUnit
from repro.apps.processor.regfile import RegisterFileArray
from repro.core import (
    Barrier,
    FullMEB,
    MBranch,
    MMerge,
    MTChannel,
    MTFunction,
    MTMonitor,
    MTSink,
    MTSource,
    ReducedMEB,
)
from repro.kernel import Component, build
from repro.kernel.values import X, as_bool

from tests.test_engine_differential import TICK_VARIANTS, check_handshakes, engine_context


class _FixedValids(Component):
    """Plain producer: drives fixed per-thread valids and a data word."""

    def __init__(self, name: str, channel: MTChannel, levels: dict, data=0):
        super().__init__(name)
        self.channel = channel
        self.levels = levels
        self.data = data
        channel.connect_producer(self)

    def combinational(self) -> None:
        for t, sig in enumerate(self.channel.valid):
            sig.set(self.levels.get(t, False))
        self.channel.data.set(self.data)


class _FixedReadies(Component):
    """Plain consumer: drives fixed per-thread readies (default ready)."""

    def __init__(self, name: str, channel: MTChannel, levels: dict | None = None):
        super().__init__(name)
        self.channel = channel
        self.levels = levels or {}
        channel.connect_consumer(self)

    def combinational(self) -> None:
        for t, sig in enumerate(self.channel.ready):
            sig.set(self.levels.get(t, True))


class _LooseProducer(Component):
    """Plain producer whose valid is the truthy non-bool ``level``."""

    def __init__(self, name: str, channel: MTChannel, items, thread=0, level=2):
        super().__init__(name)
        self.channel = channel
        self.items = list(items)
        self.thread = thread
        self.level = level
        self.index = 0
        self._next: int | None = None
        self.sent: list[tuple[int, object]] = []
        self._cycle = 0
        channel.connect_producer(self)
        self.declare_reads()

    def combinational(self) -> None:
        pending = self.index < len(self.items)
        for t, sig in enumerate(self.channel.valid):
            sig.set(self.level if pending and t == self.thread else False)
        self.channel.data.set(self.items[self.index] if pending else X)

    def capture(self) -> None:
        pending = self.index < len(self.items)
        moved = pending and as_bool(self.channel.ready[self.thread].value)
        if moved:
            self.sent.append((self._cycle, self.items[self.index]))
        self._next = self.index + moved
        self._cycle += 1

    def commit(self):
        changed = self._next != self.index
        self.index = self._next
        return changed


def _outcome(factory, cycles: int = 12):
    """The exception type (or None) each tick variant raises."""
    outcomes = {}
    for variant in TICK_VARIANTS:
        with engine_context(variant) as engine:
            sim, target = factory(engine)
        if variant == "compiled":
            # The case must exercise the compiled step, not the
            # combinational() fallback.
            assert target is None or target.compile_comb(sim.store) is not None
        try:
            sim.run(cycles=cycles)
        except Exception as exc:  # noqa: BLE001 - the type is the result
            outcomes[variant] = type(exc)
        else:
            outcomes[variant] = None
    return outcomes


def _assert_raises_everywhere(factory):
    outcomes = _outcome(factory)
    assert outcomes["naive"] is not None, "the oracle did not raise"
    assert all(kind is outcomes["naive"] for kind in outcomes.values()), outcomes


def _chan(name: str, threads: int = 4) -> MTChannel:
    return MTChannel(name, threads=threads, width=16)


def _items(threads: int = 4):
    return [[10 * t + i for i in range(3)] for t in range(threads)]


# ----------------------------------------------------------------------
# X on a handshake wire: compiled settle steps
# ----------------------------------------------------------------------


class TestXInSettleSteps:
    @pytest.mark.parametrize("meb_cls", [FullMEB, ReducedMEB])
    def test_meb_down_ready(self, meb_cls):
        def factory(engine):
            up, down = _chan("up"), _chan("down")
            meb = meb_cls("meb", up, down)
            parts = (MTSource("src", up, items=_items()), meb, _FixedReadies("rd", down, {1: X}))
            return build(up, down, *parts, engine=engine), meb

        _assert_raises_everywhere(factory)

    @pytest.mark.parametrize("wire", ["in_valid", "out_ready"])
    def test_mt_function(self, wire):
        def factory(engine):
            inp, out = _chan("inp"), _chan("out")
            if wire == "in_valid":
                producer = _FixedValids("vd", inp, {1: X})
                consumer = _FixedReadies("rd", out)
            else:
                producer = MTSource("src", inp, items=_items())
                consumer = _FixedReadies("rd", out, {2: X})
            fn = MTFunction("fn", inp, out, fn=lambda x: x + 1, pure=True)
            return build(inp, out, producer, fn, consumer, engine=engine), fn

        _assert_raises_everywhere(factory)

    def test_mt_source_ready(self):
        def factory(engine):
            ch = _chan("ch")
            src = MTSource("src", ch, items=_items())
            return build(ch, src, _FixedReadies("rd", ch, {0: X}), engine=engine), src

        _assert_raises_everywhere(factory)

    def test_mbranch_in_valid(self):
        def factory(engine):
            inp, a, b = _chan("inp"), _chan("a"), _chan("b")
            br = MBranch("br", inp, [a, b], selector=lambda d: d & 1)
            parts = (
                _FixedValids("vd", inp, {1: X}),
                br,
                _FixedReadies("ra", a),
                _FixedReadies("rb", b),
            )
            return build(inp, a, b, *parts, engine=engine), br

        _assert_raises_everywhere(factory)

    def test_mmerge_in_valid(self):
        def factory(engine):
            a, b, out = _chan("a"), _chan("b"), _chan("out")
            mg = MMerge("mg", [a, b], out)
            parts = (
                _FixedValids("vd", a, {1: X}),
                MTSource("src", b, items=[[1], [], [], []]),
                mg,
                _FixedReadies("rd", out),
            )
            return build(a, b, out, *parts, engine=engine), mg

        _assert_raises_everywhere(factory)

    @pytest.mark.parametrize("wire", ["up_valid", "down_ready"])
    def test_barrier(self, wire):
        def factory(engine):
            up, down = _chan("up"), _chan("down")
            if wire == "up_valid":
                producer = _FixedValids("vd", up, {1: X})
                consumer = _FixedReadies("rd", down)
            else:
                producer = MTSource("src", up, items=_items())
                consumer = _FixedReadies("rd", down, {0: X})
            bar = Barrier("bar", up, down)
            return build(up, down, producer, bar, consumer, engine=engine), bar

        _assert_raises_everywhere(factory)

    def test_pc_unit_out_ready(self):
        def factory(engine):
            inp, out = _chan("retire"), _chan("fetch")
            pc = PCUnit("pc", inp, out, RegisterFileArray("rf", 4))
            parts = (_FixedValids("vd", inp, {}), pc, _FixedReadies("rd", out, {3: X}))
            sim = build(inp, out, *parts, engine=engine)
            pc.set_start(0, 0)
            return sim, pc

        _assert_raises_everywhere(factory)


# ----------------------------------------------------------------------
# X on a handshake wire: compiled tick captures
# ----------------------------------------------------------------------


class TestXInTickCaptures:
    """No settle step reads the X wire here: only a capture does."""

    @staticmethod
    def _assert_planned_and_raises(factory):
        with engine_context("compiled") as engine:
            sim, _ = factory(engine)
        legacy = sim._captures or sim._noted_commits or sim._plain_commits
        assert sim.seq is not None and not legacy, (
            "a capture fell back to legacy dispatch"
        )
        _assert_raises_everywhere(factory)

    @pytest.mark.parametrize("meb_cls", [FullMEB, ReducedMEB])
    def test_meb_input(self, meb_cls):
        def factory(engine):
            up, down = _chan("up"), _chan("down")
            meb = meb_cls("meb", up, down)
            parts = (_FixedValids("vd", up, {2: X}), meb, MTSink("snk", down))
            return build(up, down, *parts, engine=engine), None

        self._assert_planned_and_raises(factory)

    def test_mt_monitor(self):
        def factory(engine):
            ch = _chan("ch")
            parts = (_FixedValids("vd", ch, {0: X}), MTMonitor("mon", ch), _FixedReadies("rd", ch))
            return build(ch, *parts, engine=engine), None

        self._assert_planned_and_raises(factory)

    def test_mt_sink(self):
        def factory(engine):
            ch = _chan("ch")
            parts = (_FixedValids("vd", ch, {3: X}), MTSink("snk", ch))
            return build(ch, *parts, engine=engine), None

        self._assert_planned_and_raises(factory)


# ----------------------------------------------------------------------
# truthy non-bool valids
# ----------------------------------------------------------------------


class TestTruthyValid:
    @pytest.mark.parametrize("meb_cls", [FullMEB, ReducedMEB])
    def test_streams_identical_on_every_engine(self, meb_cls):
        """A valid driven with ``2`` transfers under every engine."""
        results = {}
        for variant in TICK_VARIANTS:
            with engine_context(variant) as engine:
                up, down = _chan("up"), _chan("down")
                producer = _LooseProducer("loose", up, items=range(100, 105))
                mon = MTMonitor("mon", up)
                sink = MTSink("snk", down)
                sim = build(up, down, producer, mon, meb_cls("meb", up, down), sink, engine=engine)
            sim.run(cycles=20)
            results[variant] = (producer.sent, mon.transfers, sink.received)
        sent, transfers, received = results["naive"]
        assert [d for _c, d in sent] == list(range(100, 105))
        assert [d for _c, _t, d in received] == list(range(100, 105))
        assert [(c, d) for c, _t, d in transfers] == sent
        for variant in TICK_VARIANTS[1:]:
            assert results[variant] == results["naive"], variant


# ----------------------------------------------------------------------
# injection and stall gates returning non-bools
# ----------------------------------------------------------------------

#: Per-thread gates returning ints and truthy non-bools.
_TRUTHY_GATES = [
    lambda c: c % 2,
    lambda c: 2 if c % 3 else 0,
    lambda c: "go" if c % 4 < 2 else "",
    lambda c: [c] if c % 5 else [],
]


class TestTruthyGates:
    @pytest.mark.parametrize("meb_cls", [None, FullMEB, ReducedMEB])
    def test_streams_identical_on_every_engine(self, meb_cls):
        """Gates returning ``1``/``0``, ``2``, strings and lists move the
        same items at the same cycles on every engine, and every
        handshake slot holds a bool after each cycle."""
        results = {}
        for variant in TICK_VARIANTS:
            with engine_context(variant) as engine:
                up = _chan("up")
                down = _chan("down") if meb_cls else up
                src = MTSource("src", up, items=_items(), patterns=_TRUTHY_GATES[::-1])
                sink = MTSink("snk", down, patterns=_TRUTHY_GATES)
                mon = MTMonitor("mon", down)
                parts = [src, sink, mon]
                if meb_cls:
                    parts += [down, meb_cls("meb", up, down)]
                sim = build(up, *parts, engine=engine)
            if variant == "compiled":
                assert sink.compile_comb(sim.store) is not None
            check_handshakes(sim).run(cycles=60)
            results[variant] = (src.sent, mon.transfers, sink.received)
        received = results["naive"][2]
        assert sorted(d for _c, _t, d in received) == sorted(sum(_items(), []))
        for variant in TICK_VARIANTS[1:]:
            assert results[variant] == results["naive"], variant


# ----------------------------------------------------------------------
# state the invariants forbid
# ----------------------------------------------------------------------


def test_poked_reduced_meb_readies_match_oracle():
    """A lone HALF thread next to an owned shared slot (a state only an
    external poke can produce) refuses input under every engine, and the
    next commit's invariant check rejects the state everywhere."""
    results = {}
    for variant in TICK_VARIANTS:
        with engine_context(variant) as engine:
            up, down = _chan("up"), _chan("down")
            meb = ReducedMEB("meb", up, down)
            parts = (
                MTSource("src", up, items=[[], [7], [], []]),
                meb,
                _FixedReadies("rd", down, {t: False for t in range(4)}),
            )
            sim = build(up, down, *parts, engine=engine)
        sim.run(cycles=3)
        assert [meb.thread_state(t) for t in range(4)] == ["EMPTY", "HALF", "EMPTY", "EMPTY"]
        meb._shared_owner = 2
        meb.invalidate()
        sim.settle()
        readies = meb.up.readies()
        with pytest.raises(Exception) as info:
            sim.run(cycles=1)
        results[variant] = (readies, info.type)
    assert results["naive"][0] == [True, False, True, True]
    for variant in TICK_VARIANTS[1:]:
        assert results[variant] == results["naive"], variant
