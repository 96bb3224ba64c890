"""Fault injection: the monitors and invariants must catch broken
hardware, not just bless working hardware.

Each test builds a deliberately defective component — a buffer that drops
tokens, one that duplicates them, a producer that withdraws a stalled
offer, an arbiter that grants empty threads — and asserts that the
corresponding checker (protocol monitor, conservation report, MEB
invariant) flags it.  If any of these tests fails, the green suite means
nothing.
"""

from functools import partial

import pytest

from repro.analysis import check_token_conservation
from repro.core import FullMEB, MTChannel, MTMonitor, MTSink, MTSource, ReducedMEB
from repro.elastic import ChannelMonitor, ElasticBuffer, ElasticChannel, Sink, Source
from repro.kernel import ProtocolError, SimulationError, build
from repro.kernel.values import X
from repro.sweep.fuzz import DroppingMEB, DuplicatingMEB

#: Silently discards every third accepted item.
DropEveryThird = partial(DroppingMEB, fire_at=3, period=3)
#: Enqueues every accepted item twice.
DuplicateEvery = partial(DuplicatingMEB, fire_at=1, period=1)


class FlakyProducer(Source):
    """Withdraws a stalled offer (violates single-thread persistence)."""

    def combinational(self):
        super().combinational()
        if self._cycle % 2 == 1:
            self.channel.valid.set(False)
            self.channel.data.set(X)


class UnstableProducer(Source):
    """Changes data while stalled (violates data stability)."""

    def combinational(self):
        super().combinational()
        if self.channel.valid.value:
            self.channel.data.set((self._item_at(self._index), self._cycle))


def mt_pipeline(meb_cls, items):
    threads = len(items)
    c0 = MTChannel("c0", threads=threads)
    c1 = MTChannel("c1", threads=threads)
    src = MTSource("src", c0, items=items)
    meb = meb_cls("meb", c0, c1)
    sink = MTSink("snk", c1)
    mon_in = MTMonitor("mon_in", c0)
    mon_out = MTMonitor("mon_out", c1)
    sim = build(c0, c1, src, meb, sink, mon_in, mon_out)
    return sim, sink, mon_in, mon_out


class TestTokenLossDetected:
    def test_dropping_meb_fails_conservation(self):
        sim, _sink, mon_in, mon_out = mt_pipeline(
            DropEveryThird, [[1, 2, 3, 4, 5], [6, 7, 8]]
        )
        sim.run(cycles=40)
        report = check_token_conservation(mon_in, mon_out)
        assert not report.ok
        assert report.missing  # some thread lost tokens

    def test_healthy_meb_passes_conservation(self):
        sim, _sink, mon_in, mon_out = mt_pipeline(
            FullMEB, [[1, 2, 3, 4, 5], [6, 7, 8]]
        )
        sim.run(cycles=40)
        assert check_token_conservation(mon_in, mon_out).ok


class TestDuplicationDetected:
    def test_duplicating_meb_fails_conservation(self):
        sim, _sink, mon_in, mon_out = mt_pipeline(
            DuplicateEvery, [[1, 2], [3]]
        )
        sim.run(cycles=40)
        report = check_token_conservation(mon_in, mon_out)
        assert not report.ok


class TestProtocolViolationsDetected:
    def test_withdrawn_offer_caught_by_monitor(self):
        ch = ElasticChannel("ch", width=8)
        src = FlakyProducer("src", ch, items=[1, 2, 3])
        # Sink stalls so an offer must persist — and won't.
        sink = Sink("snk", ch, pattern=lambda c: c >= 10)
        mon = ChannelMonitor("mon", ch)
        sim = build(ch, src, sink, mon)
        with pytest.raises(ProtocolError) as exc:
            sim.run(cycles=10)
        assert "withdrawn" in str(exc.value)

    def test_unstable_data_caught_by_monitor(self):
        ch = ElasticChannel("ch", width=8)
        src = UnstableProducer("src", ch, items=[1])
        sink = Sink("snk", ch, pattern=lambda c: c >= 5)
        mon = ChannelMonitor("mon", ch)
        sim = build(ch, src, sink, mon)
        with pytest.raises(ProtocolError) as exc:
            sim.run(cycles=6)
        assert "changed" in str(exc.value)

    def test_checks_can_be_disabled(self):
        ch = ElasticChannel("ch", width=8)
        src = FlakyProducer("src", ch, items=[1, 2])
        sink = Sink("snk", ch, pattern=lambda c: c >= 4)
        mon = ChannelMonitor("mon", ch, check_persistence=False,
                             check_stability=False)
        sim = build(ch, src, sink, mon)
        sim.run(cycles=8)  # no raise


class TestReducedMEBInvariantTrips:
    def test_forced_double_full_detected(self):
        """Corrupt a ReducedMEB's state directly; the post-commit
        invariant check must fire on the next cycle."""
        c0 = MTChannel("c0", threads=2)
        c1 = MTChannel("c1", threads=2)
        src = MTSource("src", c0, items=[[1], [2]])
        meb = ReducedMEB("meb", c0, c1)
        sink = MTSink("snk", c1, patterns=[lambda c: False] * 2)
        sim = build(c0, c1, src, meb, sink)
        sim.run(cycles=5)
        meb._state = ["FULL", "FULL"]
        with pytest.raises(SimulationError) as exc:
            sim.run(cycles=1)
        assert "FULL" in str(exc.value)

    def test_shared_owner_mismatch_detected(self):
        c0 = MTChannel("c0", threads=2)
        c1 = MTChannel("c1", threads=2)
        src = MTSource("src", c0, items=[[1, 2], []])
        meb = ReducedMEB("meb", c0, c1)
        sink = MTSink("snk", c1, patterns=[lambda c: False] * 2)
        sim = build(c0, c1, src, meb, sink)
        sim.run(cycles=5)
        assert meb.shared_owner == 0
        meb._shared_owner = 1  # corrupt: owner without FULL state
        with pytest.raises(SimulationError):
            sim.run(cycles=2)


class TestBufferOverflowDetected:
    def test_forced_overflow_guard(self):
        """The enqueue-into-full guard is unreachable through legal
        handshakes (ready is low when full); drive the signals illegally
        and check the defense-in-depth assertion fires."""
        c0 = ElasticChannel("c0", width=8)
        c1 = ElasticChannel("c1", width=8)
        eb = ElasticBuffer("eb", c0, c1)
        eb._items = [1, 2]          # full
        c0.valid.set(True)          # upstream offers anyway
        c0.ready.set(True)          # and claims acceptance (illegal)
        c0.data.set(3)
        c1.valid.set(True)
        c1.ready.set(False)         # no dequeue to make room
        with pytest.raises(SimulationError):
            eb.capture()
