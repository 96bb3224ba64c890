"""SeqStore / compiled tick-phase behaviour.

Covers what the engine differential suite cannot see from traces alone:

* which components land in the SeqStore and how force-disabling
  ``compile_seq`` (``REPRO_SIM_SEQ=0`` / ``Simulator(compile_seq=False)``)
  falls back to the legacy per-cycle dispatch;
* ``Simulator.reset()`` — plans and slot-backed state rebuild to a
  clean power-on state, traces from a reset sim match a fresh one;
* ``Simulator.rebuild()`` — re-homing sequential slots into a fresh
  SeqStore preserves live state mid-run (the collaborator-swap path);
* ``invalidate()`` re-arming delta-skipped plans;
* idle-heavy bursty traffic: delta-gated ticks are cycle-identical to
  the naive engine, observers still see every cycle, and ``until``
  runs stop at completion.
"""

from __future__ import annotations

import pytest

from repro.core import FullMEB, MTChannel, MTSink, MTSource, ReducedMEB
from repro.core.arbiter import FixedPriorityArbiter
from repro.kernel import Simulator, build
from repro.kernel.values import same_value

from tests.conftest import make_mt_pipeline


@pytest.fixture(autouse=True)
def _seq_enabled(monkeypatch):
    """These tests exercise the seq machinery; pin it on regardless of
    any ambient REPRO_SIM_SEQ (the differential suite covers off)."""
    monkeypatch.setenv("REPRO_SIM_SEQ", "1")


def drain_run(sim, cycles):
    """Step *cycles* cycles collecting a full-signal trace."""
    signals = sim.signals
    rows = []
    for _ in range(cycles):
        sim.step()
        rows.append([sig.value for sig in signals])
    return rows


def assert_rows_equal(rows_a, rows_b):
    assert len(rows_a) == len(rows_b)
    for ca, cb in zip(rows_a, rows_b):
        for va, vb in zip(ca, cb):
            assert same_value(va, vb)


class TestPlanWiring:
    def test_stock_pipeline_is_fully_planned(self):
        items = [list(range(4)) for _ in range(3)]
        sim, src, snk, mebs, mons = make_mt_pipeline(
            FullMEB, threads=3, items=items, engine="compiled",
        )
        seq = sim.seq
        assert seq is not None
        planned = {plan.component for plan in seq.plans}
        assert src in planned and snk in planned
        assert all(meb in planned for meb in mebs)
        assert all(mon in planned for mon in mons)
        # The whole tick runs through plans: nothing is left on the
        # legacy per-component dispatch lists.
        assert not (sim._captures or sim._noted_commits or sim._plain_commits)

    def test_state_rehomed_into_seq_store(self):
        items = [list(range(4)) for _ in range(3)]
        sim, _src, _snk, mebs, _mons = make_mt_pipeline(
            FullMEB, threads=3, items=items, engine="compiled",
        )
        seq = sim.seq
        for meb in mebs:
            assert meb._sstore is seq.values
        sim.run(cycles=3)
        # The component accessors and the raw seq slots are one storage.
        meb = mebs[0]
        assert meb._queues == seq.values[meb._sq:meb._sq + meb.threads]

    def test_seq_disabled_by_flag_and_env(self, monkeypatch):
        items = [list(range(3)) for _ in range(2)]

        def make(**kw):
            sim = Simulator(engine="compiled", **kw)
            chans = [MTChannel(f"c{i}", threads=2) for i in range(2)]
            src = MTSource("src", chans[0], items=items)
            meb = FullMEB("meb", chans[0], chans[1])
            snk = MTSink("snk", chans[1])
            for c in (*chans, src, meb, snk):
                sim.add(c)
            sim.reset()
            return sim

        assert make().seq is not None
        assert make(compile_seq=False).seq is None
        monkeypatch.setenv("REPRO_SIM_SEQ", "0")
        assert make().seq is None
        monkeypatch.setenv("REPRO_SIM_SEQ", "1")
        assert make().seq is not None

    def test_other_engines_have_no_seq(self):
        items = [list(range(3)) for _ in range(2)]
        sim, *_ = make_mt_pipeline(
            FullMEB, threads=2, items=items, engine="naive",
        )
        assert sim.seq is None


class TestResetAndRebuild:
    @pytest.mark.parametrize("meb_cls", [FullMEB, ReducedMEB])
    def test_reset_matches_fresh_simulator(self, meb_cls):
        items = [list(range(t, t + 6)) for t in range(3)]

        def make():
            return make_mt_pipeline(
                meb_cls, threads=3, items=items, n_stages=2,
                engine="compiled",
            )

        sim_a, *_ = make()
        rows_fresh = drain_run(sim_a, 25)
        sim_b, src_b, snk_b, _mebs, mons_b = make()
        drain_run(sim_b, 11)  # advance into the middle of the stream
        sim_b.reset()
        assert sim_b.cycle == 0
        assert snk_b.count == 0 and mons_b[0].cycles_observed == 0
        rows_reset = drain_run(sim_b, 25)
        assert_rows_equal(rows_fresh, rows_reset)

    @pytest.mark.parametrize("meb_cls", [FullMEB, ReducedMEB])
    def test_rebuild_preserves_state_mid_run(self, meb_cls):
        """Re-homing sequential slots must preserve the live trace."""
        items = [list(range(t, t + 8)) for t in range(3)]

        def make():
            return make_mt_pipeline(
                meb_cls, threads=3, items=items, n_stages=2,
                engine="compiled",
            )

        sim_a, _sa, snk_a, _ma, _na = make()
        rows_straight = drain_run(sim_a, 30)
        sim_b, _sb, snk_b, mebs_b, _nb = make()
        rows_b = drain_run(sim_b, 13)
        occ_before = [
            [meb.occupancy(t) for t in range(meb.threads)] for meb in mebs_b
        ]
        sim_b.rebuild()  # fresh SeqStore; state re-homed, not reset
        occ_after = [
            [meb.occupancy(t) for t in range(meb.threads)] for meb in mebs_b
        ]
        assert occ_before == occ_after
        for meb in mebs_b:
            assert meb._sstore is sim_b.seq.values
        rows_b += drain_run(sim_b, 17)
        assert_rows_equal(rows_straight, rows_b)
        assert snk_a.received == snk_b.received

    def test_collaborator_swap_takes_effect_after_rebuild(self):
        items = [list(range(6)) for _ in range(3)]

        def make(swap_at):
            sim, src, snk, mebs, _mons = make_mt_pipeline(
                FullMEB, threads=3, items=items, n_stages=1,
                engine="compiled",
            )
            rows = drain_run(sim, swap_at)
            mebs[0].arbiter = FixedPriorityArbiter(3)
            sim.rebuild()
            rows += drain_run(sim, 30 - swap_at)
            return rows, snk.received

        # The swap point is mid-stream; both sims must agree because the
        # rebuild recompiles every closure against the new arbiter.
        rows_a, recv_a = make(swap_at=7)
        rows_b, recv_b = make(swap_at=7)
        assert_rows_equal(rows_a, rows_b)
        assert recv_a == recv_b


class TestInvalidation:
    def test_push_rearms_skipped_plans(self):
        items = [list(range(3)) for _ in range(2)]
        sim, src, snk, _mebs, _mons = make_mt_pipeline(
            FullMEB, threads=2, items=items, engine="compiled",
        )
        sim.run(cycles=40)
        assert src.exhausted
        drained = snk.count
        # Everything is delta-skipped now; the out-of-band push must
        # re-arm both the settle engine and the tick plan.
        src.push(0, 99)
        sim.run(cycles=10)
        assert snk.count == drained + 1
        assert snk.values_for(0)[-1] == 99

    def test_direct_state_poke_rearms_plan(self):
        """Slot-backed state is part of the delta snapshot, so external
        corruption re-runs the plan's capture/commit without an explicit
        invalidate() — the post-commit invariant checks must fire, as
        they did when capture ran unconditionally every cycle."""
        items = [[1, 2], []]
        sim, _src, _snk, mebs, _mons = make_mt_pipeline(
            ReducedMEB, threads=2, items=items, engine="compiled",
        )
        sim.run(cycles=30)  # fully drained and delta-skipped
        # Corrupt a drained MEB: owner set without any FULL thread.
        mebs[-1]._shared_owner = 1
        from repro.kernel import SimulationError

        with pytest.raises(SimulationError):
            sim.run(cycles=5)

    def test_state_poke_plus_invalidate_reschedules_comb(self):
        """Functional pokes additionally need invalidate(), exactly as
        under the legacy engines (comb outputs derive from state)."""
        items = [[1, 2], []]
        sim, _src, snk, mebs, _mons = make_mt_pipeline(
            FullMEB, threads=2, items=items, engine="compiled",
        )
        sim.run(cycles=30)
        before = snk.count
        meb = mebs[-1]
        meb._queues = [[123], []]
        meb.invalidate()
        sim.run(cycles=10)
        assert snk.count == before + 1
        assert snk.values_for(0)[-1] == 123


class TestBurstyIdleGaps:
    """Bursts separated by long idle gaps, run through delta-gated ticks."""

    def make_bursty(self, engine):
        sim, src, snk, mebs, mons = make_mt_pipeline(
            FullMEB, threads=3, items=[[] for _ in range(3)],
            n_stages=2, engine=engine,
        )
        return sim, src, snk, mons

    def run_bursts(self, sim, src, gap=200, bursts=3):
        for b in range(bursts):
            for t in range(3):
                src.push(t, (b, t))
            sim.run(cycles=gap)

    def test_bursty_run_matches_naive_engine(self):
        results = {}
        for engine in ("naive", "compiled"):
            sim, src, snk, mons = self.make_bursty(engine)
            self.run_bursts(sim, src)
            results[engine] = (
                sim.cycle,
                snk.received,
                [m.activity for m in mons],
                [m.transfers for m in mons],
                [m.cycles_observed for m in mons],
            )
        assert results["naive"] == results["compiled"]

    def test_observer_sees_every_cycle(self):
        sim, src, snk, _mons = self.make_bursty("compiled")
        seen = []
        sim.add_observer(lambda s: seen.append(s.cycle))
        self.run_bursts(sim, src, gap=100, bursts=1)
        # Per-cycle observation implies per-cycle stepping.
        assert seen == list(range(100))

    def test_until_run_stops_on_predicate(self):
        sim, src, snk, _mons = self.make_bursty("compiled")
        for t in range(3):
            src.push(t, (0, t))
        executed = sim.run(until=lambda s: snk.count == 3, max_cycles=500)
        assert snk.count == 3
        assert executed < 500
