"""The slot-compiled processor pipeline: plans, idle gating, snapshots.

PR 5 ported every processor stage (PC/WB unit, variable-latency fetch,
execute and memory units, the sequenced writeback path) onto the slot
architecture: `compile_comb` slice steps for the settle phase and
delta-gated `compile_seq` plans over re-homed SeqStore state for the
tick phase.  These tests cover what the engine differential suite
cannot see from architectural results alone:

* every tick-phase component of the processor runs through a plan and
  no component is volatile;
* idle stretches between program phases are delta-gated: every plan
  skips once the pipeline has halted, and the phases stay
  cycle-identical to the naive engine;
* the re-homed stage state round-trips through snapshot/restore/fork
  mid-program (fork == uninterrupted, restore == rewind).
"""

from __future__ import annotations

import pytest

from repro.apps.processor import Processor, programs

PROGRAMS = {
    "sum": programs.sum_to_n(10),
    "fib": programs.fibonacci(12),
    "gcd": programs.gcd(126, 84),
    "spin": programs.spin(15),
}


@pytest.fixture(autouse=True)
def _seq_enabled(monkeypatch):
    """Pin the seq machinery on regardless of ambient REPRO_SIM_SEQ
    (the differential suite covers the off variant)."""
    monkeypatch.setenv("REPRO_SIM_SEQ", "1")
    monkeypatch.delenv("REPRO_SIM_ENGINE", raising=False)


def make_cpu(engine="compiled", threads=4, meb="reduced"):
    cpu = Processor(threads=threads, meb=meb, engine=engine)
    names = list(PROGRAMS)
    for t in range(threads):
        cpu.load_program(t, PROGRAMS[names[t % len(names)]].source)
    return cpu


def arch_state(cpu):
    return (
        cpu.sim.cycle,
        list(cpu.pc_unit.retired),
        [cpu.regfile.dump(t) for t in range(cpu.threads)],
        [cpu.dmem.dump(t) for t in range(cpu.threads)],
    )


class TestPlanWiring:
    def test_every_tick_component_is_planned(self):
        cpu = make_cpu()
        sim = cpu.sim
        sim.settle()
        seq = sim.seq
        assert seq is not None
        planned = {plan.component for plan in seq.plans}
        for stage in (cpu.pc_unit, cpu.fetch, cpu.execute, cpu.mem,
                      cpu.meb_if, cpu.meb_id, cpu.meb_ex, cpu.meb_mem):
            assert stage in planned, stage.path
        # The whole tick runs through plans (nothing is left on the
        # legacy per-component dispatch lists) and nothing is volatile.
        assert not (sim._captures or sim._noted_commits or sim._plain_commits)
        assert not any(c.volatile for c in sim.components)

    def test_stage_state_rehomed_into_seq_store(self):
        cpu = make_cpu()
        sim = cpu.sim
        sim.settle()
        seq = sim.seq
        for stage in (cpu.pc_unit, cpu.fetch, cpu.execute, cpu.mem):
            assert stage._sstore is seq.values, stage.path
        cpu.run_cycles(30)
        # Component accessors and raw seq slots are one storage.
        pc = cpu.pc_unit
        assert pc.retired == seq.values[
            pc._sq + 2 * pc.threads:pc._sq + 3 * pc.threads
        ]
        ex = cpu.execute
        assert ex._busy == seq.values[ex._sq]
        assert ex._owner == seq.values[ex._sq + 1]

    def test_rebuild_preserves_stage_state_mid_program(self):
        cpu_a = make_cpu()
        cpu_b = make_cpu()
        cpu_a.run_cycles(40)
        cpu_b.run_cycles(17)
        busy_before = (cpu_b.execute._busy, cpu_b.mem._busy,
                       list(cpu_b.pc_unit.retired))
        cpu_b.sim.rebuild()  # fresh SeqStore; state re-homed, not reset
        busy_after = (cpu_b.execute._busy, cpu_b.mem._busy,
                      list(cpu_b.pc_unit.retired))
        assert busy_before == busy_after
        cpu_b.run_cycles(23)
        assert arch_state(cpu_a) == arch_state(cpu_b)


class TestIdleStretches:
    def run_phases(self, engine, gap=300, phases=2):
        """Program waves separated by idle windows."""
        cpu = Processor(threads=3, meb="reduced", engine=engine)
        names = list(PROGRAMS)
        for p in range(phases):
            for t in range(cpu.threads):
                cpu.load_program(t, PROGRAMS[names[(p + t) % len(names)]].source)
            cpu.run()
            cpu.run_cycles(gap)
        return cpu

    def test_idle_separated_phases_match_naive_engine(self):
        results = {}
        for engine in ("naive", "compiled"):
            cpu = self.run_phases(engine)
            results[engine] = arch_state(cpu)
        assert results["naive"] == results["compiled"]

    def test_idle_window_skips_every_plan(self):
        """A halted pipeline's idle window runs with every plan skipped."""
        cpu = make_cpu()
        cpu.run()  # all threads halt
        sim = cpu.sim
        retired = list(cpu.pc_unit.retired)
        # An until-run stops before ticking its final settled cycle, so
        # the writeback/memory plans confirm idleness in one cycle.
        cpu.run_cycles(1)
        # Record every capture the cycle function would run from here.
        ran = []
        ns = sim._cycle_fn.__globals__
        for k, plan in enumerate(sim.seq.plans):
            assert ns[f"_c{k}"] is plan.capture
            ns[f"_c{k}"] = lambda cycle, k=k: ran.append(k)
        before = sim.cycle
        cpu.run_cycles(5000)
        assert sim.cycle == before + 5000
        assert ran == []
        assert all(plan.clean for plan in sim.seq.plans)
        assert list(cpu.pc_unit.retired) == retired

    def test_reload_after_idle_window_rearms_the_pipeline(self):
        cpu = make_cpu()
        cpu.run()
        retired = list(cpu.pc_unit.retired)
        cpu.run_cycles(1000)  # idle stretch
        cpu.load_program(0, PROGRAMS["sum"].source)
        stats = cpu.run()
        assert stats.retired[0] > retired[0]
        kind, where = PROGRAMS["sum"].check
        assert cpu.mem_word(0, where) == PROGRAMS["sum"].expected


class TestSnapshotMidProgram:
    """Re-homed stage state must round-trip through snapshot/fork."""

    @pytest.mark.parametrize("engine", ["compiled", "naive"])
    def test_fork_mid_program_matches_uninterrupted(self, engine):
        cpu = make_cpu(engine=engine)
        cpu.run_cycles(40)  # tokens parked in every stage
        with cpu.sim.fork():
            stats_forked = cpu.run()
            state_forked = arch_state(cpu)
        # The fork rewound to cycle 40; finishing again must replay the
        # exact same trajectory.
        stats_replay = cpu.run()
        assert (stats_replay.cycles, list(stats_replay.retired)) == (
            stats_forked.cycles, list(stats_forked.retired),
        )
        assert arch_state(cpu) == state_forked

    def test_restore_rewinds_in_flight_stage_state(self):
        cpu = make_cpu()
        cpu.run_cycles(25)
        snap = cpu.sim.snapshot()
        mid = (cpu.execute._busy, cpu.execute._owner, cpu.mem._busy,
               list(cpu.pc_unit.retired))
        cpu.run()
        done = arch_state(cpu)
        cpu.sim.restore(snap)
        assert (cpu.execute._busy, cpu.execute._owner, cpu.mem._busy,
                list(cpu.pc_unit.retired)) == mid
        assert cpu.sim.cycle == 25
        cpu.run()
        assert arch_state(cpu) == done

    def test_noseq_variant_still_snapshots(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_SEQ", "0")
        cpu = make_cpu()
        assert cpu.sim.seq is None
        cpu.run_cycles(30)
        with cpu.sim.fork():
            first = cpu.run()
        second = cpu.run()
        assert (first.cycles, list(first.retired)) == (
            second.cycles, list(second.retired),
        )
