"""The compiled-code cache shared by the kernel's generated functions.

The fused tick driver (:meth:`SeqStore.compile_driver`) and the fused
settle regions (:meth:`CompiledEngine._fuse`) name every per-design
value in their source, so designs that differ only in slot layout —
thread count, width — run one shared code object.  Pinned here:

* a second build of a family at another thread count compiles nothing,
  and both builds stay cycle-identical to the naive oracle;
* a plan-shape change (a ``repeat`` hook, a tracked component) misses;
* profiling and ensemble lifting rebind callables without compiling and
  stay bit-identical to their oracles;
* the cache stays within its bound.
"""

from __future__ import annotations

import pytest

from repro.core import FullMEB
from repro.kernel import SeqPlan, SeqStore, SlotStore, lift_simulator
from repro.kernel.codegen import (
    CACHE_SIZE,
    codegen_counts,
    compile_source,
    exec_generated,
)
from repro.kernel.values import same_value
from repro.sweep.families import (
    _build_mt_chain,
    _drive_to_completion,
    make_mt_chain,
)

from tests.conftest import make_mt_pipeline


@pytest.fixture(autouse=True)
def _seq_enabled(monkeypatch):
    """The tick driver only exists with compile_seq on."""
    monkeypatch.setenv("REPRO_SIM_SEQ", "1")


def misses() -> int:
    return compile_source.cache_info().misses


def chain_trace(threads: int, engine: str) -> list[list]:
    """Full-signal trace of an mt_chain draining 5 items per thread."""
    sim, _source, sink = make_mt_chain(
        threads=threads, n_funcs=3, n_items=5, engine=engine,
    )
    rows = []
    while sink.count < threads * 5:
        sim.step()
        rows.append([sig.value for sig in sim.signals])
        assert sim.cycle < 2_000
    return rows


def assert_rows_equal(rows_a, rows_b):
    assert len(rows_a) == len(rows_b)
    for ca, cb in zip(rows_a, rows_b):
        assert len(ca) == len(cb)
        for va, vb in zip(ca, cb):
            assert same_value(va, vb)


def driver_for(plans, tracked=()):
    """Compile a tick driver over synthetic *plans* in an empty store."""
    seq = SeqStore(SlotStore([]))
    seq.values.extend(range(8))
    seq.plans.extend(plans)
    index = {id(plan.component): i for i, plan in enumerate(tracked)}
    return seq.compile_driver(set(), index)


def plan(repeat=None, state=((0, 2),)):
    return SeqPlan(object(), lambda cycle: None, lambda: False, (),
                   repeat=repeat, state=state)


class TestSharedShapes:
    def test_other_thread_count_compiles_nothing(self):
        chain_trace(2, "compiled")  # compiles (or finds) the shape
        before = misses()
        compiled_before, reused_before = codegen_counts()
        wide = chain_trace(4, "compiled")
        assert misses() == before
        compiled, reused = codegen_counts()
        assert compiled == compiled_before
        assert reused > reused_before
        assert_rows_equal(wide, chain_trace(4, "naive"))
        assert_rows_equal(chain_trace(2, "compiled"),
                          chain_trace(2, "naive"))

    def test_designs_get_their_own_functions(self):
        narrow, _src, _snk = make_mt_chain(threads=2, n_funcs=3, n_items=1)
        wide, _src, _snk = make_mt_chain(threads=4, n_funcs=3, n_items=1)
        assert narrow._seq_capture is not wide._seq_capture
        assert narrow._seq_capture.__code__ is wide._seq_capture.__code__
        assert narrow._seq_capture.__globals__["_V"] is narrow._store.values
        assert wide._seq_capture.__globals__["_V"] is wide._store.values

    def test_one_slot_and_wide_ranges_share_code(self):
        compile_source.cache_clear()
        driver_for([plan(state=((0, 1),))])
        before = misses()
        wide = plan(state=((2, 6),))
        capture, commit = driver_for([wide])
        assert misses() == before
        capture(0)
        commit()
        assert wide.clean
        capture(1)  # the wide range compares equal: the plan skips
        assert not wide.ran

    @pytest.mark.parametrize("variant", ["repeat", "tracked"])
    def test_plan_shape_change_misses(self, variant):
        compile_source.cache_clear()
        driver_for([plan(), plan()])
        before = misses()
        driver_for([plan(), plan()])
        assert misses() == before
        if variant == "repeat":
            driver_for([plan(), plan(repeat=lambda cycle: None)])
        else:
            plans = [plan(), plan()]
            driver_for(plans, tracked=plans[1:])
        assert misses() == before + 1

    def test_tracked_driver_marks_its_own_index(self):
        plans = [plan(), plan()]
        seq = SeqStore(SlotStore([]))
        seq.values.extend(range(4))
        seq.plans.extend(plans)
        plans[1].commit = lambda: True  # ends dirty: marks the engine
        stale: set[int] = set()
        capture, commit = seq.compile_driver(
            stale, {id(plans[1].component): 7}
        )
        capture(0)
        commit()
        assert stale == {7}


class TestRebindWithoutCompiling:
    def test_profiled_run_compiles_nothing_and_matches(self):
        items = [list(range(6)) for _ in range(2)]
        plain, _src, sink_a, _mebs, _mons = make_mt_pipeline(
            FullMEB, threads=2, items=items, n_stages=2, engine="compiled",
        )
        plain.run(until=lambda s: sink_a.count == 12, max_cycles=5_000)
        profiled, _src, sink_b, _mebs, _mons = make_mt_pipeline(
            FullMEB, threads=2, items=items, n_stages=2, engine="compiled",
        )
        before = misses()
        with profiled.profile():
            profiled.run(until=lambda s: sink_b.count == 12,
                         max_cycles=5_000)
        assert misses() == before
        assert profiled.cycle == plain.cycle
        assert sink_b.received == sink_a.received

    def test_ensemble_lift_compiles_nothing_and_matches(self):
        params = {"threads": 3, "n_funcs": 2}
        lanes = [
            [[(j + 1) * 1_000 + t * 10 + k for k in range(3)]
             for t in range(3)]
            for j in range(2)
        ]
        serial = []
        for items in lanes:
            handle = _build_mt_chain(params, None)
            for t, values in enumerate(items):
                for value in values:
                    handle.source.push(t, value)
            _drive_to_completion(handle, 9, {})
            serial.append((handle.sim.cycle, list(handle.sink.received)))
        before = misses()  # the serial builds compiled every shape
        handle = _build_mt_chain(params, None)
        lift_simulator(handle.sim, 2)
        assert misses() == before
        for t in range(3):
            for k in range(3):
                handle.source.push(t, tuple(lane[t][k] for lane in lanes))
        _drive_to_completion(handle, 9, {})
        for j, (cycles, received) in enumerate(serial):
            assert handle.sim.cycle == cycles
            lane = [(c, t, row[j]) for c, t, row in handle.sink.received]
            assert lane == received


def test_cache_is_bounded():
    assert compile_source.cache_info().maxsize == CACHE_SIZE
    for i in range(CACHE_SIZE + 8):
        assert exec_generated(f"_x = {i}", {})["_x"] == i
    assert compile_source.cache_info().currsize == CACHE_SIZE
