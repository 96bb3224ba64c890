"""``run(until=...)`` fusion under the declared-watch contract.

A :class:`WatchedPredicate` promises it is a pure function of its
declared watch signals and transfer-derived component state — never of
``sim.cycle`` — which lets the engine batch fully quiescent stretches
instead of evaluating the predicate every idle cycle.  The tests pin
the contract differentially: fused and unfused runs must agree on the
final cycle and every observed transfer, including the deadlock
diagnosis path, and observers must disable fusion (structured
:class:`FusionBlockedError` when the caller demanded it).
"""

from __future__ import annotations

import pytest

from repro.kernel import FusionBlockedError, WatchedPredicate
from repro.kernel.errors import SimulationError
from repro.sweep.families import make_mt_chain


def _loaded_chain(engine=None):
    sim, source, sink = make_mt_chain(
        threads=2, n_funcs=2, n_items=0, engine=engine
    )
    for t in range(2):
        for k in range(5):
            source.push(t, t * 100 + k)
    return sim, source, sink


def _watched(sink, target):
    return WatchedPredicate(
        lambda _s: sink.count >= target,
        watches=(*sink.channel.valid, *sink.channel.ready),
    )


def test_fused_matches_unfused_completion():
    sim_f, _src, sink_f = _loaded_chain()
    sim_u, _src, sink_u = _loaded_chain()
    sim_f.run(until=_watched(sink_f, 10), max_cycles=5000)
    # A plain callable gives no purity declaration, so no fusion.
    sim_u.run(until=lambda _s: sink_u.count >= 10, max_cycles=5000)
    assert sim_f.cycle == sim_u.cycle
    assert list(sink_f.received) == list(sink_u.received)


def test_fused_deadlock_diagnosis_is_cycle_identical():
    # Target is unreachable: 10 items pushed, 11 awaited.  The fused
    # run must reach the exact same max-cycles diagnosis instantly.
    sim_f, _src, sink_f = _loaded_chain()
    sim_u, _src, sink_u = _loaded_chain()
    with pytest.raises(SimulationError):
        sim_f.run(until=_watched(sink_f, 11), max_cycles=3000)
    with pytest.raises(SimulationError):
        sim_u.run(until=lambda _s: sink_u.count >= 11, max_cycles=3000)
    assert sim_f.cycle == sim_u.cycle
    assert list(sink_f.received) == list(sink_u.received)


def test_large_budget_deadlock_is_fast():
    import time

    sim, _src, sink = _loaded_chain()
    start = time.perf_counter()
    with pytest.raises(SimulationError):
        sim.run(until=_watched(sink, 11), max_cycles=2_000_000)
    assert time.perf_counter() - start < 5.0
    assert sim.cycle > 1_000_000  # the whole budget was really charged


def test_strict_predicate_raises_structured_error_on_observer():
    sim, _src, sink = _loaded_chain()
    sim.add_observer(lambda _s: None)
    strict = WatchedPredicate(
        lambda _s: sink.count >= 10,
        watches=(*sink.channel.valid, *sink.channel.ready),
        strict=True,
    )
    with pytest.raises(FusionBlockedError) as err:
        sim.run(until=strict, max_cycles=5000)
    kinds = [b["kind"] for b in err.value.blockers]
    assert "observer" in kinds


def test_observer_disables_fusion_but_run_still_correct():
    sim_o, _src, sink_o = _loaded_chain()
    seen = []
    sim_o.add_observer(lambda s: seen.append(s.cycle))
    sim_u, _src, sink_u = _loaded_chain()
    sim_o.run(until=_watched(sink_o, 10), max_cycles=5000)
    sim_u.run(until=lambda _s: sink_u.count >= 10, max_cycles=5000)
    assert sim_o.cycle == sim_u.cycle
    assert list(sink_o.received) == list(sink_u.received)
    # The observer really saw every stepped cycle — nothing was fused
    # past it.
    assert len(seen) == sim_o.cycle


def test_fusion_blockers_reporting():
    sim, _src, _sink = _loaded_chain()
    assert sim.fusion_blockers() == []
    sim_n, _src, _sink = _loaded_chain(engine="naive")
    kinds = [b["kind"] for b in sim_n.fusion_blockers()]
    assert "engine" in kinds
    sim_o, _src, _sink = _loaded_chain()
    sim_o.add_observer(lambda _s: None)
    kinds = [b["kind"] for b in sim_o.fusion_blockers()]
    assert kinds.count("observer") == 1


def test_watch_slots_exposes_declared_signals():
    sim, _src, sink = _loaded_chain()
    pred = _watched(sink, 1)
    slots = pred.watch_slots()
    assert len(slots) == len(sink.channel.valid) + len(sink.channel.ready)


def test_until_requires_predicate():
    sim, _src, _sink = _loaded_chain()
    with pytest.raises(ValueError):
        sim.run()
    with pytest.raises(ValueError):
        sim.run(cycles=1, until=lambda _s: True)
