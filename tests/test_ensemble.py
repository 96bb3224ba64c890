"""Ensemble lockstep execution: K scenarios through one compiled schedule.

The hard contract under test: per-scenario results of an ensemble batch
are **bit-identical** to serial compiled runs — same cycle counts, same
transfer triples, same metrics — because control never reads payloads
and only control-identical scenarios are batched.  The rest of the file
exercises the failure envelope: lane divergence, poisoned lanes, and
the runner's serial fallback that makes batching a pure optimization.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.kernel import (
    POISON,
    EnsembleDivergence,
    lift_simulator,
)
from repro.kernel.errors import EnsembleUnsupported
from repro.sweep.families import (
    _build_mt_chain,
    _build_mt_ring,
    _drive_to_completion,
    make_mt_chain,
)
from repro.sweep.jobs import JobService
from repro.sweep.registry import get_family
from repro.sweep.report import canonical_report
from repro.sweep.runner import (
    execute_ensemble,
    execute_scenario,
    normalize_ensemble,
    plan_units,
    run_campaign,
)
from repro.sweep.spec import from_dict

CHAIN_PARAMS = {"threads": 3, "n_funcs": 2}

#: Seeded-payload campaign covering every ensemble-capable family plus
#: deliberately serial-only blocks (non-seeded, random-kind, fuzz).
SEEDED_CAMPAIGN = {
    "campaign": {"name": "ensemble-test", "seed": 11},
    "scenarios": [
        {
            "family": "mt_chain",
            "params": {"threads": 3, "n_funcs": 2, "n_items": 6},
            "stimulus": {"kind": "uniform", "payload": "seeded",
                         "items_per_thread": 5},
            "grid": {"stimulus.payload_salt": [0, 1, 2, 3]},
        },
        {
            "family": "mt_pipeline",
            "params": {"threads": 2, "n_stages": 2},
            "stimulus": {"kind": "uniform", "payload": "seeded",
                         "items_per_thread": 4},
            "grid": {"stimulus.payload_salt": [0, 1, 2]},
        },
        {
            "family": "mt_ring",
            "params": {"threads": 2, "n_funcs": 2, "trips": 2},
            "stimulus": {"kind": "active", "payload": "seeded",
                         "items_per_thread": 2},
            "grid": {"stimulus.payload_salt": [0, 1, 2]},
        },
        # Non-seeded payloads: identical data every lane, nothing to
        # batch — must run serially.
        {
            "family": "mt_pipeline",
            "params": {"threads": 2, "n_stages": 2, "meb": "full"},
            "stimulus": {"kind": "uniform", "items_per_thread": 4},
        },
        # Random stimulus: per-scenario item *counts* differ, so the
        # control schedule differs — never batchable.
        {
            "family": "mt_chain",
            "params": {"threads": 2, "n_funcs": 1, "n_items": 4},
            "stimulus": {"kind": "random", "payload": "seeded",
                         "items_min": 2, "items_max": 6},
            "grid": {"stimulus.payload_salt": [0, 1]},
        },
        # Fuzz rides along serially; its coverage digests must be
        # unaffected by batching elsewhere in the campaign.
        {
            "family": "fuzz",
            "params": {"base": "mt_chain", "threads": 2, "n_funcs": 1},
            "stimulus": {"kind": "fuzz", "rounds": 4, "max_cycles": 4000},
        },
    ],
}


def _chain_lane_items(width: int, threads: int = 3, n: int = 4):
    """Distinct payload schedule per (lane, thread, item)."""
    return [
        [[(j + 1) * 10_000 + t * 100 + k for k in range(n)]
         for t in range(threads)]
        for j in range(width)
    ]


def _run_chain_serial(items):
    handle = _build_mt_chain(CHAIN_PARAMS, None)
    expected = 0
    for t, values in enumerate(items):
        for value in values:
            handle.source.push(t, value)
        expected += len(values)
    _drive_to_completion(handle, expected, {})
    return handle.sim.cycle, list(handle.sink.received)


# ----------------------------------------------------------------------
# kernel layer: lift, lockstep bit-identity, divergence, poison
# ----------------------------------------------------------------------

def test_ensemble_lanes_bit_identical_to_serial():
    width = 4
    lanes = _chain_lane_items(width)
    serial = [_run_chain_serial(items) for items in lanes]
    handle = _build_mt_chain(CHAIN_PARAMS, None)
    lift_simulator(handle.sim, width)
    expected = 0
    for t in range(3):
        for k in range(4):
            handle.source.push(
                t, tuple(lanes[j][t][k] for j in range(width))
            )
            expected += 1
    _drive_to_completion(handle, expected, {})
    for j, (cycles, received) in enumerate(serial):
        assert handle.sim.cycle == cycles
        lane_triples = [(c, t, row[j]) for c, t, row in handle.sink.received]
        assert lane_triples == received


def test_ring_control_divergence_raises():
    handle = _build_mt_ring(
        {"threads": 2, "n_funcs": 1, "trips": 2}, None
    )
    lift_simulator(handle.sim, 2)
    # Ring tokens are (value, trip); lanes disagreeing on the trip count
    # vote differently at the exit branch — control divergence.
    handle.source.push(0, ((5, 0), (6, 1)))
    with pytest.raises(EnsembleDivergence):
        handle.sim.run(cycles=100)


def test_lane_failure_poisons_only_that_lane():
    width = 3
    lanes = _chain_lane_items(width, threads=1, n=2)
    good = [_run_chain_serial(items) for items in (lanes[0], lanes[2])]
    handle = _build_mt_chain({"threads": 1, "n_funcs": 2}, None)
    ctx = lift_simulator(handle.sim, width)
    # Lane 1 carries a payload the chain's arithmetic rejects.
    handle.source.push(0, (lanes[0][0][0], None, lanes[2][0][0]))
    handle.source.push(0, (lanes[0][0][1], None, lanes[2][0][1]))
    _drive_to_completion(handle, 2, {})
    assert set(ctx.failures) == {1}
    assert "TypeError" in ctx.failures[1]
    assert all(row[1] is POISON for _c, _t, row in handle.sink.received)
    for j, lane in zip((0, 2), good):
        cycles, received = lane
        assert handle.sim.cycle == cycles
        lane_triples = [(c, t, row[j]) for c, t, row in handle.sink.received]
        assert lane_triples == received


def test_unsafe_component_refuses_lift():
    from repro.apps.processor.core import Processor

    proc = Processor(threads=2)
    with pytest.raises(EnsembleUnsupported):
        lift_simulator(proc.sim)


def test_ensemble_snapshot_restore_replays():
    sim, source, sink = make_mt_chain(threads=2, n_funcs=1, n_items=0)
    ctx = lift_simulator(sim)
    ctx.reset(2)
    for t in range(2):
        for k in range(3):
            source.push(t, ctx.row((100 + t * 10 + k, 200 + t * 10 + k)))
    snap = sim.snapshot()
    sim.run(cycles=40)
    first = (sim.cycle, list(sink.received))
    sim.restore(snap)
    sim.run(cycles=40)
    assert (sim.cycle, list(sink.received)) == first
    assert [ctx.lane(r, 0) for _c, _t, r in sink.received] == [
        row[0] for _c, _t, row in first[1]
    ]


# ----------------------------------------------------------------------
# runner layer: planning, K=1 parity, fallback
# ----------------------------------------------------------------------

def test_normalize_ensemble_spellings():
    assert normalize_ensemble("auto") > 1
    assert normalize_ensemble(None) == normalize_ensemble("auto")
    assert normalize_ensemble("off") == 0
    assert normalize_ensemble(0) == 0
    assert normalize_ensemble(1) == 0
    assert normalize_ensemble(8) == 8
    assert normalize_ensemble("8") == 8


def test_plan_units_groups_and_caps():
    spec = from_dict(SEEDED_CAMPAIGN)
    units = plan_units(spec.scenarios, "auto")
    sizes = sorted((len(u) for u in units), reverse=True)
    assert sizes[:3] == [4, 3, 3]  # the three seeded grids batch
    assert all(size == 1 for size in sizes[3:])
    # Order is preserved: flattening the units re-yields spec order.
    flat = [s.index for unit in units for s in unit]
    assert sorted(flat) == [s.index for s in spec.scenarios]
    # A lane cap chunks oversized groups.
    capped = plan_units(spec.scenarios, 3)
    assert sorted((len(u) for u in capped), reverse=True)[:4] == [3, 3, 3, 1]
    # ensemble="off" plans everything serial.
    assert all(len(u) == 1 for u in plan_units(spec.scenarios, "off"))


def _strip_volatile(row):
    volatile = ("shard", "duration_s", "design_cache", "cached", "ensemble")
    return {k: v for k, v in row.items() if k not in volatile}


def test_k1_ensemble_matches_plain_compiled():
    spec = from_dict(SEEDED_CAMPAIGN)
    scenario = spec.scenarios[0]
    [row] = execute_ensemble([scenario], None, cache={})
    ref = execute_scenario(scenario, None, cache={})
    assert row["ensemble"] == 1
    assert _strip_volatile(row) == _strip_volatile(ref)


def test_fallback_on_batch_failure(monkeypatch):
    spec = from_dict(SEEDED_CAMPAIGN)
    scenarios = [s for s in spec.scenarios if s.family == "mt_chain"][:3]
    family = get_family("mt_chain")

    def boom(handle, ctx, scens):
        raise EnsembleDivergence("synthetic divergence")

    broken = dataclasses.replace(
        family, ensemble=dataclasses.replace(family.ensemble, run=boom)
    )
    monkeypatch.setattr(
        "repro.sweep.runner.get_family", lambda _name: broken
    )
    rows = execute_ensemble(scenarios, None, cache={})
    refs = [execute_scenario(s, None, cache={}) for s in scenarios]
    for row, ref in zip(rows, refs):
        assert row["ensemble"] == "fallback"
        assert row["status"] == "ok"
        assert row["metrics"] == ref["metrics"]


def test_cached_fallback_rows_count_once(monkeypatch):
    """A stored row does not replay the ensemble placement of the run
    that stored it: two jobs through one store, three real fallbacks."""
    family = get_family("mt_chain")

    def boom(handle, ctx, scens):
        raise EnsembleDivergence("synthetic divergence")

    broken = dataclasses.replace(
        family, ensemble=dataclasses.replace(family.ensemble, run=boom)
    )
    monkeypatch.setattr(
        "repro.sweep.runner.get_family", lambda _name: broken
    )
    spec = {
        "campaign": {"name": "fallbacks", "seed": 11},
        "scenarios": [{
            "family": "mt_chain",
            "params": {"threads": 3, "n_funcs": 2, "n_items": 6},
            "stimulus": {"kind": "uniform", "payload": "seeded",
                         "items_per_thread": 5},
            "grid": {"stimulus.payload_salt": [0, 1, 2]},
        }],
    }
    with JobService(workers=0, store=True) as service:
        first = service.result(service.submit(spec), timeout=120)
        second = service.result(service.submit(spec), timeout=120)
        text = service.render_metrics()
    fallbacks = [
        row for row in first["scenarios"] if row["ensemble"] == "fallback"
    ]
    assert len(fallbacks) == 3
    assert all(row["cached"] for row in second["scenarios"])
    assert not any("ensemble" in row for row in second["scenarios"])
    assert "repro_ensemble_fallbacks_total 3" in text.splitlines()


def test_fallback_when_family_has_no_support(monkeypatch):
    spec = from_dict(SEEDED_CAMPAIGN)
    scenarios = [s for s in spec.scenarios if s.family == "mt_chain"][:2]
    family = get_family("mt_chain")
    stripped = dataclasses.replace(family, ensemble=None)
    monkeypatch.setattr(
        "repro.sweep.runner.get_family", lambda _name: stripped
    )
    rows = execute_ensemble(scenarios, None, cache={})
    assert all(r["ensemble"] == "fallback" for r in rows)
    assert all(r["status"] == "ok" for r in rows)


# ----------------------------------------------------------------------
# campaign layer: batched report == serial report, bit for bit
# ----------------------------------------------------------------------

def _canonical_json(report):
    return json.dumps(canonical_report(report), sort_keys=True, default=str)


def test_campaign_batched_equals_serial_report():
    spec = from_dict(SEEDED_CAMPAIGN)
    batched = run_campaign(spec, workers=1, ensemble="auto")
    serial = run_campaign(spec, workers=1, ensemble="off")
    assert batched["summary"]["failed"] == 0
    assert _canonical_json(batched) == _canonical_json(serial)
    # The batched run really batched (volatile row metadata records K).
    widths = [r.get("ensemble") for r in batched["scenarios"]]
    assert any(isinstance(w, int) and w >= 2 for w in widths)
    # Seeded lanes carry distinct payload digests.
    digests = [
        r["metrics"]["payload_digest"]
        for r in batched["scenarios"]
        if "payload_digest" in r.get("metrics", {})
    ]
    assert len(set(digests)) == len(digests)


def test_campaign_pooled_batched_equals_serial_report():
    spec = from_dict(SEEDED_CAMPAIGN)
    pooled = run_campaign(spec, workers=2, ensemble="auto")
    serial = run_campaign(spec, workers=1, ensemble="off")
    assert _canonical_json(pooled) == _canonical_json(serial)


def test_registry_payload_flags_ensemble_support():
    from repro.sweep.registry import registry_payload

    families = registry_payload()["families"]
    assert families["mt_chain"]["ensemble"] is True
    assert families["mt_pipeline"]["ensemble"] is True
    assert families["mt_ring"]["ensemble"] is True
    assert families["md5"]["ensemble"] is False
    assert families["fuzz"]["ensemble"] is False
