"""Coverage-guided fuzzing and fault campaigns: determinism + oracles.

The load-bearing properties:

* the fuzz family's mutant sequence and coverage map are bit-identical
  across worker counts and settle engines (digests included), because
  everything derives from ``random.Random(scenario.seed)`` and the
  engines are cycle-identical;
* the mutation loop *beats* the grid-analogue seed corpus — coverage
  steering reaches structural states the classic active-thread sweep
  never does;
* every registered fault kind trips its oracle the way the menagerie
  table (:data:`repro.sweep.fuzz.FAULT_KINDS`) promises, and a fault
  armed beyond the run window leaves the design indistinguishable from
  a healthy one;
* the coverage regression gate regresses on coverage/oracle drops and
  tolerates identical reports.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib
import random

import pytest

from repro.core import FullMEB, MTChannel, MTMonitor, MTSink, MTSource
from repro.kernel import build
from repro.sweep.coverage import CoverageMap, structural_probes
from repro.sweep.fuzz import (
    FAULT_KINDS,
    _build_fault,
    _build_fuzz,
    mutate_pattern,
    run_fault_window,
    seed_corpus,
)
from repro.sweep.registry import get_family
from repro.sweep.report import canonical_report
from repro.sweep.runner import run_campaign
from repro.sweep.spec import from_dict, make_scenario

FUZZ_CAMPAIGN = {
    "campaign": {"name": "fuzz-test", "seed": 99},
    "scenarios": [
        {
            "family": "fuzz",
            "params": {"base": "mt_pipeline", "threads": 2, "n_stages": 2},
            "grid": {"meb": ["full", "reduced"]},
            "stimulus": {"kind": "fuzz", "rounds": 12},
        },
        {
            "family": "fault",
            "params": {"threads": 2},
            "grid": {"fault": sorted(FAULT_KINDS)},
            "stimulus": {"kind": "inject", "items_per_thread": 4},
        },
    ],
}


# ----------------------------------------------------------------------
# CoverageMap
# ----------------------------------------------------------------------

class TestCoverageMap:
    @staticmethod
    def _small_design():
        threads = 2
        c0 = MTChannel("c0", threads=threads)
        c1 = MTChannel("c1", threads=threads)
        src = MTSource("src", c0, items=[[] for _ in range(threads)])
        meb = FullMEB("meb", c0, c1)
        sink = MTSink("snk", c1)
        mon = MTMonitor("mon", c1)
        sim = build(c0, c1, src, meb, sink, mon)
        return sim, src, sink

    def test_probes_and_space(self):
        sim, _src, _sink = self._small_design()
        probes = structural_probes(sim)
        assert [p.kind for p in probes] == ["full_meb"]
        # 2 threads x (SLOTS+1) occupancies each.
        meb = sim.find("meb")
        assert probes[0].space == (meb.SLOTS_PER_THREAD + 1) ** 2

    def test_observe_accumulates_and_detach_restores(self):
        sim, src, _sink = self._small_design()
        cov = CoverageMap(sim).attach()
        assert cov.new_states == 1  # attach records the now-state
        for t in range(2):
            for k in range(4):
                src.push(t, (t << 8) | k)
        sim.run(cycles=20)
        assert cov.new_states > 1
        assert 0 < cov.coverage_pct <= 100
        assert cov.covered == sum(cov.local_counts().values())
        cov.detach()
        before = cov.new_states
        sim.run(cycles=5)
        assert cov.new_states == before  # detached: no more observation
        # Identical maps digest identically; digests pin the joint set.
        assert cov.digest() == cov.digest()

    def test_summary_is_json_safe(self):
        sim, _src, _sink = self._small_design()
        cov = CoverageMap(sim).attach()
        sim.run(cycles=3)
        cov.detach()
        summary = cov.summary()
        json.dumps(summary)
        assert summary["signature_space"] == cov.space
        assert summary["per_component"] == {"meb": len(cov.local[0])}


# ----------------------------------------------------------------------
# mutation operators
# ----------------------------------------------------------------------

class TestMutation:
    def test_seed_corpus_is_the_grid_analogue(self):
        corpus = seed_corpus(threads=3, burst=2, gap=4)
        assert corpus == [
            ((0b001, 2, 4, 0),),
            ((0b011, 2, 4, 0),),
            ((0b111, 2, 4, 0),),
        ]

    def test_mutations_deterministic_and_well_formed(self):
        base = seed_corpus(4, 3, 4)[-1]
        seq_a, seq_b = [], []
        for seq, rng in ((seq_a, random.Random(5)), (seq_b, random.Random(5))):
            pattern = base
            for _ in range(200):
                pattern = mutate_pattern(
                    pattern, rng, threads=4, max_burst=5, max_waves=6
                )
                seq.append(pattern)
        assert seq_a == seq_b  # same seed, bit-identical mutant sequence
        for pattern in seq_a:
            assert 1 <= len(pattern) <= 6
            for mask, burst, gap, stall in pattern:
                assert 0 <= mask < 16
                assert 1 <= burst <= 5
                assert gap in (1, 2, 3, 5, 8, 13, 21) or gap == 4
                assert stall in (0, 1, 2, 3, 5, 8)


# ----------------------------------------------------------------------
# the fuzz family
# ----------------------------------------------------------------------

class TestFuzzFamily:
    @staticmethod
    def _run_once(engine=None, seed=31):
        family = get_family("fuzz")
        params = {"base": "mt_pipeline", "threads": 2, "n_stages": 2,
                  "meb": "reduced"}
        scenario = make_scenario(
            "fuzz", params, {"kind": "fuzz", "rounds": 12}, seed=seed
        )
        handle = family.build(params, engine)
        return family.run(handle, scenario)

    def test_beats_grid_baseline(self):
        metrics = self._run_once()
        assert metrics["coverage_pct"] > metrics["baseline_coverage_pct"]
        assert metrics["coverage_gain_pct"] > 0
        assert metrics["mutants_kept"] > 0
        assert metrics["corpus_size"] == 2 + metrics["mutants_kept"]

    def test_engine_invariant_digests(self):
        naive = self._run_once(engine="naive")
        compiled = self._run_once(engine="compiled")
        assert naive == compiled  # includes mutant + coverage digests

    def test_seed_changes_the_trajectory(self):
        a = self._run_once(seed=31)
        b = self._run_once(seed=32)
        assert a["mutant_digest"] != b["mutant_digest"]

    def test_detaches_observer_between_scenarios(self):
        family = get_family("fuzz")
        params = {"base": "mt_pipeline", "threads": 2, "n_stages": 2}
        handle = family.build(params, None)
        scenario = make_scenario(
            "fuzz", params, {"kind": "fuzz", "rounds": 4}, seed=1
        )
        family.run(handle, scenario)
        # Reusable family: the coverage observer must not leak into the
        # next scenario run on the same simulator.
        assert not handle.sim._observers

    def test_rejects_unknown_base(self):
        with pytest.raises(ValueError, match="fuzz base"):
            _build_fuzz({"base": "md5"}, None)


# ----------------------------------------------------------------------
# the fault family
# ----------------------------------------------------------------------

class TestFaultFamily:
    @pytest.mark.parametrize("kind", sorted(FAULT_KINDS))
    def test_armed_fault_trips_its_oracle(self, kind):
        family = get_family("fault")
        params = {"fault": kind, "threads": 2}
        scenario = make_scenario(
            "fault", params, {"kind": "inject", "items_per_thread": 4},
            seed=7,
        )
        metrics = family.run(family.build(params, None), scenario)
        expected, _detector = FAULT_KINDS[kind]
        assert metrics["fired"], kind
        assert metrics["outcome"] == expected
        assert metrics["oracle_ok"]
        assert metrics["faults_survived"] == int(expected == "survived")

    @pytest.mark.parametrize("kind", sorted(FAULT_KINDS))
    def test_unarmed_fault_is_clean(self, kind):
        # Armed far beyond the run window, the faulty build must be
        # indistinguishable from a healthy design.
        handle = _build_fault({"fault": kind, "threads": 2,
                               "fire_at": 10_000}, None)
        result = run_fault_window(handle, items=4, window=60)
        assert not result["fired"]
        assert result["outcome"] == "clean"
        assert result["error"] is None

    def test_unfired_drop_matches_healthy_delivery(self):
        armed = _build_fault({"fault": "drop", "threads": 2,
                              "fire_at": 10_000}, None)
        healthy = _build_fault({"fault": "stuck_ready", "threads": 2,
                                "fire_at": 10_000}, None)  # plain FullMEB
        armed_result = run_fault_window(armed, items=4, window=60)
        healthy_result = run_fault_window(healthy, items=4, window=60)
        assert armed_result["delivered"] == healthy_result["delivered"] == 8

    def test_rejects_unknown_fault(self):
        with pytest.raises(ValueError, match="fault must be one of"):
            _build_fault({"fault": "bitrot"}, None)


# ----------------------------------------------------------------------
# campaign-level determinism and summary folding
# ----------------------------------------------------------------------

class TestFuzzCampaign:
    def test_bit_identical_across_workers_and_engines(self):
        spec = from_dict(FUZZ_CAMPAIGN)
        serial = run_campaign(spec, workers=1)
        sharded = run_campaign(spec, workers=4)
        naive = run_campaign(spec, workers=1, engine="naive")
        assert canonical_report(serial) == canonical_report(sharded)
        metrics = lambda r: {  # noqa: E731
            row["key"]: row["metrics"] for row in r["scenarios"]
        }
        assert metrics(serial) == metrics(naive)

    def test_summary_folds_coverage_and_oracles(self):
        report = run_campaign(from_dict(FUZZ_CAMPAIGN), workers=1)
        summary = report["summary"]
        assert summary["failed"] == 0
        assert 0 < summary["coverage_pct"] <= 100
        assert summary["new_states"] > 0
        oracles = summary["fault_oracles"]
        assert oracles["scenarios"] == len(FAULT_KINDS)
        assert oracles["passed"] == oracles["scenarios"]
        assert oracles["pass_rate"] == 1.0
        assert summary["faults_survived"] == sum(
            1 for expected, _d in FAULT_KINDS.values()
            if expected == "survived"
        )


# ----------------------------------------------------------------------
# the coverage regression gate
# ----------------------------------------------------------------------

class TestCoverageRegressionGate:
    """benchmarks/check_coverage_regression.py — the fuzz-level gate."""

    @staticmethod
    def _gate():
        spec = importlib.util.spec_from_file_location(
            "check_coverage_regression",
            pathlib.Path(__file__).parent.parent
            / "benchmarks" / "check_coverage_regression.py",
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    @staticmethod
    def _report():
        return {
            "campaign": {"name": "t", "seed": 1, "engine": None, "workers": 1},
            "summary": {
                "coverage_pct": 50.0,
                "fault_oracles": {"scenarios": 2, "passed": 2,
                                  "pass_rate": 1.0},
            },
            "scenarios": [
                {
                    "key": "fuzz(base=mt_pipeline,threads=2)/fuzz",
                    "status": "ok",
                    "metrics": {"coverage_pct": 50.0, "new_states": 40,
                                "mutants_kept": 5},
                },
                {
                    "key": "fault(fault=drop,threads=2)/inject",
                    "status": "ok",
                    "metrics": {"oracle_ok": True},
                },
            ],
        }

    def test_identical_reports_pass(self):
        gate = self._gate()
        lines, regressions = gate.compare(self._report(), self._report(), 0.25)
        assert not regressions
        assert any("✅" in line for line in lines)

    def test_coverage_drop_and_oracle_flip_regress(self):
        gate = self._gate()
        current = self._report()
        current["scenarios"][0]["metrics"]["coverage_pct"] = 30.0  # -40%
        current["scenarios"][1]["metrics"]["oracle_ok"] = False
        current["summary"]["coverage_pct"] = 30.0
        current["summary"]["fault_oracles"]["pass_rate"] = 0.5
        _lines, regressions = gate.compare(self._report(), current, 0.25)
        assert len(regressions) == 4
        assert any("cov %" in msg for msg in regressions)
        assert any("oracle" in msg for msg in regressions)
        assert any("pass rate" in msg for msg in regressions)

    def test_missing_scenario_regresses_new_not_gated(self):
        gate = self._gate()
        current = self._report()
        current["scenarios"][1]["status"] = "error"
        current["scenarios"].append({
            "key": "fault(fault=duplicate,threads=2)/inject",
            "status": "ok",
            "metrics": {"oracle_ok": True},
        })
        lines, regressions = gate.compare(self._report(), current, 0.25)
        assert regressions and "missing or failed" in regressions[0]
        assert any("not gated" in line for line in lines)

    def test_main_writes_delta_and_exit_codes(self, tmp_path, monkeypatch):
        gate = self._gate()
        base_path = tmp_path / "base.json"
        cur_path = tmp_path / "cur.json"
        base_path.write_text(json.dumps(self._report()), encoding="utf-8")
        cur_path.write_text(json.dumps(self._report()), encoding="utf-8")
        monkeypatch.delenv("BENCH_TOLERANCE", raising=False)
        assert gate.main(["x", str(base_path), str(cur_path)]) == 0
        assert (tmp_path / "coverage_regression_delta.md").exists()
        bad = self._report()
        bad["summary"]["coverage_pct"] = 1.0
        cur_path.write_text(json.dumps(bad), encoding="utf-8")
        assert gate.main(["x", str(base_path), str(cur_path)]) == 1
        assert gate.main(["x", str(base_path), str(tmp_path / "nope")]) == 2
