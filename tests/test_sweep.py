"""The campaign subsystem: specs, registry, runner, report, CLI.

The load-bearing property is at the bottom of the file: a sharded
multiprocess campaign and a serial single-process campaign — and runs
under different settle engines — produce bit-identical per-scenario
metrics, because scenario seeds derive from (campaign seed, scenario
key) alone and the engines are cycle-identical.
"""

from __future__ import annotations

import json
import pathlib
import sys

import pytest

from repro.sweep import (
    SpecError,
    family_names,
    get_family,
    load_spec,
    make_scenario,
    run_campaign,
)
from repro.sweep.registry import Family, register_family
from repro.sweep.report import render_markdown, write_report
from repro.sweep.runner import execute_scenario
from repro.sweep.spec import from_dict

#: A small but representative campaign: three families, grids over
#: structural and stimulus axes, one seeded-random traffic scenario.
SMALL_CAMPAIGN = {
    "campaign": {"name": "test", "seed": 7, "workers": 2},
    "scenarios": [
        {
            "family": "mt_pipeline",
            "params": {"threads": 2, "n_stages": 2},
            "grid": {"meb": ["full", "reduced"]},
            "stimulus": {"kind": "uniform", "items_per_thread": 8},
            "metrics": {"warmup": 4, "drain": 2},
        },
        {
            "family": "mt_pipeline",
            "params": {"threads": 2, "n_stages": 2, "meb": "full"},
            "stimulus": {"kind": "random", "items_min": 2, "items_max": 9},
        },
        {
            "family": "mt_chain",
            "params": {"threads": 2, "n_funcs": 2},
            "stimulus": {"kind": "uniform", "items_per_thread": 6},
        },
        {
            "family": "mt_ring",
            "params": {"threads": 2, "n_funcs": 1, "trips": 3},
            "stimulus": {"kind": "uniform", "items_per_thread": 2},
        },
    ],
}


def _metrics_by_key(report):
    return {
        row["key"]: row["metrics"] for row in report["scenarios"]
        if row["status"] == "ok"
    }


class TestSpec:
    def test_grid_expansion_cross_product(self):
        spec = from_dict(
            {
                "campaign": {"name": "g", "seed": 1},
                "scenarios": [
                    {
                        "family": "mt_pipeline",
                        "grid": {
                            "threads": [2, 4],
                            "meb": ["full", "reduced"],
                            "stimulus.active": [1, 2],
                        },
                        "stimulus": {"kind": "active"},
                    }
                ],
            }
        )
        assert len(spec.scenarios) == 8
        keys = {sc.key for sc in spec.scenarios}
        assert len(keys) == 8  # all distinct
        # Stimulus axes land in the stimulus block, not the params.
        for sc in spec.scenarios:
            assert "active" in sc.stimulus
            assert "active" not in sc.params
        # 4 distinct designs (stimulus axes don't change the build).
        assert len({sc.design_key() for sc in spec.scenarios}) == 4

    def test_seed_depends_on_scenario_not_position(self):
        spec_a = from_dict(SMALL_CAMPAIGN)
        reordered = dict(SMALL_CAMPAIGN)
        reordered["scenarios"] = list(reversed(SMALL_CAMPAIGN["scenarios"]))
        spec_b = from_dict(reordered)
        seeds_a = {sc.key: sc.seed for sc in spec_a.scenarios}
        seeds_b = {sc.key: sc.seed for sc in spec_b.scenarios}
        assert seeds_a == seeds_b

    def test_make_scenario_matches_campaign_seed(self):
        spec = from_dict(SMALL_CAMPAIGN)
        declared = spec.scenario(
            "mt_chain(n_funcs=2,threads=2)/uniform"
        )
        adhoc = make_scenario(
            "mt_chain",
            params={"threads": 2, "n_funcs": 2},
            stimulus={"kind": "uniform", "items_per_thread": 6},
            seed=7,
        )
        assert adhoc.seed == declared.seed
        assert adhoc.key == declared.key

    def test_spec_errors(self):
        with pytest.raises(SpecError):
            from_dict({"campaign": {}})  # no scenarios
        with pytest.raises(SpecError):
            from_dict({"scenarios": [{"params": {}}]})  # no family
        with pytest.raises(SpecError):
            from_dict(
                {"scenarios": [{"family": "x", "grid": {"threads": []}}]}
            )
        with pytest.raises(SpecError):
            from_dict(
                {"scenarios": [{"family": "x", "typo_block": {}}]}
            )

    def test_spec_errors_are_structured(self):
        with pytest.raises(SpecError) as excinfo:
            from_dict({"scenarios": [{"params": {}}]})
        err = excinfo.value
        assert err.path == "scenarios[0]"
        assert err.field == "family"
        assert err.to_dict() == {
            "path": "scenarios[0]",
            "field": "family",
            "reason": err.reason,
        }
        # The rendered message is built from the same three fields the
        # HTTP 400 body carries — one source for both surfaces.
        assert str(err) == f"scenarios[0].family: {err.reason}"

        with pytest.raises(SpecError) as excinfo:
            from_dict(
                {"scenarios": [{"family": "x", "grid": {"threads": []}}]}
            )
        assert excinfo.value.field == "grid.threads"

    def test_unknown_engine_rejected(self, tmp_path):
        # Rejected once at parse time, not as one error row per scenario.
        with pytest.raises(SpecError) as excinfo:
            from_dict({**SMALL_CAMPAIGN, "campaign": {"engine": "event"}})
        assert (excinfo.value.path, excinfo.value.field) == ("campaign", "engine")
        path = tmp_path / "old.toml"
        path.write_text(
            '[campaign]\nengine = "event"\n\n'
            '[[scenarios]]\nfamily = "mt_chain"\n',
            encoding="utf-8",
        )
        with pytest.raises(SpecError, match="campaign.engine"):
            load_spec(path)

    def test_load_json_spec(self, tmp_path):
        path = tmp_path / "campaign.json"
        path.write_text(json.dumps(SMALL_CAMPAIGN), encoding="utf-8")
        spec = load_spec(path)
        assert spec.name == "test"
        assert len(spec.scenarios) == 5

    @pytest.mark.skipif(
        sys.version_info < (3, 11), reason="tomllib needs Python 3.11+"
    )
    def test_load_toml_spec(self, tmp_path):
        path = tmp_path / "campaign.toml"
        path.write_text(
            '[campaign]\nname = "t"\nseed = 3\n\n'
            '[[scenarios]]\nfamily = "mt_chain"\n'
            "params = { threads = 2, n_funcs = 1 }\n"
            'stimulus = { kind = "uniform", items_per_thread = 4 }\n',
            encoding="utf-8",
        )
        spec = load_spec(path)
        assert spec.scenarios[0].family == "mt_chain"

    def test_example_campaign_spec_is_valid(self):
        if sys.version_info < (3, 11):
            pytest.skip("tomllib needs Python 3.11+")
        spec = load_spec(
            pathlib.Path(__file__).resolve().parents[1]
            / "examples" / "campaigns" / "paper_sweep.toml"
        )
        # The acceptance shape: >= 3 design families x >= 4 points.
        families = {sc.family for sc in spec.scenarios}
        assert len(families) >= 3
        for family in families:
            assert (
                sum(1 for sc in spec.scenarios if sc.family == family) >= 4
            )
        for sc in spec.scenarios:
            get_family(sc.family)  # every family resolves


class TestRegistry:
    def test_builtin_families_registered(self):
        names = family_names()
        for expected in (
            "mt_pipeline", "mt_chain", "mt_ring", "md5", "processor",
        ):
            assert expected in names

    def test_unknown_family(self):
        with pytest.raises(KeyError, match="unknown design family"):
            get_family("warp_drive")

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError):
            register_family(
                Family(name="mt_pipeline", build=None, run=None)
            )


class TestRunner:
    def test_serial_campaign_runs_and_reuses_designs(self):
        spec = from_dict(SMALL_CAMPAIGN)
        report = run_campaign(spec, workers=1)
        assert report["summary"]["failed"] == 0
        assert report["summary"]["ok"] == 5
        # Rows come back in spec order regardless of grouping.
        assert [r["index"] for r in report["scenarios"]] == list(range(5))

    def test_sharded_equals_serial(self):
        spec = from_dict(SMALL_CAMPAIGN)
        serial = run_campaign(spec, workers=1)
        sharded = run_campaign(spec, workers=2)
        assert _metrics_by_key(serial) == _metrics_by_key(sharded)
        shards_used = {r["shard"] for r in sharded["scenarios"]}
        assert len(shards_used) == 2  # it really ran on two workers

    def test_engines_agree(self):
        spec = from_dict(SMALL_CAMPAIGN)
        naive = run_campaign(spec, workers=1, engine="naive")
        compiled = run_campaign(spec, workers=2, engine="compiled")
        assert _metrics_by_key(naive) == _metrics_by_key(compiled)

    def test_scenario_failure_is_contained(self):
        register_family(
            Family(
                name="_always_fails",
                build=lambda params, engine: object(),
                run=lambda handle, sc: (_ for _ in ()).throw(
                    RuntimeError("boom")
                ),
                reusable=False,
            )
        )
        try:
            spec = from_dict(
                {
                    "campaign": {"name": "f", "seed": 1},
                    "scenarios": [
                        {"family": "_always_fails"},
                        {
                            "family": "mt_chain",
                            "params": {"threads": 2, "n_funcs": 1},
                            "stimulus": {
                                "kind": "uniform", "items_per_thread": 3,
                            },
                        },
                    ],
                }
            )
            report = run_campaign(spec, workers=1)
        finally:
            from repro.sweep.registry import _REGISTRY

            _REGISTRY.pop("_always_fails", None)
        rows = {r["key"]: r for r in report["scenarios"]}
        failed = rows["_always_fails()/uniform"]
        assert failed["status"] == "error"
        assert "boom" in failed["error"]
        ok = [r for r in report["scenarios"] if r["status"] == "ok"]
        assert len(ok) == 1  # the healthy scenario still ran

    def test_unknown_family_reported_not_raised(self):
        spec = from_dict(
            {
                "campaign": {"name": "u", "seed": 1},
                "scenarios": [{"family": "warp_drive"}],
            }
        )
        report = run_campaign(spec, workers=1)
        row = report["scenarios"][0]
        assert row["status"] == "error"
        assert "unknown design family" in row["error"]

    def test_fork_variant_scenarios(self):
        scenario = make_scenario(
            "mt_pipeline",
            params={"threads": 2, "n_stages": 2, "meb": "full"},
            stimulus={
                "kind": "uniform",
                "base": {"kind": "uniform", "items_per_thread": 4},
                "warmup_cycles": 10,
                "variants": [
                    {"kind": "uniform", "items_per_thread": 2},
                    {"kind": "active", "active": 1,
                     "items_per_thread": 6},
                ],
            },
            metrics={"window": "full"},
        )
        row_a = execute_scenario(scenario, engine="compiled")
        row_b = execute_scenario(scenario, engine="naive")
        assert row_a["status"] == "ok", row_a.get("error")
        variants = row_a["metrics"]["variants"]
        assert [v["variant"] for v in variants] == [0, 1]
        # Each variant replayed from the same branch point, so variant
        # metrics are engine-invariant and mutually independent.
        assert row_a["metrics"] == row_b["metrics"]


class TestReportAndCLI:
    def test_report_render_and_write(self, tmp_path):
        spec = from_dict(SMALL_CAMPAIGN)
        report = run_campaign(spec, workers=1)
        md = render_markdown(report)
        assert "# Campaign `test`" in md
        assert "mt_pipeline" in md and "mt_ring" in md
        json_path, md_path = write_report(report, tmp_path, "camp")
        loaded = json.loads(json_path.read_text(encoding="utf-8"))
        assert loaded["summary"]["ok"] == 5
        assert md_path.read_text(encoding="utf-8") == md

    def test_cli_run_and_validate(self, tmp_path, capsys):
        from repro.sweep.__main__ import main

        path = tmp_path / "c.json"
        path.write_text(json.dumps(SMALL_CAMPAIGN), encoding="utf-8")
        out_dir = tmp_path / "results"
        rc = main([
            "run", str(path), "--workers", "1", "--out", str(out_dir),
            "--name", "smoke",
        ])
        assert rc == 0
        assert (out_dir / "smoke.json").exists()
        assert (out_dir / "smoke.md").exists()
        assert "5/5 scenarios ok" in capsys.readouterr().out

        assert main(["validate", str(path)]) == 0
        assert "5 scenarios" in capsys.readouterr().out

        assert main(["families"]) == 0
        assert "mt_pipeline" in capsys.readouterr().out

    def test_cli_failure_exit_code(self, tmp_path):
        from repro.sweep.__main__ import main

        bad = {
            "campaign": {"name": "bad", "seed": 1},
            "scenarios": [{"family": "warp_drive"}],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad), encoding="utf-8")
        assert main([
            "run", str(path), "--workers", "1",
            "--out", str(tmp_path / "r"),
        ]) == 1

    def test_cli_spec_error_exit_codes(self, tmp_path, capsys):
        """Exit codes are normalized: 2 = spec/usage error, nothing ran."""
        from repro.sweep.__main__ import main

        # Missing spec file: exit 2, structured message on stderr.
        assert main(["run", str(tmp_path / "missing.toml")]) == 2
        assert "spec error:" in capsys.readouterr().err

        # Structurally invalid spec: exit 2 from run and validate alike.
        path = tmp_path / "broken.json"
        path.write_text(
            json.dumps({"scenarios": [{"params": {}}]}), encoding="utf-8"
        )
        assert main(["run", str(path)]) == 2
        assert "scenarios[0].family" in capsys.readouterr().err
        assert main(["validate", str(path)]) == 2
        capsys.readouterr()

        # Unresolvable family: validate treats it as a spec problem (2),
        # run treats it as a scenario failure (1) — documented split.
        unknown = tmp_path / "unknown.json"
        unknown.write_text(json.dumps({
            "campaign": {"name": "u", "seed": 1},
            "scenarios": [{"family": "warp_drive"}],
        }), encoding="utf-8")
        assert main(["validate", str(unknown)]) == 2

    def test_cli_unknown_engine_rejected(self, tmp_path, capsys):
        from repro.sweep.__main__ import main

        path = tmp_path / "c.json"
        path.write_text(json.dumps(SMALL_CAMPAIGN), encoding="utf-8")
        out_dir = tmp_path / "results"
        with pytest.raises(SystemExit) as excinfo:
            main(["run", str(path), "--engine", "event", "--out", str(out_dir)])
        assert excinfo.value.code == 2
        assert "invalid choice: 'event'" in capsys.readouterr().err
        assert not out_dir.exists()

        spec = {**SMALL_CAMPAIGN, "campaign": {"engine": "event"}}
        path.write_text(json.dumps(spec), encoding="utf-8")
        assert main(["run", str(path), "--out", str(out_dir)]) == 2
        assert "campaign.engine" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_cli_families_json(self, capsys):
        from repro.sweep.__main__ import main
        from repro.sweep.registry import registry_payload

        assert main(["families", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == registry_payload()
        chain = payload["families"]["mt_chain"]
        assert set(chain) == {
            "reusable", "description", "params", "stimulus_kinds",
            "ensemble",
        }
        assert chain["params"]["threads"] == 4
        assert "uniform" in chain["stimulus_kinds"]

    def test_canonical_report_strips_placement_only(self):
        from repro.sweep.report import canonical_report

        spec = from_dict(SMALL_CAMPAIGN)
        serial = run_campaign(spec, workers=1)
        sharded = run_campaign(spec, workers=2)
        assert canonical_report(serial) == canonical_report(sharded)
        # Metrics differences must still show through.
        mutated = json.loads(json.dumps(serial))
        mutated["scenarios"][0]["metrics"]["cycles"] = -1
        assert canonical_report(mutated) != canonical_report(serial)


class TestSweepRegressionGate:
    """benchmarks/check_gate.py sweep — the campaign-level gate."""

    @staticmethod
    def _gate():
        import importlib.util

        spec = importlib.util.spec_from_file_location(
            "check_gate",
            pathlib.Path(__file__).parent.parent
            / "benchmarks" / "check_gate.py",
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    @staticmethod
    def _report(**overrides):
        base = {
            "campaign": {"name": "t", "seed": 1, "engine": None, "workers": 1},
            "summary": {},
            "scenarios": [
                {
                    "key": "mt_pipeline(threads=2)/uniform",
                    "status": "ok",
                    "metrics": {"cycles": 100, "utilization": 0.8},
                },
                {
                    "key": "processor(threads=2)/bursty[kind=bursty]",
                    "status": "ok",
                    "metrics": {"cycles": 500, "ipc": 1.5},
                },
            ],
        }
        base.update(overrides)
        return base

    def test_identical_reports_pass(self):
        gate = self._gate()
        lines, regressions = gate.compare("sweep", self._report(), self._report(), 0.25)
        assert not regressions
        assert any("✅" in line for line in lines)

    def test_cycle_rise_and_ipc_drop_regress(self):
        gate = self._gate()
        current = self._report()
        current["scenarios"][0]["metrics"]["cycles"] = 150   # +50% cycles
        current["scenarios"][1]["metrics"]["ipc"] = 1.0      # -33% ipc
        lines, regressions = gate.compare("sweep", self._report(), current, 0.25)
        assert len(regressions) == 2
        assert any("cycles" in msg for msg in regressions)
        assert any("ipc" in msg for msg in regressions)

    def test_vanished_gated_metric_regresses(self):
        gate = self._gate()
        current = self._report()
        del current["scenarios"][0]["metrics"]["cycles"]  # shape drift
        _lines, regressions = gate.compare("sweep", self._report(), current, 0.25)
        assert regressions and "missing from the current report" in regressions[0]

    def test_missing_or_failed_scenario_regresses(self):
        gate = self._gate()
        current = self._report()
        current["scenarios"][1]["status"] = "error"
        _lines, regressions = gate.compare("sweep", self._report(), current, 0.25)
        assert regressions and "missing or failed" in regressions[0]

    def test_new_scenario_not_gated(self):
        gate = self._gate()
        current = self._report()
        current["scenarios"].append({
            "key": "mt_ring(trips=2)/uniform",
            "status": "ok",
            "metrics": {"cycles": 10},
        })
        lines, regressions = gate.compare("sweep", self._report(), current, 0.25)
        assert not regressions
        assert any("not gated" in line for line in lines)

    def test_main_writes_delta_and_exit_codes(self, tmp_path, monkeypatch):
        gate = self._gate()
        base_path = tmp_path / "base.json"
        cur_path = tmp_path / "cur.json"
        base_path.write_text(json.dumps(self._report()), encoding="utf-8")
        current = self._report()
        cur_path.write_text(json.dumps(current), encoding="utf-8")
        monkeypatch.delenv("BENCH_TOLERANCE", raising=False)
        assert gate.main(["x", "sweep", str(base_path), str(cur_path)]) == 0
        assert (tmp_path / "sweep_regression_delta.md").exists()
        current["scenarios"][0]["metrics"]["cycles"] = 1000
        cur_path.write_text(json.dumps(current), encoding="utf-8")
        assert gate.main(["x", "sweep", str(base_path), str(cur_path)]) == 1
        assert gate.main(["x", "sweep", str(tmp_path / "nope.json"), str(cur_path)]) == 2
        assert gate.main(["x", "nope", str(base_path), str(cur_path)]) == 2

    def test_committed_baseline_matches_a_fresh_campaign_run(self):
        """The acceptance property: the example campaign reproduces the
        committed BENCH_sweep.json scenario metrics bit-for-bit."""
        if sys.version_info < (3, 11):
            pytest.skip("tomllib needs Python 3.11+")
        gate = self._gate()
        root = pathlib.Path(__file__).parent.parent
        baseline = json.loads(
            (root / "BENCH_sweep.json").read_text(encoding="utf-8")
        )
        spec = load_spec(root / "examples" / "campaigns" / "paper_sweep.toml")
        report = run_campaign(spec, workers=1)
        _lines, regressions = gate.compare("sweep", baseline, report, 0.0)
        assert not regressions
