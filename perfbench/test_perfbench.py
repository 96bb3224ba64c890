"""The benchmark's own tests: a smoke pass of every workload in both modes.

Run with ``python3 -m pytest perfbench -q`` from the root of a checkout.
Each test drives ``perfbench/run.py`` as a subprocess, exactly as the
benchmark is run, and reads the JSON object on its last line.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import END_TO_END_UNITS, PER_LAYER_UNITS, WORKLOADS  # noqa: E402
from service_mixed import PLANNED_REUSE_SHARE  # noqa: E402

SEED = 2014
#: Per-layer metrics that must repeat bit-for-bit across runs.
EXACT = (
    "kernel.cycles",
    "kernel.settle_iters_per_cycle",
    "kernel.fused_cycle_share",
    "kernel.restores",
    "build.count",
    "build.design_cache_hit_ratio",
    "spec.scenarios",
    "runner.units",
    "runner.ensemble_share",
    "runner.ensemble_fallbacks",
    "report.bytes",
    "store.hit_ratio",
    "store.entries",
    "jobs.retries",
    "jobs.timeouts",
    "jobs.respawns",
    "serve.errors",
    "sim_digest",
)


def bench(workload: str, *extra: str, trace: int = 0, seed: int = SEED, cwd=HERE.parent):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    digest = next(
        (part.split("=", 1)[1] for line in lines for part in line.split()
         if part.startswith("sim_digest=")),
        None,
    )
    return proc, result, digest


@pytest.fixture(scope="module")
def traced_twice():
    runs = {}
    for workload in WORKLOADS:
        runs[workload] = [bench(workload, trace=1) for _ in range(2)]
    return runs


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_untraced_smoke_emits_every_end_to_end_metric(workload):
    proc, result, digest = bench(workload)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == END_TO_END_UNITS
    assert metrics["ok_ratio"]["value"] == 1.0
    for name, cell in metrics.items():
        assert cell["value"] > 0, name
    assert digest is not None


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_is_exact_and_reconciled(workload, traced_twice):
    (proc_a, a, digest_a), (proc_b, b, digest_b) = traced_twice[workload]
    assert proc_a.returncode == 0, proc_a.stdout + proc_a.stderr
    assert proc_b.returncode == 0, proc_b.stdout + proc_b.stderr
    assert {k: v["unit"] for k, v in a["metrics"].items()} == PER_LAYER_UNITS
    for name in EXACT:
        assert a["metrics"][name]["value"] == b["metrics"][name]["value"], name
    assert digest_a == digest_b
    m = a["metrics"]
    layers = (
        "kernel.run_s", "kernel.snapshot_s", "kernel.restore_s", "build.s",
        "family.non_kernel_s", "spec.expand_s", "runner.plan_s", "runner.unit_s",
        "report.aggregate_s", "store.get_s", "store.put_s", "jobs.submit_s",
        "jobs.dispatch_s", "serve.http_s", "trace.unattributed_s",
    )
    total = sum(m[name]["value"] for name in layers)
    assert total == pytest.approx(m["trace.wall_s"]["value"], rel=1e-6)
    assert m["trace.overhead_ratio"]["value"] > 0


def test_traced_and_untraced_digests_agree(traced_twice):
    for workload in WORKLOADS:
        _proc, _result, untraced = bench(workload)
        assert untraced == traced_twice[workload][0][2], workload


def test_store_hit_ratio_is_the_planned_reuse_share(traced_twice):
    _proc, result, _digest = traced_twice["service_mixed"][0]
    assert result["metrics"]["store.hit_ratio"]["value"] == PLANNED_REUSE_SHARE
    assert result["metrics"]["runner.ensemble_fallbacks"]["value"] == 0


def test_each_workload_exercises_its_layers(traced_twice):
    kernel = traced_twice["kernel_long"][0][1]["metrics"]
    sweep = traced_twice["sweep_cold"][0][1]["metrics"]
    service = traced_twice["service_mixed"][0][1]["metrics"]
    assert kernel["kernel.run_s"]["value"] > 0 and kernel["family.run_s"]["value"] == 0
    assert sweep["family.non_kernel_s"]["value"] > 0 and sweep["store.get_s"]["value"] == 0
    assert service["serve.http_s"]["value"] > 0 and service["store.put_s"]["value"] > 0


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_wrong_reference_fails_the_checks(workload):
    proc, result, _digest = bench(workload, "--wrong-reference")
    assert proc.returncode != 0
    assert result["correct"] is False
    assert result["metrics"]["ok_ratio"]["value"] < 1.0


def test_outside_a_checkout_it_fails_without_a_result(tmp_path):
    bench_dir = tmp_path / "perfbench"
    bench_dir.mkdir()
    for path in HERE.glob("*.py"):
        (bench_dir / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kernel_long", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_benchmark_json_names_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS
