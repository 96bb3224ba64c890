#!/usr/bin/env python3
"""The repository's benchmark: one workload, one seed, one JSON line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload kernel_long --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload sweep_cold --trace 1      # the traced ledger run
    python3 perfbench/run.py --workload service_mixed --smoke     # short pass

``--trace 0`` measures the end-to-end metrics: set-up is repeated and
its median taken, then passes run until ``--seconds`` have gone by and
at least :data:`MIN_SAMPLES` latency samples exist.  ``--trace 1`` runs
a fixed amount of work twice — untraced, then with every layer's entry
points wrapped — and reports the per-layer ledger.  Outputs are checked
either way.  The last line of standard output is the result object;
the exit code is 0 only when every check passed.  See README.md.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from typing import Any  # noqa: E402

from common import (  # noqa: E402
    RESULTS_DIR,
    ROOT,
    Checks,
    HostClock,
    children_peak_rss_mb,
    digest,
    digest48,
    peak_rss_mb,
    percentile,
)

#: workload name -> (module, class)
WORKLOADS = {
    "kernel_long": ("kernel_long", "KernelLong"),
    "sweep_cold": ("sweep_cold", "SweepCold"),
    "service_mixed": ("service_mixed", "ServiceMixed"),
}
#: Set-ups per untraced run; ``setup_s`` reports their median.
SETUP_REPEATS = 3
#: Latency samples an untraced run collects at least; ``peak_rss_mb`` is
#: the process's high-water mark when the run reaches this many, so that
#: it measures the same amount of work however fast the host is.
MIN_SAMPLES = 100
#: The timed region stops here even if MIN_SAMPLES is not reached.
MAX_TIMED_S = 100.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "sim_cycles_per_s": "cycles/s",
    "req_p50_ms": "ms",
    "req_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}
PER_LAYER_UNITS = {
    "kernel.run_s": "s",
    "kernel.cycles": "count",
    "kernel.settle_iters_per_cycle": "ratio",
    "kernel.fused_cycle_share": "ratio",
    "kernel.snapshot_s": "s",
    "kernel.restore_s": "s",
    "kernel.restores": "count",
    "build.s": "s",
    "build.count": "count",
    "build.design_cache_hit_ratio": "ratio",
    "family.run_s": "s",
    "family.non_kernel_s": "s",
    "spec.expand_s": "s",
    "spec.scenarios": "count",
    "runner.plan_s": "s",
    "runner.unit_s": "s",
    "runner.units": "count",
    "runner.ensemble_share": "ratio",
    "runner.ensemble_fallbacks": "count",
    "report.aggregate_s": "s",
    "report.bytes": "bytes",
    "store.get_s": "s",
    "store.put_s": "s",
    "store.hit_ratio": "ratio",
    "store.entries": "count",
    "jobs.submit_s": "s",
    "jobs.dispatch_s": "s",
    "jobs.wait_s": "s",
    "jobs.retries": "count",
    "jobs.timeouts": "count",
    "jobs.respawns": "count",
    "serve.http_s": "s",
    "serve.bytes": "bytes",
    "serve.errors": "count",
    "serve.worker_peak_rss_mb": "MB",
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.unattributed_share": "ratio",
    "trace.overhead_ratio": "ratio",
    "sim_digest": "hash48",
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=2014)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="one set-up, no minimum sample count: a short pass for tests",
    )
    parser.add_argument(
        "--wrong-reference", action="store_true",
        help="corrupt one reference value (the checks must then fail)",
    )
    return parser.parse_args(argv)


def load_workload(args: argparse.Namespace) -> Any:
    """Import the program and make the workload."""
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        raise SystemExit(f"error: the program's sources are missing ({src / 'repro'})")
    sys.path.insert(0, str(src))
    importlib.import_module("repro.sweep")
    importlib.import_module("repro.serve")
    module_name, class_name = WORKLOADS[args.workload]
    cls = getattr(importlib.import_module(module_name), class_name)
    return cls(args.seed, wrong_reference=args.wrong_reference)


def measure(args: argparse.Namespace, workload: Any) -> tuple[dict[str, float], Checks, str, str]:
    """The untraced run: end-to-end metrics."""
    import_s = time.perf_counter() - PROCESS_START
    setups = []
    for i in range(1 if args.smoke else SETUP_REPEATS):
        if i:
            workload.close()
        t0 = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - t0)
    gc.collect()
    checks = Checks()
    passes = []
    spans = []
    rss_mb = None
    clock = HostClock()
    t_region = time.perf_counter()
    while True:
        clock.tick()
        t0 = time.perf_counter()
        passes.append(workload.run_pass(checks))
        spans.append((t0, time.perf_counter()))
        elapsed = time.perf_counter() - t_region
        samples = sum(len(p["latencies"]) for p in passes)
        if rss_mb is None and samples >= MIN_SAMPLES:
            rss_mb = peak_rss_mb()
        if (
            elapsed >= args.seconds
            and (args.smoke or samples >= MIN_SAMPLES)
            and len(passes) >= workload.digest_passes
        ):
            break
        if elapsed >= MAX_TIMED_S:
            break
    clock.calibrate()
    if rss_mb is None:
        rss_mb = peak_rss_mb()
    workload.finish(checks)
    sim_digest = digest(workload.digest_stats)
    workload.close()  # reaps the pool workers, for their peak memory
    # Each pass's timings are divided by the host's slowdown around it.
    slowdowns = [clock.slowdown(t0, t1) for t0, t1 in spans]
    latencies_ms = [
        s * 1000.0 / slow for p, slow in zip(passes, slowdowns) for s in p["latencies"]
    ]
    cycles = sum(p["cycles"] for p in passes)
    # Set-up ran just before the timed region: the run's mean slowdown
    # stands for the host's speed during it.
    metrics = {
        "setup_s": (import_s + statistics.median(setups)) / clock.mean_slowdown,
        "sim_cycles_per_s": cycles / sum(p["seconds"] / slow for p, slow in zip(passes, slowdowns)),
        "req_p50_ms": percentile(latencies_ms, 50),
        "req_p90_ms": percentile(latencies_ms, 90),
        "peak_rss_mb": max(rss_mb, children_peak_rss_mb()),
        "ok_ratio": checks.ok_ratio,
    }
    wall_ms = [s * 1000.0 for p in passes for s in p["latencies"]]
    note = (
        f"passes={len(passes)} latency_samples={len(latencies_ms)} timed_s={elapsed:.2f} "
        f"import_s={import_s:.3f} setups_s={[round(s, 3) for s in setups]} "
        f"mean_host_slowdown={clock.mean_slowdown:.4f} "
        f"wall_sim_cycles_per_s={cycles / sum(p['seconds'] for p in passes):.6g} "
        f"wall_req_p50_ms={percentile(wall_ms, 50):.6g} "
        f"wall_req_p90_ms={percentile(wall_ms, 90):.6g}"
    )
    return metrics, checks, sim_digest, note


def trace(args: argparse.Namespace, workload: Any) -> tuple[dict[str, float], Checks, str, str]:
    """The traced run: the per-layer ledger over a fixed amount of work."""
    from ledger import Probe

    passes = workload.traced_passes

    def fixed_work(probe: Probe | None) -> tuple[float, float, Checks, str]:
        workload.probe = probe
        checks = Checks()
        workload.close()
        t0 = time.perf_counter()
        workload.setup()
        if probe is not None:
            probe.mark_stream_start()
        for _ in range(passes):
            workload.run_pass(checks)
        t1 = time.perf_counter()
        return t0, t1, checks, digest(workload.digest_stats)

    fixed_work(None)  # first-use costs of the process, not of the work
    u0, u1, _checks, untraced_digest = fixed_work(None)
    probe = Probe()
    probe.install_kernel()
    probe.install_sweep()
    try:
        t0, t1, checks, sim_digest = fixed_work(probe)
    finally:
        probe.unpatch()
        workload.probe = None
    metrics, ledger = probe.metrics(t0, t1)
    if sim_digest != untraced_digest:
        checks.fail_run("tracing changed the simulated statistics")
    if not ledger["reconciled"]:
        checks.fail_run("ledger self times plus unattributed time do not add up to the wall time")
    profile = workload.profile_pass()
    workload.finish(checks)
    workload.close()  # reaps the pool workers, for their peak memory
    cycles = profile["cycles"] if profile else 0
    metrics.update({
        "kernel.settle_iters_per_cycle": profile["iterations"] / cycles if cycles else 0.0,
        "kernel.fused_cycle_share": profile["fused"] / cycles if cycles else 0.0,
        "trace.overhead_ratio": (t1 - t0) / (u1 - u0),
        "serve.worker_peak_rss_mb": children_peak_rss_mb(),
        "sim_digest": digest48(sim_digest),
    })
    out = RESULTS_DIR / f"trace-{args.workload}-{args.seed}.jsonl"
    probe.ledger.write(out, {"workload": args.workload, "seed": args.seed,
                             "sim_digest": sim_digest, "metrics": metrics, "ledger": ledger})
    note = f"passes={passes} traced_wall_s={t1 - t0:.3f} untraced_wall_s={u1 - u0:.3f} spans={out}"
    return metrics, checks, sim_digest, note


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    run = trace if args.trace else measure
    workload = load_workload(args)
    try:
        metrics, checks, sim_digest, note = run(args, workload)
    finally:
        workload.close()
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    missing = set(units) ^ set(metrics)
    if missing:
        raise SystemExit(f"error: metric set mismatch: {sorted(missing)}")
    for failure in checks.failures:
        print(f"# check failed: {failure}")
    print(f"# {args.workload} seed={args.seed} trace={args.trace} {note} sim_digest={sim_digest}")
    result = {
        "correct": checks.correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if checks.correct else 1


if __name__ == "__main__":
    sys.exit(main())
