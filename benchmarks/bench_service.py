"""Load harness for the campaign service (``python -m repro.serve``).

Not a paper experiment — this measures and asserts the service-level
contract of the jobs API end to end, over a real server process:

1. **Reference run** — the campaign spec executes through the CLI path
   (``run_campaign``) in this process; its canonical report is the
   parity oracle.
2. **Cold pass** — one HTTP client submits the campaign to a freshly
   started ``python -m repro.serve`` subprocess and *follows its
   ``/events`` stream*: one scenario event per scenario is required
   before the report is read.  Every scenario simulates (cache cold),
   the report must equal the reference modulo placement/timestamps,
   and a ``/metrics`` scrape must expose the required series.
3. **Warm passes** — N concurrent clients resubmit the identical
   campaign R times each.  Every one of those jobs must complete with
   100% dedup hits (zero simulated scenarios) and a bit-identical
   canonical report; their submit→report latencies give the p50/p99
   while a sampler thread records the queue-depth / pool-occupancy
   gauge envelope from ``/metrics``.

Results land in ``benchmarks/results/BENCH_service.json`` (plus a
markdown latency table next to it) so CI can upload them as artifacts;
the committed repo-root ``BENCH_service.json`` is the reference
trajectory (see docs/service.md for the re-baseline recipe).  Set
``BENCH_SMOKE=1`` to shrink the client count and repeats.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import copy
import json
import os
import pathlib
import platform
import re
import statistics
import subprocess
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.serve.client import ServiceClient  # noqa: E402
from repro.sweep.report import canonical_report  # noqa: E402
from repro.sweep.runner import run_campaign  # noqa: E402
from repro.sweep.spec import from_dict  # noqa: E402

SMOKE = os.environ.get("BENCH_SMOKE", "") not in ("", "0")
RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "results"
DEFAULT_SPEC = REPO_ROOT / "examples" / "campaigns" / "paper_sweep.toml"

_LISTEN_RE = re.compile(r"listening on http://([\w.\-]+):(\d+)")


def load_spec_mapping(path: pathlib.Path) -> dict:
    """The raw spec mapping — what an HTTP client POSTs as JSON."""
    if path.suffix.lower() == ".toml":
        import tomllib

        with path.open("rb") as fh:
            return tomllib.load(fh)
    return json.loads(path.read_text(encoding="utf-8"))


def start_server(workers: int) -> tuple[subprocess.Popen, str]:
    """Spawn ``python -m repro.serve`` and return (process, base_url)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.serve", "--port", "0",
         "--workers", str(workers), "--memory-store"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, env=env,
    )
    deadline = time.monotonic() + 30
    while True:
        line = process.stdout.readline()
        match = _LISTEN_RE.search(line or "")
        if match:
            return process, f"http://{match.group(1)}:{match.group(2)}"
        if process.poll() is not None or time.monotonic() > deadline:
            raise RuntimeError(f"server failed to start: {line!r}")


def percentile(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, round(q * (len(ordered) - 1)))
    return ordered[index]


def timed_run(client: ServiceClient, spec: dict) -> tuple[float, dict]:
    start = time.perf_counter()
    report = client.run(spec, timeout=600)
    return time.perf_counter() - start, report


#: Series every scrape of ``GET /metrics`` must expose (the contract
#: the CI service-smoke job asserts; see docs/observability.md).
REQUIRED_METRICS = (
    "repro_jobs_submitted_total",
    "repro_jobs_completed_total",
    "repro_job_duration_seconds_bucket",
    "repro_scenario_duration_seconds_bucket",
    "repro_scenarios_completed_total",
    "repro_dedup_lookups_total",
    "repro_queue_depth",
    "repro_pool_inflight",
    "repro_pool_workers",
    "repro_pool_workers_alive",
    # Resilience series (PR 10): present from the first scrape even
    # when nothing has timed out / retried / been rejected yet.
    "repro_scenario_timeouts_total",
    "repro_scenario_retries_total",
    "repro_jobs_rejected_total",
    "repro_drain_seconds",
)


def parse_gauge(text: str, name: str) -> float:
    """The value of an unlabelled gauge in a Prometheus text scrape."""
    for line in text.splitlines():
        if line.startswith(name + " "):
            return float(line.split()[1])
    raise AssertionError(f"metric {name} missing from scrape")


class GaugeSampler:
    """Polls ``/metrics`` in a thread, folding gauge max/mean values.

    Queue depth and pool occupancy are point-in-time gauges — a single
    scrape after the storm says nothing, so the load phase is sampled
    while it runs and ``BENCH_service.json`` records the envelope.
    """

    def __init__(self, client: ServiceClient, interval_s: float = 0.05):
        import threading

        self.client = client
        self.interval_s = interval_s
        self.samples: dict[str, list[float]] = {
            "repro_queue_depth": [],
            "repro_pool_inflight": [],
            "repro_pool_workers_alive": [],
        }
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        while not self._stop.is_set():
            try:
                text = self.client.metrics()
                for name, values in self.samples.items():
                    values.append(parse_gauge(text, name))
            except Exception:  # server busy/teardown: skip the sample
                pass
            self._stop.wait(self.interval_s)

    def __enter__(self) -> "GaugeSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join(timeout=5)

    def summary(self) -> dict:
        out = {}
        for name, values in self.samples.items():
            key = name.removeprefix("repro_")
            out[key] = {
                "samples": len(values),
                "max": max(values) if values else None,
                "mean": (
                    round(statistics.mean(values), 3) if values else None
                ),
            }
        return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spec", type=pathlib.Path, default=DEFAULT_SPEC)
    parser.add_argument("--clients", type=int, default=2 if SMOKE else 4)
    parser.add_argument("--repeats", type=int, default=2 if SMOKE else 5,
                        help="warm submissions per client")
    parser.add_argument("--workers", type=int, default=2,
                        help="service worker processes")
    parser.add_argument("--out", type=pathlib.Path,
                        default=RESULTS_DIR / "BENCH_service.json")
    args = parser.parse_args(argv)

    spec_mapping = load_spec_mapping(args.spec)
    scenario_count = len(from_dict(spec_mapping).scenarios)
    print(f"campaign: {args.spec.name} ({scenario_count} scenarios), "
          f"{args.clients} client(s) x {args.repeats} warm repeat(s), "
          f"{args.workers} worker(s)")

    reference = canonical_report(run_campaign(from_dict(spec_mapping)))

    process, base_url = start_server(args.workers)
    client = ServiceClient(base_url, timeout=60)
    try:
        client.wait_ready()

        # Cold pass doubles as the streamed-progress check: follow the
        # job's /events stream and require one scenario event per
        # scenario (every key covered) before reading the report.
        start = time.perf_counter()
        cold_id = client.submit(spec_mapping)["id"]
        events = list(client.events(cold_id, timeout=600))
        cold_s = time.perf_counter() - start
        scenario_events = [e for e in events if e["event"] == "scenario"]
        assert len(scenario_events) == scenario_count, (
            f"expected {scenario_count} scenario events, "
            f"got {len(scenario_events)}"
        )
        assert len({e["key"] for e in scenario_events}) == scenario_count, (
            "scenario events do not cover every scenario key"
        )
        assert events[-1] == {
            **events[-1], "event": "job", "state": "done",
        }, f"stream did not end with a terminal job event: {events[-1]}"
        cold_report = client.report(cold_id, wait=60)
        assert "dedup_hits" not in cold_report["summary"], (
            "cold pass must simulate every scenario"
        )
        assert canonical_report(cold_report) == reference, (
            "HTTP report diverged from the CLI reference"
        )
        print(f"cold submit->events->report: {cold_s * 1000:.1f} ms "
              f"({len(events)} events streamed)")

        # /metrics contract: valid exposition with the required series.
        scrape = client.metrics()
        for series in REQUIRED_METRICS:
            assert series in scrape, f"/metrics is missing {series}"
        assert parse_gauge(scrape, "repro_pool_workers") == args.workers

        def one_client(client_index: int) -> list[float]:
            latencies = []
            with ServiceClient(base_url, timeout=60) as own:
                for _ in range(args.repeats):
                    elapsed, report = timed_run(own, spec_mapping)
                    summary = report["summary"]
                    assert summary.get("dedup_hits") == scenario_count, (
                        f"warm pass simulated scenarios: {summary}"
                    )
                    assert canonical_report(report) == reference
                    latencies.append(elapsed)
            return latencies

        with GaugeSampler(client) as sampler:
            with concurrent.futures.ThreadPoolExecutor(args.clients) as pool:
                warm = [
                    s for lat in pool.map(one_client, range(args.clients))
                    for s in lat
                ]
        gauges = sampler.summary()

        health = client.healthz()
        # Service-lifetime dedup accounting: the cold pass misses every
        # scenario once, and each warm submission hits all of them.
        dedup = health["dedup"]
        expect_misses = scenario_count
        expect_hits = args.clients * args.repeats * scenario_count
        assert dedup["misses"] == expect_misses, (
            f"expected {expect_misses} cold misses, healthz says {dedup}"
        )
        assert dedup["hits"] == expect_hits, (
            f"expected {expect_hits} warm hits, healthz says {dedup}"
        )
        assert dedup["store_entries"] == scenario_count, (
            f"store should hold one row per scenario: {dedup}"
        )

        # Graceful-drain contract: SIGTERM while a job is mid-flight
        # must finish that job, deliver the terminal event on the
        # already-open /events stream, and exit 0.  The bumped seed
        # defeats dedup so the job really simulates.
        drain_spec = copy.deepcopy(spec_mapping)
        campaign = drain_spec.setdefault("campaign", {})
        campaign["seed"] = int(campaign.get("seed", 0)) + 1
        drain_id = client.submit(drain_spec)["id"]
        stream = client.events(drain_id, timeout=600)
        first = next(stream)  # stream established before the SIGTERM
        drain_start = time.perf_counter()
        process.terminate()
        drain_events = [first, *stream]
        drain_s = time.perf_counter() - drain_start
        last = drain_events[-1]
        assert last.get("event") == "job" and last.get("state") == "done", (
            f"drain did not deliver a terminal event: {last}"
        )
        rc = process.wait(timeout=60)
        assert rc == 0, f"drained server exited {rc}"
        tail = process.stdout.read() or ""
        assert "drained in" in tail, (
            f"server did not report a graceful drain: {tail!r}"
        )
        print(f"graceful drain: job finished and server exited 0 "
              f"in {drain_s * 1000:.1f} ms")
    finally:
        client.close()
        if process.poll() is None:
            process.terminate()
        process.wait(timeout=15)

    warm_ms = [s * 1000 for s in warm]
    p50, p99 = percentile(warm_ms, 0.50), percentile(warm_ms, 0.99)
    print(f"warm submit->report over {len(warm_ms)} requests: "
          f"p50 {p50:.1f} ms, p99 {p99:.1f} ms "
          f"(speedup x{cold_s * 1000 / p50:.1f} vs cold)")

    results = {
        "bench": "service",
        "smoke": SMOKE,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "spec": args.spec.name,
        "scenarios": scenario_count,
        "clients": args.clients,
        "repeats": args.repeats,
        "workers": args.workers,
        "cold_ms": round(cold_s * 1000, 2),
        "warm_requests": len(warm_ms),
        "warm_p50_ms": round(p50, 2),
        "warm_p99_ms": round(p99, 2),
        "warm_mean_ms": round(statistics.mean(warm_ms), 2),
        "dedup_rate": 1.0,
        "dedup": health["dedup"],
        "store": health["store"],
        # SIGTERM-to-terminal-event latency of the drain check.
        "drain_ms": round(drain_s * 1000, 2),
        # /metrics gauge envelope sampled during the warm storm (max /
        # mean of each point-in-time series; see GaugeSampler).
        "gauges": gauges,
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(
        json.dumps(results, indent=2) + "\n", encoding="utf-8"
    )

    table = args.out.with_name(args.out.stem + "_latency.md")
    table.write_text(
        "| pass | requests | p50 (ms) | p99 (ms) |\n"
        "|---|---:|---:|---:|\n"
        f"| cold | 1 | {results['cold_ms']} | {results['cold_ms']} |\n"
        f"| warm (dedup) | {len(warm_ms)} | {results['warm_p50_ms']} "
        f"| {results['warm_p99_ms']} |\n",
        encoding="utf-8",
    )
    print(f"wrote {args.out} and {table}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
