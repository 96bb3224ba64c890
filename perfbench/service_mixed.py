"""``service_mixed``: a closed-loop client against the in-process HTTP service.

Set-up starts ``repro.serve`` over ``JobService(workers=2, store=<in
memory>)`` on a free localhost port and sends a few warm-up requests,
so both pool workers have forked and built their designs.  Then one
client sends a seeded stream of small campaigns, each request waiting
for its report before the next is sent (a closed loop, one client).

Every request holds seeded-payload scenarios of three families —
``mt_pipeline``, ``mt_chain`` and ``md5`` — whose designs the service
routes to both workers.  A fixed share of each request's scenarios was
stored by an earlier request (*reads*: dedup lookup, row served from
the store); the rest are new (*writes*: pooled simulation on a warm
design, then a store put).  The share is :data:`PLANNED_REUSE_SHARE`.

Checks: every request must answer 2xx with every row ``ok``, exactly
the planned rows served from the store, and every row equal to the
inline (``workers=0``) result for the same scenario key, computed after
the timed region.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Any

from common import Checks

#: Per family: (params, stimulus, metrics, reads per request, writes per request).
FAMILIES: dict[str, tuple[dict, dict, dict, int, int]] = {
    "mt_pipeline": (
        {"threads": 4, "n_stages": 3, "meb": "full"},
        {"kind": "uniform", "payload": "seeded", "items_per_thread": 24},
        {"warmup": 8, "drain": 4},
        1,
        2,
    ),
    "mt_chain": (
        {"threads": 4, "n_funcs": 3},
        {"kind": "uniform", "payload": "seeded", "items_per_thread": 12},
        {"warmup": 8, "drain": 4},
        1,
        2,
    ),
    "md5": (
        {"threads": 4, "meb": "reduced", "round_stages": 1},
        {"messages": 4, "size": 24},
        {},
        1,
        1,
    ),
}
READS = sum(f[3] for f in FAMILIES.values())
WRITES = sum(f[4] for f in FAMILIES.values())
PLANNED_REUSE_SHARE = READS / (READS + WRITES)
WARMUP_REQUESTS = 3
#: Requests whose rows make up the workload's simulated-statistics digest
#: (and the traced run's fixed work).
DIGEST_REQUESTS = 40
#: Longest a single request may take before the client gives up.
REQUEST_TIMEOUT_S = 60.0


class RequestStream:
    """The seeded request generator: salts to reuse and salts never seen."""

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(seed)
        self.next_salt = {family: 0 for family in FAMILIES}
        self.stored: dict[str, list[int]] = {family: [] for family in FAMILIES}
        self.sent = 0

    def _new(self, family: str) -> int:
        salt = self.next_salt[family]
        self.next_salt[family] = salt + 1
        return salt

    def next_request(self, warmup: bool = False) -> tuple[dict, dict[str, list[int]]]:
        """The next campaign, plus the salts it should find in the store."""
        grid: dict[str, list[int]] = {}
        reads: dict[str, list[int]] = {}
        for family, (_p, _s, _m, n_reads, n_writes) in FAMILIES.items():
            reads[family] = [] if warmup else self.rng.sample(self.stored[family], n_reads)
            writes = [self._new(family) for _ in range(n_writes if not warmup else 2)]
            grid[family] = reads[family] + writes
            self.stored[family].extend(writes)
        self.sent += 1
        return self.spec(f"mixed-{self.sent}", grid), reads

    def spec(self, name: str, salts: dict[str, list[int]]) -> dict[str, Any]:
        scenarios = []
        for family, (params, stimulus, metrics, _r, _w) in FAMILIES.items():
            if salts.get(family):
                scenarios.append({
                    "family": family,
                    "params": dict(params),
                    "stimulus": dict(stimulus),
                    "metrics": dict(metrics),
                    "grid": {"stimulus.payload_salt": list(salts[family])},
                })
        return {"campaign": {"name": name, "seed": self.seed}, "scenarios": scenarios}


class ServiceMixed:
    """The ``service_mixed`` workload (see the module docstring)."""

    name = "service_mixed"
    #: Passes whose simulated statistics make up ``digest_stats``.
    digest_passes = DIGEST_REQUESTS
    #: Passes of the traced run's fixed work, after one set-up.
    traced_passes = DIGEST_REQUESTS

    def __init__(self, seed: int, wrong_reference: bool = False):
        self.seed = seed
        self.wrong_reference = wrong_reference
        self.probe = None
        self.service = self.server = self.thread = self.client = None

    def setup(self) -> None:
        """Start the service and its server, then send the warm-up requests."""
        from repro.serve import ServiceClient, make_server
        from repro.sweep import JobService, ResultStore

        self.service = JobService(workers=2, store=ResultStore())
        self.server = make_server(self.service)
        self.thread = threading.Thread(
            target=self.server.serve_forever, name="bench-http", daemon=True
        )
        self.thread.start()
        host, port = self.server.server_address[:2]
        self.client = ServiceClient(f"http://{host}:{port}", timeout=REQUEST_TIMEOUT_S)
        if self.probe is not None:
            self.probe.watch_service(self.service)
            self.probe.watch_client(self.client)
        self.stream = RequestStream(self.seed)
        self.requests: list[dict[str, Any]] = []
        self.digest_stats: list[Any] = []
        for _ in range(WARMUP_REQUESTS):
            spec, _reads = self.stream.next_request(warmup=True)
            self._send(spec)

    def _send(self, spec: dict) -> tuple[dict | None, float, str | None]:
        """Submit one campaign and wait for its report (the timed request)."""
        from repro.serve import ServiceError

        t0 = time.perf_counter()
        try:
            job_id = self.client.submit(spec)["id"]
            while True:
                try:
                    report = self.client.report(job_id, wait=REQUEST_TIMEOUT_S)
                    break
                except ServiceError as exc:
                    if exc.status != 409 or time.perf_counter() - t0 > REQUEST_TIMEOUT_S:
                        raise
        except (ServiceError, OSError) as exc:
            return None, time.perf_counter() - t0, f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        if self.probe is not None:
            self.probe.note_job(self.service, job_id, wall, report)
        return report, wall, None

    def run_pass(self, checks: Checks) -> dict[str, Any]:
        """One request of the stream."""
        spec, reads = self.stream.next_request()
        report, wall, error = self._send(spec)
        rows = report["scenarios"] if report is not None else []
        problem = error
        if problem is None:
            planned = {(family, salt) for family, salts in reads.items() for salt in salts}
            cached = {
                (row["family"], row["stimulus"]["payload_salt"])
                for row in rows
                if row.get("cached")
            }
            if any(row.get("status") != "ok" for row in rows):
                problem = "a row is not ok"
            elif cached != planned:
                problem = f"served from the store: {sorted(cached)}, planned {sorted(planned)}"
        self.requests.append({"rows": rows, "problem": problem})
        if len(self.requests) <= DIGEST_REQUESTS:
            self.digest_stats.append(
                [(row["key"], bool(row.get("cached")), row.get("metrics")) for row in rows]
            )
        cycles = sum(
            int((row.get("metrics") or {}).get("cycles", 0))
            for row in rows
            if row.get("status") == "ok" and not row.get("cached")
        )
        # A failed or refused request misses every latency limit.
        latency = wall if error is None else max(wall, REQUEST_TIMEOUT_S)
        return {"cycles": cycles, "seconds": wall, "latencies": [latency]}

    def profile_pass(self) -> None:
        """No kernel profile: the kernel runs inside the pool workers."""
        return None

    def reference(self) -> dict[str, Any]:
        """Inline (``workers=0``) rows for every scenario the stream sent."""
        from repro.sweep import JobService

        salts = {family: sorted(set(s)) for family, s in self.stream.stored.items()}
        spec = self.stream.spec("mixed-reference", salts)
        with JobService(workers=0) as service:
            report = service.result(service.submit(spec))
        return {row["key"]: (row.get("status"), row.get("metrics")) for row in report["scenarios"]}

    def finish(self, checks: Checks) -> None:
        """Check every request against the inline reference."""
        reference = self.reference()
        if self.wrong_reference:
            key = next(iter(reference))
            status, metrics = reference[key]
            reference[key] = (status, {**metrics, "cycles": metrics["cycles"] + 1})
        for i, request in enumerate(self.requests):
            problem = request["problem"]
            if problem is None:
                for row in request["rows"]:
                    if reference.get(row["key"]) != (row.get("status"), row.get("metrics")):
                        problem = f"{row['key']} differs from the inline result"
                        break
            checks.record(problem is None, f"request {i}: {problem}")

    def close(self) -> None:
        """Stop the server and the service (joins the pool workers)."""
        if self.server is not None:
            self.server.shutdown()
            self.server.server_close()
            self.thread.join(timeout=10)
        if self.service is not None:
            self.service.close()
        self.service = self.server = self.thread = self.client = None

