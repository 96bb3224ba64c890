"""``sweep_cold``: the committed paper sweep through a fresh inline service.

Every pass submits the 48-scenario paper sweep
(``examples/campaigns/paper_sweep.toml``, seven families, ensemble
lanes, fuzz forks, faults) to a new ``JobService(workers=0)`` with no
result store, so the design cache starts empty and every layer of a
scenario's path — planning, build and codegen, stimulus, kernel,
metric extraction, aggregation — runs in this process.  The seed
replaces the campaign seed, which every scenario seed derives from.

Checks: every pass must match a serial, ensemble-off, cache-off run of
the same scenarios made outside the timed region; at the campaign's own
seed (2014) the rows must also equal the committed ``BENCH_sweep.json``.
"""

from __future__ import annotations

import json
import time
import tomllib
from typing import Any

from common import ROOT, Checks

SPEC_PATH = ROOT / "examples" / "campaigns" / "paper_sweep.toml"
BASELINE_PATH = ROOT / "BENCH_sweep.json"
#: The campaign seed committed in the spec and in ``BENCH_sweep.json``.
DEFAULT_SEED = 2014


def _metrics_by_key(rows: list[dict[str, Any]]) -> dict[str, Any]:
    return {row["key"]: (row.get("status"), row.get("metrics")) for row in rows}


class SweepCold:
    """The ``sweep_cold`` workload (see the module docstring)."""

    name = "sweep_cold"
    #: Passes whose simulated statistics make up ``digest_stats``.
    digest_passes = 1
    #: Passes of the traced run's fixed work, after one set-up.
    traced_passes = 2

    def __init__(self, seed: int, wrong_reference: bool = False):
        self.seed = seed
        self.wrong_reference = wrong_reference
        self.spec = None
        self.passes: list[dict[str, Any]] = []
        #: A ledger probe (traced runs only) that watches every service.
        self.probe = None

    def setup(self) -> None:
        """Load and expand the spec, then run one warm-up pass."""
        from repro.sweep.spec import from_dict

        data = tomllib.loads(SPEC_PATH.read_text())
        data["campaign"]["seed"] = self.seed
        self.spec = from_dict(data)
        self.passes = []
        self.digest_stats = None
        self._submit(self.spec)

    def _submit(self, spec, **service_options) -> tuple[dict[str, Any], float, list[dict]]:
        from repro.sweep import JobService

        with JobService(workers=0, **service_options) as service:
            if self.probe is not None:
                self.probe.watch_service(service)
            t0 = time.perf_counter()
            job_id = service.submit(spec)
            report = service.result(job_id)
            wall = time.perf_counter() - t0
            if self.probe is not None:
                self.probe.note_job(service, job_id, wall, report)
            trace = service.trace(job_id)
        return report, wall, trace

    def run_pass(self, checks: Checks) -> dict[str, Any]:
        """One pass: submit the sweep, wait for the report."""
        report, wall, trace = self._submit(self.spec)
        rows = report["scenarios"]
        self.passes.append(_metrics_by_key(rows))
        latencies = [span["duration_s"] for span in trace if span["name"] == "unit"]
        stats = [row.get("metrics") for row in rows]
        if self.digest_stats is None:
            self.digest_stats = stats
        elif stats != self.digest_stats:
            checks.fail_run("sweep_cold: a pass's rows differ from the first pass's")
        return {
            "cycles": report["summary"]["total_cycles"],
            "seconds": wall,
            "latencies": latencies,
        }

    def profile_pass(self) -> dict[str, int]:
        """One pass with the kernel profiler attached to every scenario."""
        report, _wall, _trace = self._submit(self.spec, profile=True)
        totals = {"iterations": 0, "cycles": 0, "fused": 0}
        for row in report["scenarios"]:
            profile = row.get("profile")
            if profile:
                totals["iterations"] += profile["settle"]["iterations"]
                totals["cycles"] += profile["cycles"]["total"]
                totals["fused"] += profile["cycles"]["fused"]
        return totals

    def reference(self) -> dict[str, Any]:
        """Serial, ensemble-off, cache-off rows for every scenario."""
        from repro.sweep.runner import execute_scenario

        rows = [execute_scenario(s, self.spec.engine, cache=None) for s in self.spec.scenarios]
        return _metrics_by_key(rows)

    def finish(self, checks: Checks) -> None:
        """Check every pass's scenarios against the reference run(s)."""
        references = [("serial cache-off reference", self.reference())]
        if self.seed == DEFAULT_SEED:
            committed = json.loads(BASELINE_PATH.read_text())
            references.append(("BENCH_sweep.json", _metrics_by_key(committed["scenarios"])))
        if self.wrong_reference:
            _name, ref = references[0]
            key = next(iter(ref))
            status, metrics = ref[key]
            ref[key] = (status, {**metrics, "cycles": metrics["cycles"] + 1})
        for rows in self.passes:
            for key, row in rows.items():
                bad = [name for name, ref in references if ref.get(key) != row]
                ok = row[0] == "ok" and not bad
                checks.record(ok, f"{key}: status {row[0]}, differs from {', '.join(bad) or '-'}")

    def close(self) -> None:
        self.passes = []
