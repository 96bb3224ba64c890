"""Batch simulation campaigns: declarative sweeps over the design space.

The paper's evaluation is a *campaign* — one elastic SMT design family
swept over thread counts, buffer depths, MEB flavors and stimulus
patterns.  This package is the layer that runs such campaigns:

* :mod:`repro.sweep.spec` — declarative scenario specs (design family ×
  parameter grid × stimulus × metrics), loadable from a dict, JSON, or
  TOML (Python 3.11+); structured :class:`SpecError` diagnostics.
* :mod:`repro.sweep.registry` / :mod:`repro.sweep.families` — the
  design-family registry, absorbing the workload factories previously
  duplicated across the ``benchmarks/`` scripts.
* :mod:`repro.sweep.jobs` — **the programmatic entry point**: the
  transport-agnostic jobs API (submit/status/result/cancel) backed by
  an async job queue, a persistent worker pool whose design caches
  stay warm across jobs (warm-set placement), and result-store dedup.  The CLI and the
  :mod:`repro.serve` HTTP front end are both thin clients of it.
* :mod:`repro.sweep.runner` — scenario execution: deterministic
  scenario seeds and per-worker design reuse (built once, rewound
  between scenarios via the kernel's columnar
  :meth:`~repro.kernel.simulator.Simulator.snapshot`/``restore``).
* :mod:`repro.sweep.store` — the persisted result store (dedup by
  canonical scenario key).
* :mod:`repro.sweep.report` — aggregation of throughput and cost-model
  numbers into one JSON/markdown campaign report.

CLI: ``python -m repro.sweep run <spec> [--workers N]``.
Service: ``python -m repro.serve [--port P] [--workers N]``.
"""

from repro.sweep.jobs import JobService, QuotaError
from repro.sweep.registry import (
    family_names,
    get_family,
    register_family,
    registry_payload,
)
from repro.sweep.report import aggregate, canonical_report, render_markdown
from repro.sweep.runner import run_campaign
from repro.sweep.spec import (
    CampaignSpec,
    ScenarioSpec,
    SpecError,
    load_spec,
    make_scenario,
)
from repro.sweep.store import ResultStore

__all__ = [
    "CampaignSpec",
    "JobService",
    "QuotaError",
    "ResultStore",
    "ScenarioSpec",
    "SpecError",
    "aggregate",
    "canonical_report",
    "family_names",
    "get_family",
    "load_spec",
    "make_scenario",
    "register_family",
    "registry_payload",
    "render_markdown",
    "run_campaign",
]
