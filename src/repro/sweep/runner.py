"""Scenario execution: the one place a scenario actually runs.

The sweep layer is split in two:

* **Execution** (this module): one scaffold builds — or rewinds — a
  design and drives a *unit* to metrics: a single scenario
  (:func:`execute_scenario`, the width-1 case) or a lockstep batch
  (:func:`execute_ensemble`).  :func:`execute_unit` is what the
  campaign service's workers call; the other two are the entry points
  for ad-hoc programmatic use.
* **Orchestration** (:mod:`repro.sweep.jobs`): job queueing, worker
  pools, result-store dedup and report assembly.  :func:`run_campaign`
  is kept here as the stable one-shot entry point but is now a thin
  client of the jobs API.

Design reuse works through an explicit *cache* mapping
``(design_key, engine[, "ensemble"]) -> (handle, ctx, pristine_snapshot)``
(*ctx* is the lockstep lift, None for serial designs): built on first
use, every later scenario of the same design starts from a ``restore``
of the pristine snapshot instead of a rebuild.  Because the cache key
is pure data, a cache can outlive one campaign — the service's workers
keep theirs across jobs, which is what makes repeated traffic cheap.

Failures are contained per scenario: a build or run that raises is
reported as ``status="error"`` with the traceback (and the cached
design is dropped, so later scenarios re-build cleanly).  Worker-death
containment lives with the worker pool in :mod:`repro.sweep.jobs`.
"""

from __future__ import annotations

import contextlib
import time
import traceback
from typing import Any, Sequence

from repro.kernel.codegen import codegen_counts, codegen_seconds
from repro.kernel.errors import EnsembleUnsupported
from repro.obs.trace import NULL_TRACER
from repro.sweep.registry import get_family
from repro.sweep.spec import CampaignSpec, ScenarioSpec

#: Default lane cap for ``ensemble="auto"`` batching.
DEFAULT_ENSEMBLE_WIDTH = 16

#: Hot-list cap for per-row profile reports (``--profile``): the full
#: per-component table of a big design would dwarf the metrics payload.
PROFILE_TOP = 20


def normalize_ensemble(option: Any) -> int:
    """Resolve an ensemble option to a lane cap (0 disables batching).

    Accepted spellings: ``"auto"``/``None`` (default cap),
    ``"off"``/``0``/``False`` (serial), or an explicit integer cap.
    Caps below 2 are serial by definition.
    """
    if option in (None, "auto"):
        return DEFAULT_ENSEMBLE_WIDTH
    if option in ("off", False):
        return 0
    width = int(option)
    return width if width >= 2 else 0


def plan_units(
    scenarios: Sequence[ScenarioSpec], ensemble: Any = "auto"
) -> list[list[ScenarioSpec]]:
    """Partition *scenarios* into execution units, preserving order.

    A unit is either a singleton (runs through the ordinary serial
    path) or an ensemble batch: 2..cap scenarios whose family declared
    :class:`~repro.sweep.registry.EnsembleSupport` and whose
    ``group_key`` values are equal — i.e. identical design *and*
    identical control schedule, differing only in data payloads.  Units
    appear in first-scenario order, so a serial walk of the plan is
    deterministic from the scenario list alone.
    """
    cap = normalize_ensemble(ensemble)
    order: list[tuple[str, Any]] = []
    grouped: dict[Any, list[ScenarioSpec]] = {}
    for scenario in scenarios:
        key = None
        if cap >= 2:
            try:
                family = get_family(scenario.family)
            except KeyError:
                # Unknown family: plan it serially so the failure stays
                # a per-scenario error row, not a job-level crash.
                family = None
            if family is not None and family.ensemble is not None:
                key = family.ensemble.group_key(scenario)
        if key is None:
            order.append(("single", scenario))
        else:
            if key not in grouped:
                grouped[key] = []
                order.append(("group", key))
            grouped[key].append(scenario)
    units: list[list[ScenarioSpec]] = []
    for tag, value in order:
        if tag == "single":
            units.append([value])
        else:
            members = grouped[value]
            for i in range(0, len(members), cap):
                units.append(members[i : i + cap])
    return units


def _execute(
    scenarios: Sequence[ScenarioSpec],
    engine: str | None,
    cache: dict | None,
    shard: int | None,
    profile: bool,
    tracer: Any,
    parent: Any,
    lockstep: bool,
) -> list[dict[str, Any]]:
    """The scenario scaffold: run one unit, return one row per scenario.

    Serial execution is the width-1 case: ``lockstep=False`` runs a
    single scenario through ``family.run``; ``lockstep=True`` advances
    every scenario through the family's :class:`EnsembleSupport` in one
    compiled schedule.  Both share the design cache (lockstep designs
    under their own ``"ensemble"`` key, because lifting rewrites
    component callables), the profiler attach, the
    ``scenario -> build/simulate/metrics`` spans and the error path:
    a failure drops the cached design, then becomes an error row
    (serial) or a fallback to serial execution (lockstep).
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    rows = [_scenario_row(s, shard) for s in scenarios]
    head = scenarios[0]
    start = time.perf_counter()
    cache_key = (head.design_key(), engine) + (
        ("ensemble",) if lockstep else ()
    )
    span = tracer.span(
        "scenario",
        parent=parent,
        key=head.key,
        **(
            {"lanes": len(scenarios), "ensemble": True}
            if lockstep
            else {"index": head.index}
        ),
    )
    try:
        with span:
            family = get_family(head.family)
            support = family.ensemble
            if lockstep and support is None:
                raise EnsembleUnsupported(
                    f"family {family.name!r} declares no ensemble support"
                )
            if not (lockstep or family.reusable):
                cache = None
            with tracer.span("build", parent=span) as build_span:
                codegen_before = codegen_counts()
                codegen_start = codegen_seconds()
                entry = cache.get(cache_key) if cache is not None else None
                rewind_s = 0.0
                if entry is None:
                    handle = family.build(head.params, engine)
                    ctx = support.lift(handle) if lockstep else None
                    design_cache = "none"
                    if cache is not None:
                        rewind_start = time.perf_counter()
                        pristine = handle.sim.snapshot()
                        rewind_s = time.perf_counter() - rewind_start
                        cache[cache_key] = (handle, ctx, pristine)
                        design_cache = "build"
                else:
                    handle, ctx, pristine = entry
                    rewind_start = time.perf_counter()
                    handle.sim.restore(pristine)
                    rewind_s = time.perf_counter() - rewind_start
                    design_cache = "hit"
                compiled, reused = codegen_counts()
                build_span.set(
                    design_cache=design_cache,
                    codegen_compiled=compiled - codegen_before[0],
                    codegen_reused=reused - codegen_before[1],
                    codegen_s=round(codegen_seconds() - codegen_start, 6),
                    rewind_s=rewind_s,
                )
            sim = getattr(handle, "sim", None)
            with tracer.span("simulate", parent=span):
                with (
                    sim.profile()
                    if profile and sim is not None
                    else contextlib.nullcontext()
                ) as prof:
                    if lockstep:
                        outcomes = support.run(handle, ctx, scenarios)
                    else:
                        outcomes = [("ok", family.run(handle, head))]
                if prof is not None and lockstep:
                    prof.note_ensemble(
                        ctx.width, len(scenarios) - len(ctx.failures)
                    )
            with tracer.span("metrics", parent=span):
                for row, (status, payload) in zip(rows, outcomes):
                    if lockstep:
                        row["ensemble"] = len(scenarios)
                    row["design_cache"] = design_cache
                    row["status"] = status
                    row["metrics" if status == "ok" else "error"] = payload
                if prof is not None:
                    # One shared simulation: its report lands on the
                    # first row only, so aggregation never double-counts.
                    report = prof.report(top=PROFILE_TOP)
                    if lockstep:
                        report["unit_scenarios"] = len(scenarios)
                    rows[0]["profile"] = report
    except Exception:
        # A failed unit may leave a shared design mid-flight: drop it
        # so the next scenario of this design rebuilds.
        if cache is not None:
            cache.pop(cache_key, None)
        if lockstep:
            fallback = [
                _execute(
                    [s], engine, cache, shard, profile, tracer, parent, False
                )[0]
                for s in scenarios
            ]
            for row in fallback:
                row["ensemble"] = "fallback"
            return fallback
        rows[0]["status"] = "error"
        rows[0]["error"] = traceback.format_exc()
    duration = round(time.perf_counter() - start, 4)
    for row in rows:
        row["duration_s"] = duration
    return rows


def execute_ensemble(
    scenarios: Sequence[ScenarioSpec],
    engine: str | None,
    cache: dict | None = None,
    shard: int | None = None,
    profile: bool = False,
    tracer: Any = None,
    parent: Any = None,
) -> list[dict[str, Any]]:
    """Run a batch of control-identical scenarios in one lockstep sim.

    Returns one report row per scenario, in order.  Any failure of the
    batched path (unsupported component, lane-divergent control,
    mid-flight error) falls back to plain serial execution, so batching
    can never change *whether* a campaign completes, only how fast.
    Per-lane scenario failures do **not** trigger fallback: they
    surface as ordinary ``status="error"`` rows while sibling lanes
    complete.  With *profile*, the report (including ensemble lane
    occupancy) lands on the **first** row of the batch only.
    """
    return _execute(
        scenarios, engine, cache, shard, profile, tracer, parent, True
    )


def execute_scenario(
    scenario: ScenarioSpec,
    engine: str | None,
    cache: dict | None = None,
    shard: int | None = None,
    profile: bool = False,
    tracer: Any = None,
    parent: Any = None,
) -> dict[str, Any]:
    """Run one scenario and return its report row.

    With a *cache*, reusable designs are built once per (design key,
    engine) and rewound between scenarios via the kernel's columnar
    snapshot/restore; the row's ``design_cache`` field records whether
    this run hit the cache (``"hit"``), populated it (``"build"``) or
    bypassed it (``"none"``, non-reusable families or no cache given).
    ``design_cache`` is placement metadata, not part of the metrics —
    reports are compared net of it.

    With *profile*, a :class:`~repro.obs.profile.KernelProfiler` is
    attached around the family's run and its report lands in
    ``row["profile"]`` — volatile metadata like ``duration_s``, never
    part of canonical comparison.  *tracer* (a
    :class:`~repro.obs.trace.Tracer`) records
    ``scenario -> build/simulate/metrics`` spans under *parent*.
    """
    return _execute(
        [scenario], engine, cache, shard, profile, tracer, parent, False
    )[0]


def execute_unit(
    unit: Sequence[ScenarioSpec],
    engine: str | None,
    cache: dict | None = None,
    shard: int | None = None,
    profile: bool = False,
    tracer: Any = None,
    parent: Any = None,
) -> list[dict[str, Any]]:
    """Run one planned unit: singletons serially, batches in lockstep."""
    return _execute(
        unit, engine, cache, shard, profile, tracer, parent, len(unit) > 1
    )


def _scenario_row(
    scenario: ScenarioSpec, shard: int | None
) -> dict[str, Any]:
    return {
        "key": scenario.key,
        "index": scenario.index,
        "family": scenario.family,
        "params": dict(scenario.params),
        "stimulus": dict(scenario.stimulus),
        "seed": scenario.seed,
        "shard": shard,
    }


def run_campaign(
    spec: CampaignSpec,
    workers: int | None = None,
    engine: str | None = None,
    store: Any = None,
    ensemble: Any = "auto",
    profile: bool = False,
    timeout_s: float | None = None,
    retries: int | None = None,
) -> dict[str, Any]:
    """Execute *spec* and return the aggregated campaign report.

    A thin client of the jobs API: submits the campaign to an ephemeral
    :class:`repro.sweep.jobs.JobService` and waits for the report.
    *workers* / *engine* override the spec's values; ``workers <= 1``
    runs everything inline (no subprocesses).  *store* (a
    :class:`repro.sweep.store.ResultStore` or a path) enables result
    memoization — scenarios whose canonical key is already stored are
    answered from the store without simulating.  *ensemble* controls
    lockstep batching of control-identical scenarios (``"auto"``,
    ``"off"`` or an integer lane cap); reports are bit-identical either
    way, batching only changes throughput.  *profile* attaches the
    kernel profiler per scenario and folds its reports into the rows as
    volatile metadata (see ``docs/observability.md``).  *timeout_s* /
    *retries* set the run's deadline override and retry budget (see
    :meth:`repro.sweep.jobs.JobService.submit`).
    """
    from repro.sweep.jobs import JobService

    if workers is None:
        workers = spec.workers
    with JobService(
        workers=workers,
        engine=engine,
        store=store,
        ensemble=ensemble,
        profile=profile,
    ) as service:
        job_id = service.submit(
            spec, workers=workers, engine=engine, timeout_s=timeout_s,
            retries=retries,
        )
        return service.result(job_id)
