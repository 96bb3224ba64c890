"""The traced run's layer ledger: spans recorded from outside the program.

A :class:`Ledger` wraps the public entry points of each layer
(``Simulator.run``, ``Family.build``, ``plan_units``, ``aggregate``,
``ResultStore.get``, ``JobService.submit``, the HTTP client calls, ...)
with span-recording shims.  Spans live in memory — id, parent id (the
enclosing span on the same thread), layer, start, end — and are written
out once the run ends.  Work that happens inside pool worker processes
is not patched: it is read from the job's own trace
(``JobService.trace``) and merged in with :meth:`Ledger.add_job_trace`.

Self time is assigned by a sweep over the traced wall interval: each
instant goes to the deepest layer active at that instant on any thread
or worker (see :data:`LAYERS`), or to *unattributed* when no span is
open.  The per-layer self times plus the unattributed time therefore
reconcile with the traced wall time, and :meth:`Ledger.attribute`
checks that they do.
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import functools
import itertools
import json
import os
import threading
import time
from typing import Any, Callable, Iterable

#: Ledger rows, outermost first, with their depth.  At an instant where
#: several layers are open (nested calls, or parallel threads and
#: workers), the instant is charged to the deepest one; ties go to the
#: row listed first.
LAYERS: tuple[tuple[str, int], ...] = (
    ("serve.client", 1),
    ("jobs.result", 2),
    ("jobs.submit", 3),
    ("jobs.job", 3),
    ("spec.expand", 4),
    ("runner.plan", 4),
    ("store.get", 4),
    ("store.put", 4),
    ("report.aggregate", 4),
    ("runner.unit", 5),
    ("build", 6),
    ("family.run", 6),
    ("kernel.snapshot", 7),
    ("kernel.restore", 7),
    ("kernel.run", 7),
)
_DEPTH = {name: depth for name, depth in LAYERS}
_ORDER = {name: i for i, (name, _depth) in enumerate(LAYERS)}

#: How spans of a job's own trace map onto ledger rows.  Only the
#: dispatcher's ``job`` span and spans recorded inside pool workers are
#: taken: in-process work is already covered by the ledger's own shims.
_WORKER_SPANS = {
    "unit": "runner.unit",
    "scenario": "runner.unit",
    "metrics": "runner.unit",
    "build": "build",
    "simulate": "family.run",
}


@dataclasses.dataclass
class Span:
    span_id: int
    parent_id: int | None
    layer: str
    start: float
    end: float = 0.0
    thread: str = ""
    attrs: dict = dataclasses.field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "layer": self.layer,
            "start": round(self.start, 9),
            "end": round(self.end, 9),
            "thread": self.thread,
            "attrs": self.attrs,
        }


class Ledger:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.spans: list[Span] = []
        self.counts: collections.Counter = collections.Counter()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: list[Callable[[], None]] = []
        # Program traces stamp spans with wall-clock starts; the ledger
        # runs on perf_counter.  One offset converts between them.
        self._unix_offset = time.time() - time.perf_counter()

    # -- recording ------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, layer: str, **attrs: Any):
        """Record one span of *layer* around the ``with`` body."""
        if layer not in _DEPTH:
            raise ValueError(f"unknown ledger layer {layer!r}")
        if os.getpid() != self.pid:
            # A forked pool worker inherited the patches: its work is
            # read from the job trace instead.
            yield None
            return
        stack = self._stack()
        span = Span(
            next(self._ids),
            stack[-1] if stack else None,
            layer,
            time.perf_counter(),
            thread=threading.current_thread().name,
            attrs=attrs,
        )
        stack.append(span.span_id)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(span)

    def count(self, name: str, value: int = 1) -> None:
        if os.getpid() == self.pid:
            with self._lock:
                self.counts[name] += value

    def wrap(
        self,
        fn: Callable,
        layer: str,
        after: Callable[[Any, tuple, dict], None] | None = None,
    ) -> Callable:
        """A span-recording shim around *fn*; *after* sees each result."""

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            with self.span(layer):
                result = fn(*args, **kwargs)
            if after is not None and os.getpid() == self.pid:
                after(result, args, kwargs)
            return result

        return shim

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        """Set ``owner.attr`` until :meth:`unpatch` puts the original back."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, replacement)
        self._undo.append(lambda: setattr(owner, attr, original))

    def patch_call(self, owner: Any, attr: str, layer: str, after=None) -> None:
        self.patch(owner, attr, self.wrap(getattr(owner, attr), layer, after))

    def unpatch(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- the program's own traces -----------------------------------------

    def add_job_trace(self, spans: Iterable[dict[str, Any]]) -> None:
        """Merge a job's trace: its ``job`` span and its pool-worker spans."""
        for raw in spans:
            name = raw.get("name")
            attrs = raw.get("attrs") or {}
            if name == "job":
                layer = "jobs.job"
            elif attrs.get("worker") is not None and name in _WORKER_SPANS:
                layer = _WORKER_SPANS[name]
            else:
                continue
            if raw.get("duration_s") is None:
                continue
            start = float(raw["start_unix"]) - self._unix_offset
            span = Span(
                next(self._ids),
                None,
                layer,
                start,
                start + float(raw["duration_s"]),
                thread=f"worker-{attrs['worker']}" if name != "job" else "dispatcher",
                attrs={"program_span": name, **{
                    k: attrs[k] for k in ("design_cache", "lanes", "worker")
                    if k in attrs
                }},
            )
            with self._lock:
                self.spans.append(span)

    # -- attribution ----------------------------------------------------

    def attribute(self, t0: float, t1: float) -> dict[str, Any]:
        """Charge every instant of ``[t0, t1]`` to one layer or to nobody.

        Returns per-layer self seconds, per-layer inclusive seconds (sum
        of span durations) and span counts, the unattributed seconds,
        the wall time, and ``reconciled`` — whether self times plus the
        unattributed time add up to the wall time.
        """
        events: list[tuple[float, int, str]] = []
        inclusive: dict[str, float] = collections.defaultdict(float)
        calls: collections.Counter = collections.Counter()
        for span in self.spans:
            start, end = max(span.start, t0), min(span.end, t1)
            inclusive[span.layer] += span.end - span.start
            calls[span.layer] += 1
            if end > start:
                events.append((start, 1, span.layer))
                events.append((end, -1, span.layer))
        events.sort(key=lambda e: (e[0], e[1]))
        open_count: collections.Counter = collections.Counter()
        self_s: dict[str, float] = {name: 0.0 for name, _ in LAYERS}
        uncovered = 0.0
        cursor = t0
        for when, delta, layer in events:
            if when > cursor:
                active = [name for name, n in open_count.items() if n > 0]
                if active:
                    top = max(active, key=lambda n: (_DEPTH[n], -_ORDER[n]))
                    self_s[top] += when - cursor
                else:
                    uncovered += when - cursor
                cursor = when
            open_count[layer] += delta
        if t1 > cursor:
            uncovered += t1 - cursor
        wall = t1 - t0
        total = sum(self_s.values()) + uncovered
        return {
            "wall_s": wall,
            "self_s": self_s,
            "inclusive_s": dict(inclusive),
            "calls": dict(calls),
            "unattributed_s": uncovered,
            "reconciled": abs(total - wall) <= 1e-6 * max(wall, 1.0),
        }

    def write(self, path, summary: dict[str, Any]) -> None:
        """Write the spans (JSONL) and the ledger summary next to them."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for span in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps(span.to_dict(), default=str) + "\n")
        summary_path = path.with_suffix(".ledger.json")
        summary_path.write_text(json.dumps(summary, indent=2, sort_keys=True, default=str))


def _union_seconds(intervals: Iterable[tuple[float, float]]) -> float:
    total = 0.0
    end = None
    for start, stop in sorted(intervals):
        if end is None or start > end:
            total += stop - start
            end = stop
        elif stop > end:
            total += stop - end
            end = stop
    return total


class _ForkProxy:
    """``Simulator.fork()`` context whose rewind is recorded as a restore."""

    def __init__(self, probe: "Probe", ctx: Any):
        self._probe = probe
        self._ctx = ctx

    def __enter__(self):
        return self._ctx.__enter__()

    def __exit__(self, *exc_info):
        with self._probe.ledger.span("kernel.restore", via="fork"):
            result = self._ctx.__exit__(*exc_info)
        self._probe.ledger.count("kernel.restores")
        return result


class Probe:
    """Patches the layers' public entry points and folds the ledger into metrics.

    ``install_kernel`` and ``install_sweep`` patch module and class
    attributes for the duration of the traced region; ``watch_service``
    and ``watch_client`` patch single objects.  Workloads report each
    finished job with :meth:`note_job`.  :meth:`unpatch` restores every
    original.
    """

    def __init__(self) -> None:
        self.ledger = Ledger()
        self.report_bytes = 0
        self.scenarios_submitted = 0
        self.rows: list[dict[str, Any]] = []
        self.job_wait_s = 0.0
        self.program_units = 0
        self.design_cache: collections.Counter = collections.Counter()
        self.worker_cycles = 0
        self.serve_bytes = 0
        self.serve_errors = 0
        self._services: list[Any] = []
        self._stores: list[Any] = []
        self._store_base: dict[int, tuple[int, int]] = {}
        self._family_cache: dict[str, Any] = {}

    # -- patches --------------------------------------------------------

    def install_kernel(self) -> None:
        from repro.kernel import Simulator

        ledger = self.ledger
        run = Simulator.run

        @functools.wraps(run)
        def traced_run(sim, *args, **kwargs):
            before = sim.cycle
            with ledger.span("kernel.run"):
                result = run(sim, *args, **kwargs)
            ledger.count("kernel.cycles", sim.cycle - before)
            return result

        restore = Simulator.restore

        @functools.wraps(restore)
        def traced_restore(sim, snap):
            with ledger.span("kernel.restore"):
                restore(sim, snap)
            ledger.count("kernel.restores")

        fork = Simulator.fork

        @functools.wraps(fork)
        def traced_fork(sim):
            with ledger.span("kernel.snapshot", via="fork"):
                ctx = fork(sim)
            return _ForkProxy(self, ctx)

        ledger.patch(Simulator, "run", traced_run)
        ledger.patch(Simulator, "restore", traced_restore)
        ledger.patch(Simulator, "fork", traced_fork)
        ledger.patch_call(Simulator, "snapshot", "kernel.snapshot")

    def traced_family(self, family: Any) -> Any:
        """*family* with its ``build``/``run`` (and ensemble run) recorded."""
        traced = self._family_cache.get(family.name)
        if traced is None:
            wrap = self.ledger.wrap
            ensemble = family.ensemble
            if ensemble is not None:
                ensemble = dataclasses.replace(ensemble, run=wrap(ensemble.run, "family.run"))
            traced = dataclasses.replace(
                family,
                build=wrap(family.build, "build"),
                run=wrap(family.run, "family.run"),
                ensemble=ensemble,
            )
            self._family_cache[family.name] = traced
        return traced

    def install_sweep(self) -> None:
        import repro.sweep.jobs as jobs
        import repro.sweep.runner as runner
        import repro.sweep.spec as spec
        from repro.sweep.report import canonical_report

        get_family = runner.get_family
        self.ledger.patch(runner, "get_family", lambda name: self.traced_family(get_family(name)))
        self.ledger.patch_call(jobs, "plan_units", "runner.plan")
        self.ledger.patch_call(jobs, "execute_unit", "runner.unit")

        def count_report(report, _args, _kwargs):
            self.report_bytes += len(json.dumps(canonical_report(report), sort_keys=True))

        self.ledger.patch_call(jobs, "aggregate", "report.aggregate", after=count_report)
        self.ledger.patch_call(jobs, "from_dict", "spec.expand")
        self.ledger.patch_call(spec, "from_dict", "spec.expand")

    def watch_service(self, service: Any) -> None:
        """Record this service's submit/result calls and its store traffic."""

        def count_submit(job_id, _args, _kwargs):
            self.scenarios_submitted += len(service.job(job_id).spec.scenarios)

        self.ledger.patch_call(service, "submit", "jobs.submit", after=count_submit)
        self.ledger.patch_call(service, "result", "jobs.result")
        store = service.store
        if store is not None:
            self.ledger.patch_call(store, "get", "store.get")
            self.ledger.patch_call(store, "put", "store.put")
            self._stores.append(store)
        self._services.append(service)

    def mark_stream_start(self) -> None:
        """Count store hits and misses from here on (set-up traffic excluded)."""
        self._store_base = {id(s): (s.hits, s.misses) for s in self._stores}

    def watch_client(self, client: Any) -> None:
        """Record the HTTP client's round trips, response bytes and errors."""
        from repro.serve import ServiceError

        def traced(call):
            @functools.wraps(call)
            def shim(*args, **kwargs):
                try:
                    with self.ledger.span("serve.client"):
                        result = call(*args, **kwargs)
                except ServiceError:
                    self.serve_errors += 1
                    raise
                self.serve_bytes += len(json.dumps(result, default=str).encode("utf-8"))
                return result

            return shim

        self.ledger.patch(client, "submit", traced(client.submit))
        self.ledger.patch(client, "report", traced(client.report))

    def unpatch(self) -> None:
        self.ledger.unpatch()

    # -- per-job accounting ---------------------------------------------

    def note_job(self, service: Any, job_id: str, wall_s: float, report: dict) -> None:
        """Fold one finished job: its trace, its rows and its wait time.

        The wait is the request's wall time minus the time during which
        at least one of its units was executing: queueing, dispatch and
        IPC, dedup lookups and aggregation.
        """
        spans = service.trace(job_id)
        self.ledger.add_job_trace(spans)
        unit_spans = []
        for span in spans:
            name = span.get("name")
            attrs = span.get("attrs") or {}
            if name == "unit":
                start = float(span["start_unix"])
                unit_spans.append((start, start + float(span["duration_s"] or 0.0)))
            elif name == "build" and "design_cache" in attrs:
                pooled = attrs.get("worker") is not None
                self.design_cache[(attrs["design_cache"], pooled)] += 1
        self.program_units += len(unit_spans)
        self.job_wait_s += max(0.0, wall_s - _union_seconds(unit_spans))
        rows = report.get("scenarios", [])
        self.rows.extend(rows)
        if self._services and service.pool_size:
            self.worker_cycles += sum(
                int((row.get("metrics") or {}).get("cycles", 0))
                for row in rows
                if row.get("status") == "ok" and not row.get("cached")
            )

    # -- metrics --------------------------------------------------------

    def metrics(self, t0: float, t1: float) -> tuple[dict[str, float], dict[str, Any]]:
        """Per-layer metrics over the traced interval, plus the raw ledger."""
        att = self.ledger.attribute(t0, t1)
        own = self.ledger.counts
        self_s = att["self_s"]
        in_process_builds = sum(
            1 for s in self.ledger.spans if s.layer == "build" and "program_span" not in s.attrs
        )
        pooled = {state: n for (state, is_pooled), n in self.design_cache.items() if is_pooled}
        builds = in_process_builds + sum(n for state, n in pooled.items() if state != "hit")
        states = collections.Counter()
        for (state, _pooled), n in self.design_cache.items():
            states[state] += n
        lookups = sum(states.values())
        fresh = [r for r in self.rows if not r.get("cached")]
        batched = sum(1 for r in fresh if isinstance(r.get("ensemble"), int) and r["ensemble"] > 1)
        hits = misses = entries = 0
        for store in self._stores:
            hits0, misses0 = self._store_base.get(id(store), (0, 0))
            hits += store.hits - hits0
            misses += store.misses - misses0
            entries += len(store)
        respawns = sum(svc.stats()["workers"]["respawns"] for svc in self._services)
        wall = att["wall_s"]
        metrics = {
            "kernel.run_s": self_s["kernel.run"],
            "kernel.cycles": own["kernel.cycles"] + self.worker_cycles,
            "kernel.snapshot_s": self_s["kernel.snapshot"],
            "kernel.restore_s": self_s["kernel.restore"],
            "kernel.restores": own["kernel.restores"] + pooled.get("hit", 0),
            "build.s": self_s["build"],
            "build.count": builds,
            "build.design_cache_hit_ratio": states["hit"] / lookups if lookups else 0.0,
            "family.run_s": att["inclusive_s"].get("family.run", 0.0),
            "family.non_kernel_s": self_s["family.run"],
            "spec.expand_s": self_s["spec.expand"],
            "spec.scenarios": self.scenarios_submitted,
            "runner.plan_s": self_s["runner.plan"],
            "runner.unit_s": self_s["runner.unit"],
            "runner.units": self.program_units,
            "runner.ensemble_share": batched / len(fresh) if fresh else 0.0,
            "runner.ensemble_fallbacks": sum(1 for r in fresh if r.get("ensemble") == "fallback"),
            "report.aggregate_s": self_s["report.aggregate"],
            "report.bytes": self.report_bytes,
            "store.get_s": self_s["store.get"],
            "store.put_s": self_s["store.put"],
            "store.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "store.entries": entries,
            "jobs.submit_s": self_s["jobs.submit"],
            "jobs.dispatch_s": self_s["jobs.job"] + self_s["jobs.result"],
            "jobs.wait_s": self.job_wait_s,
            "jobs.retries": sum(1 for r in self.rows if int(r.get("attempts") or 1) > 1),
            "jobs.timeouts": sum(1 for r in self.rows if r.get("status") == "timeout"),
            "jobs.respawns": respawns,
            "serve.http_s": self_s["serve.client"],
            "serve.bytes": self.serve_bytes,
            "serve.errors": self.serve_errors,
            "trace.wall_s": wall,
            "trace.unattributed_s": att["unattributed_s"],
            "trace.unattributed_share": att["unattributed_s"] / wall if wall else 0.0,
        }
        return metrics, att
