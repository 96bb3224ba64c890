"""The jobs API: campaign simulation as a service, transport-agnostic.

This module is the single programmatic entry point for running
campaigns.  Everything else is a client of it: ``python -m repro.sweep
run`` submits one job to an ephemeral service and waits;
:mod:`repro.serve` wraps a long-running service in an HTTP/JSON front
end; tests and benchmarks drive it directly.

The moving parts of a :class:`JobService`:

* **An async job queue.**  :meth:`~JobService.submit` validates the
  spec (structured :class:`repro.sweep.spec.SpecError` on bad input),
  registers a job and returns its id immediately; a dispatcher thread
  executes jobs FIFO.  :meth:`~JobService.status` /
  :meth:`~JobService.result` / :meth:`~JobService.cancel` observe and
  steer jobs by id.

* **A persistent worker pool with warm-set placement.**  With
  ``workers=N`` the service keeps N long-lived worker processes, and
  the dispatcher tracks which workers hold which design compiled (the
  design's *warm set*).  A design is first built on its affinity worker
  (a stable hash of its design key, :func:`design_affinity`); each
  later job using it adds one more holder, until every worker holds
  it; then its units go to whichever holder is free first.  Across
  *all* jobs, not just within one campaign, a warm worker rewinds the
  design via the kernel's columnar snapshot/restore instead of
  rebuilding, and which workers build what depends only on the job
  stream.  ``workers<=1`` (or
  0) runs inline: a pool of one *thread* worker in the service's own
  process, driven by the same dispatch loop and worker loop, with the
  same long-lived cache.  A worker process that dies fails only the
  scenario it was running (``status="worker-failed"``); the pool
  respawns the worker (cold cache) and the job continues.

* **A persisted result store with dedup.**  With a
  :class:`repro.sweep.store.ResultStore`, each scenario's canonical
  :meth:`~repro.sweep.spec.ScenarioSpec.result_key` is consulted before
  dispatch: an identical scenario submitted twice returns the stored
  row (``"cached": true``) without simulating.  Metrics are pure
  functions of the scenario, so memoized and fresh reports are
  bit-identical per scenario.

Determinism is inherited, not re-established: scenario seeds derive
from (campaign seed, scenario key) alone and the settle engines are
cycle-identical, so CLI, sharded, pooled and memoized runs of the same
spec all produce the same per-scenario metrics.

The service is also **fault-tolerant** (the resilience layer):

* **Deadlines + watchdog** — every dispatched unit carries a deadline
  (explicit ``timeout_s`` at any level, or derived from the family's
  recent p95 durations); the dispatcher kills and respawns a worker
  that blows it and marks the rows ``status="timeout"`` without
  failing the rest of the job.  Killing the inline thread worker
  abandons it (a thread cannot be killed): its late result is dropped
  and a fresh thread with a cold cache takes over.
* **Bounded retries** — rows failing with a retryable status
  (:data:`RETRYABLE_STATUSES`) are re-enqueued up to ``retries`` times
  with exponential backoff, pinned to the worker after the one that
  failed.  A retried-then-ok row is bit-identical to a
  first-try row (determinism again); its ``attempts`` count is a
  volatile field.
* **Admission control** — ``max_queued_jobs`` / ``max_scenarios_per_job``
  reject over-limit submissions with a structured :class:`QuotaError`
  (HTTP 429), and :meth:`~JobService.stats` reports saturation.
* **Graceful drain** — :meth:`~JobService.shutdown` stops admission,
  settles in-flight jobs, flushes the store and lets every open event
  stream deliver its terminal line before closing.
"""

from __future__ import annotations

import hashlib
import itertools
import multiprocessing
import pathlib
import pickle
import queue
import threading
import time
import traceback
from bisect import bisect_right
from collections import Counter, deque
from typing import Any, Mapping

from repro.obs.trace import Tracer
from repro.sweep.report import aggregate
from repro.sweep.runner import _scenario_row, execute_unit, plan_units
from repro.sweep.spec import (
    CampaignSpec,
    _engine_value,
    _retries_value,
    _timeout_value,
    from_dict,
    load_spec,
)
from repro.sweep.store import ResultStore

#: Poll interval for the pooled result loop (drives liveness checks).
_POLL_S = 0.05

#: Job states after which no further events can be published.
TERMINAL_STATES = frozenset({"done", "failed", "cancelled"})

#: Row statuses that justify automatically re-running the unit: the
#: failure was the harness's (a dead or hung worker), never the
#: design's (those are "error" rows and retrying would just repeat
#: them — the simulation is deterministic).
RETRYABLE_STATUSES = frozenset({"worker-failed", "timeout"})

#: Deadline derivation from recent per-family durations: once a family
#: has this many fresh (non-cached, ok) samples, its default deadline
#: is ``max(floor, multiple × p95)``.  The generous multiple plus the
#: floor make derived deadlines a hung-unit tripwire, not a
#: performance budget — a healthy scenario never gets near one.
_TIMEOUT_MIN_SAMPLES = 8
_TIMEOUT_P95_MULTIPLE = 20.0
_TIMEOUT_FLOOR_S = 30.0

#: First-retry backoff in seconds; doubles per subsequent attempt.
_RETRY_BACKOFF_S = 0.05

#: Content-Type of :meth:`JobService.render_metrics` output.
METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: ``/metrics`` histogram bucket bounds (seconds), from ~1 ms dedup
#: hits to multi-second cold campaign builds.
_BUCKETS = (
    0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
    30.0,
)


class QuotaError(RuntimeError):
    """A submission was rejected by admission control (HTTP 429).

    Structured like :class:`repro.sweep.spec.SpecError` (one source,
    every transport) but deliberately *not* a subclass: a quota
    rejection is a service-state condition — retry later, or against
    another instance — not a malformed spec to be fixed.  *kind* is
    machine-readable (``"draining"``, ``"queue_full"``,
    ``"too_many_scenarios"``); *limit*/*actual* quantify the breach
    when one applies.
    """

    def __init__(
        self,
        reason: str,
        *,
        kind: str,
        limit: int | None = None,
        actual: int | None = None,
    ):
        self.reason = reason
        self.kind = kind
        self.limit = limit
        self.actual = actual
        super().__init__(reason)

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "reason": self.reason,
            "limit": self.limit,
            "actual": self.actual,
        }


def _number(value: float) -> str:
    """A sample value as exposition text: integral values without ``.0``."""
    value = float(value)
    return str(int(value)) if value.is_integer() else repr(value)


def _labelled(label: str, counts: Mapping[str, int]) -> list[tuple]:
    """(suffix, value) samples of a one-label counter, by label value.

    Zero counts are left out, as a series that never counted them.
    """
    return [
        (f'{{{label}="{key}"}}', count)
        for key, count in sorted(counts.items())
        if count
    ]


def _histogram(values: list[float]) -> list[tuple]:
    """(suffix, value) samples of an unlabelled histogram of *values*:
    cumulative ``_bucket`` counts per :data:`_BUCKETS` bound and
    ``+Inf``, then ``_sum`` and ``_count``."""
    ordered = sorted(values)
    samples = [
        (f'_bucket{{le="{_number(bound)}"}}', bisect_right(ordered, bound))
        for bound in _BUCKETS
    ]
    samples.append(('_bucket{le="+Inf"}', len(values)))
    samples.append(("_sum", sum(values)))
    samples.append(("_count", len(values)))
    return samples


def design_affinity(design_key: str, workers: int) -> int:
    """Stable worker index for a design key.

    A pure function of the key (not of the campaign), so the same
    design always lands on the same worker across jobs — the property
    that turns per-worker design caches into a cross-job design cache.
    """
    digest = hashlib.sha256(design_key.encode()).digest()
    return int.from_bytes(digest[:8], "big") % workers


# ----------------------------------------------------------------------
# worker pool
# ----------------------------------------------------------------------

def _status_rows(unit, shard: int | None, status: str, message: str):
    """One row per scenario of *unit*, all finalized as *status*."""
    rows = []
    for scenario in unit:
        row = _scenario_row(scenario, shard)
        row["status"] = status
        row["error"] = message
        rows.append(row)
    return rows


def _worker_main(index: int, tasks, results, abandoned=None) -> None:
    """The worker loop: execute units against a persistent cache.

    It runs in a pool process, or — inline mode — in the thread of a
    one-worker pool, which passes the *abandoned* event its "kill"
    sets.  A *unit* is a list of scenarios: a singleton for the serial
    path or an ensemble batch of control-identical scenarios that
    advance in lockstep through one compiled schedule.  The cache maps
    (design key, engine[, "ensemble"]) to (handle, ctx, pristine
    snapshot) and lives for the worker's whole life — jobs come and go,
    compiled designs stay warm.

    Each message is ``(token, unit, engine, opts)`` and each result
    ``(index, token, rows, spans)``: the echoed token lets the
    dispatcher drop results of dispatches it no longer waits for.  A
    process worker pickles its result itself before the put: the
    queue's feeder thread would otherwise drop an unpicklable row with
    nothing but a stderr line, leaving the unit in flight forever.
    Such a unit gets ``error`` rows naming the pickling failure instead.
    ``opts["profile"]`` attaches the kernel profiler per scenario;
    ``trace_id``/``parent`` seed a :class:`~repro.obs.trace.Tracer`
    whose finished spans (unit -> scenario -> build/simulate/metrics)
    ship back for the dispatcher to merge into the job's trace.  A
    process worker tags its spans with ``worker=<index>``; a thread
    worker's spans are untagged (``mode="inline"``), being in-process.
    """
    inline = abandoned is not None
    tags = {} if inline else {"worker": index}
    cache: dict = {}
    while True:
        msg = tasks.get()
        if msg is None:
            return
        token, unit, engine, opts = msg
        tracer = Tracer(trace_id=opts["trace_id"], **tags)
        try:
            with tracer.span(
                "unit",
                parent=opts["parent"],
                scenarios=len(unit),
                mode="inline" if inline else "pool",
            ) as unit_span:
                unit_rows = execute_unit(
                    unit,
                    engine,
                    cache=cache,
                    shard=index,
                    profile=opts["profile"],
                    tracer=tracer,
                    parent=unit_span,
                )
        except BaseException as exc:  # pragma: no cover - defensive
            unit_rows = _status_rows(
                unit, index, "error", f"{type(exc).__name__}: {exc}"
            )
        if inline:
            if abandoned.is_set():
                return
            results.put((index, token, unit_rows, tracer.spans()))
            continue
        spans = tracer.spans()
        try:
            payload = pickle.dumps((index, token, unit_rows, spans))
        except Exception as exc:
            message = f"result rows cannot be sent to the service ({type(exc).__name__}: {exc})"
            rows = _status_rows(unit, index, "error", message)
            payload = pickle.dumps((index, token, rows, spans))
        results.put(payload)


class _Worker:
    """One pool member: a task queue plus the process or thread draining it.

    A thread cannot be killed, so killing a thread worker *abandons*
    it: ``abandoned`` is set, the thread never puts its late result and
    is left to finish (or leak, as a daemon) — the pool replaces it
    with a fresh thread and a cold cache, exactly like a respawn.
    """

    def __init__(self, ctx, index: int, results):
        self.index = index
        self.abandoned = threading.Event()
        if ctx is None:
            self.tasks = queue.Queue()
            self.runner = threading.Thread(
                target=_worker_main,
                args=(index, self.tasks, results, self.abandoned),
                daemon=True,
                name="sweep-inline-worker",
            )
        else:
            self.tasks = ctx.Queue()
            self.runner = ctx.Process(
                target=_worker_main,
                args=(index, self.tasks, results),
                daemon=True,
                name=f"sweep-worker-{index}",
            )
        self.runner.start()

    def alive(self) -> bool:
        return self.runner.is_alive()

    def kill(self) -> str:
        """Stop (and reap) the worker now; returns how, for row errors."""
        if isinstance(self.runner, threading.Thread):
            self.abandoned.set()
            return "abandoned"
        self.runner.kill()
        self.runner.join(timeout=1.0)
        return "killed"


class _WorkerPool:
    """N persistent workers sharing one result queue.

    Workers are processes, or with *threads* (inline mode) threads of
    the dispatcher's process.  ``warm`` is the dispatcher's view of the
    workers' design caches: cache key -> the workers that hold it, in
    the order they built it.
    """

    def __init__(self, size: int, threads: bool = False):
        self._ctx = None if threads else multiprocessing.get_context()
        self.size = size
        self.results = queue.Queue() if threads else self._ctx.Queue()
        self.workers = [
            _Worker(self._ctx, i, self.results) for i in range(size)
        ]
        self.warm: dict[tuple, list[int]] = {}

    def alive(self) -> list[bool]:
        return [w.alive() for w in self.workers]

    def next_cold(self, key: tuple) -> int | None:
        """The first worker, in design-affinity rotation, not holding *key*.

        None once every worker holds it.  With no holder yet this is
        the design's affinity worker.
        """
        holders = self.warm.get(key, ())
        start = design_affinity(key[0], self.size)
        for step in range(self.size):
            index = (start + step) % self.size
            if index not in holders:
                return index
        return None

    def respawn(self, index: int) -> None:
        """Replace a dead or hung worker with a fresh (cold-cache) one."""
        self.workers[index].kill()
        self.workers[index] = _Worker(self._ctx, index, self.results)
        for holders in self.warm.values():
            if index in holders:
                holders.remove(index)

    def close(self) -> None:
        for worker in self.workers:
            try:
                worker.tasks.put(None)
            except Exception:  # pragma: no cover - already torn down
                pass
        for worker in self.workers:
            worker.runner.join(timeout=2.0)
            if worker.alive():
                worker.kill()


# ----------------------------------------------------------------------
# jobs
# ----------------------------------------------------------------------

class Job:
    """One submitted campaign and everything observed about it."""

    def __init__(
        self,
        job_id: str,
        spec: CampaignSpec,
        engine: str | None,
        workers: int,
        profile: bool = False,
        timeout_s: float | None = None,
        retries: int = 0,
    ):
        self.id = job_id
        self.spec = spec
        self.engine = engine
        self.workers = workers
        self.profile = bool(profile)
        #: Submit-time deadline override (wins over spec-level values).
        self.timeout_s = timeout_s
        #: Resolved retry budget (submit > spec > service default).
        self.retries = retries
        self.state = "queued"
        self.submitted_at = time.time()
        self.started_at: float | None = None
        self.finished_at: float | None = None
        #: Finished scenario rows by scenario index, filled by the
        #: dispatcher as rows complete; status() and scrapes read it.
        self.rows: dict[int, dict[str, Any]] = {}
        self.report: dict[str, Any] | None = None
        self.error: str | None = None
        self.cancel_event = threading.Event()
        self.done_event = threading.Event()
        # Structured trace: the dispatcher-side tracer plus span dicts
        # shipped back from workers (already tagged with trace_id ==
        # job id, so merging is a plain extend).
        self.tracer: Tracer | None = None
        self.span: Any = None
        self.worker_spans: list[dict[str, Any]] = []
        # Streamed progress: an append-only replay log plus per-consumer
        # fan-out queues.  The one lock orders appends against
        # subscriber registration, so every consumer sees every event
        # exactly once (subscribe replays the log, then drains its
        # queue, deduplicating on `seq`).
        self.events_log: list[dict[str, Any]] = []
        self._subscribers: list[queue.Queue] = []
        self._events_lock = threading.Lock()

    @property
    def completed(self) -> int:
        return len(self.rows)

    @property
    def dedup_hits(self) -> int:
        """Rows served from the result store instead of simulated."""
        return sum(1 for row in list(self.rows.values()) if row.get("cached"))

    def publish(self, event: dict[str, Any]) -> None:
        """Append *event* to the log and fan it out to subscribers."""
        with self._events_lock:
            event = dict(event)
            event["seq"] = len(self.events_log)
            event["job_id"] = self.id
            self.events_log.append(event)
            subscribers = list(self._subscribers)
        for sub in subscribers:
            sub.put(event)

    def subscribe(self) -> tuple[list[dict[str, Any]], queue.Queue]:
        """Register a consumer: (replay backlog, live queue).

        The backlog and the queue may overlap around the registration
        instant; consumers deduplicate on each event's ``seq``.
        """
        sub: queue.Queue = queue.Queue()
        with self._events_lock:
            backlog = list(self.events_log)
            self._subscribers.append(sub)
        return backlog, sub

    def unsubscribe(self, sub: queue.Queue) -> None:
        with self._events_lock:
            try:
                self._subscribers.remove(sub)
            except ValueError:
                pass

    def status(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "id": self.id,
            "name": self.spec.name,
            "state": self.state,
            "engine": self.engine,
            "workers": self.workers,
            "scenarios": len(self.spec.scenarios),
            "completed": self.completed,
            "dedup_hits": self.dedup_hits,
            "retries": self.retries,
            "timeout_s": self.timeout_s,
            "cancel_requested": self.cancel_event.is_set(),
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
        }
        if self.finished_at is not None and self.started_at is not None:
            out["elapsed_s"] = round(self.finished_at - self.started_at, 4)
        if self.report is not None:
            summary = self.report["summary"]
            out["ok"] = summary["ok"]
            out["failed"] = summary["failed"]
            # Campaign-level coverage/fault metrics surface on the job
            # itself, so service clients (and CI smoke assertions) can
            # read them without pulling the full report.
            for key in ("coverage_pct", "new_states", "faults_survived",
                        "fault_oracles"):
                if key in summary:
                    out[key] = summary[key]
        if self.error is not None:
            out["error"] = self.error
        return out


class JobService:
    """The campaign service core (see module docstring).

    ``workers=0`` (or 1) runs jobs inline, on one thread worker of the
    service's own process — same dispatch path, no subprocesses — which
    is also the mode the one-shot CLI uses for serial runs; ``pool_size``
    is then 0.  *store* enables result-store
    dedup: pass a :class:`ResultStore`, a path for a persisted JSONL
    store, or ``True`` for an in-memory one.

    Resilience knobs: *retries* is the default retry budget for
    retryable failures (spec/submit values win); *default_timeout_s*
    the deadline of last resort when neither the spec nor the family's
    duration history provides one; *max_queued_jobs* /
    *max_scenarios_per_job* enable admission control
    (:class:`QuotaError` on breach).
    """

    def __init__(
        self,
        workers: int = 0,
        engine: str | None = None,
        store: ResultStore | str | pathlib.Path | bool | None = None,
        ensemble: Any = "auto",
        profile: bool = False,
        retries: int = 1,
        default_timeout_s: float | None = None,
        max_queued_jobs: int | None = None,
        max_scenarios_per_job: int | None = None,
    ):
        if workers < 0:
            raise ValueError("workers must be >= 0")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        self.pool_size = workers if workers > 1 else 0
        self.engine = _engine_value(engine, path="service")
        # Lockstep-batching policy for every job this service runs:
        # "auto" (default cap), "off", or an integer lane cap.  Reports
        # are bit-identical either way; see repro.sweep.runner.
        self.ensemble = ensemble
        # Default profiling policy; ``submit(profile=...)`` overrides
        # per job.  Profiled rows carry a "profile" dict (volatile —
        # stripped from canonical reports and dedup storage).
        self.profile = bool(profile)
        if store is True:
            store = ResultStore()
        elif isinstance(store, (str, pathlib.Path)):
            store = ResultStore(store)
        self.store = store
        self.retries = retries
        self.default_timeout_s = _timeout_value(
            default_timeout_s, path="service", field="default_timeout_s"
        )
        self.max_queued_jobs = max_queued_jobs
        self.max_scenarios_per_job = max_scenarios_per_job
        self._jobs: dict[str, Job] = {}
        self._order: list[str] = []
        self._queue: queue.Queue = queue.Queue()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._pool: _WorkerPool | None = None
        # Per-dispatch token counter: results are matched to the exact
        # dispatch they answer, never to whatever a worker runs now.
        self._tokens = itertools.count(1)
        self._dispatcher: threading.Thread | None = None
        self._closed = False
        self._draining = False
        self._drain_seconds: float | None = None
        self._started_at = time.time()
        # Admission-control accounting: rejections by kind, for
        # stats()["admission"] (the metrics counter mirrors it).
        self._rejected: dict[str, int] = {}
        # Recent per-family ok-row durations (dispatcher thread only),
        # feeding the derived-deadline estimate.
        self._durations: dict[str, deque] = {}
        # Open events() streams; graceful drain waits (bounded) for
        # them to deliver their terminal lines before closing.
        self._active_streams = 0
        # Service-lifetime dedup accounting: per-job `dedup_hits` only
        # tells a client about its own submission; these fold every
        # store lookup since service start so /healthz can report a
        # global hit rate.
        self.dedup_hits = 0
        self.dedup_misses = 0
        # Units executing on pool workers (dispatcher thread only; 0
        # inline), for the /metrics in-flight gauge.
        self._inflight = 0
        # Workers replaced since service start; reported only with a
        # process pool (an inline runner "respawns" by abandonment).
        self._respawns = 0

    # -- lifecycle ------------------------------------------------------

    def __enter__(self) -> "JobService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Stop the dispatcher and tear down the worker pool.

        Queued jobs still drain first (the stop sentinel goes to the
        end of the FIFO); use :meth:`shutdown` for the full graceful
        sequence (stop admission, flush the store, settle streams).
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            dispatcher = self._dispatcher
        if dispatcher is not None:
            self._queue.put(None)
            dispatcher.join(timeout=30.0)
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def shutdown(
        self, drain: bool = True, timeout: float | None = None
    ) -> float | None:
        """Graceful teardown; returns the drain duration in seconds.

        Stops admission immediately (new :meth:`submit` calls raise
        :class:`QuotaError` with kind ``"draining"``), then with
        *drain* true waits for every accepted job to finish — bounded
        by *timeout* seconds if given, after which leftover jobs are
        cancelled (their in-flight units still settle).  With *drain*
        false, all unfinished jobs are cancelled up front.  Either way
        the store is flushed, open event streams get a bounded window
        to deliver their terminal lines, and the service is closed.
        Idempotent: returns None if the service was already closed.
        """
        start = time.time()
        with self._lock:
            if self._closed:
                return None
            self._draining = True
            jobs = [self._jobs[job_id] for job_id in self._order]
        if drain:
            deadline = None if timeout is None else start + timeout
            for job in jobs:
                if deadline is None:
                    job.done_event.wait()
                elif not job.done_event.wait(
                    max(0.0, deadline - time.time())
                ):
                    job.cancel_event.set()
        else:
            for job in jobs:
                if not job.done_event.is_set():
                    job.cancel_event.set()
        if self.store is not None:
            self.store.flush()
        # Let open event streams write their terminal lines before the
        # transport goes away; every job above is (or is becoming)
        # terminal, so streams end on their own — this is a bounded
        # wait, not a join.
        stream_deadline = time.time() + 2.0
        while time.time() < stream_deadline:
            with self._lock:
                if self._active_streams == 0:
                    break
            time.sleep(0.02)
        self.close()
        drained = round(time.time() - start, 4)
        self._drain_seconds = drained
        return drained

    def _ensure_dispatcher(self) -> None:
        if self._dispatcher is None:
            self._dispatcher = threading.Thread(
                target=self._dispatch_loop,
                daemon=True,
                name="sweep-dispatcher",
            )
            self._dispatcher.start()

    def _ensure_pool(self) -> _WorkerPool:
        if self._pool is None:
            # Inline mode is a pool of one thread worker.
            self._pool = _WorkerPool(
                max(self.pool_size, 1), threads=not self.pool_size
            )
        return self._pool

    # -- the jobs API ---------------------------------------------------

    def _reject(
        self,
        kind: str,
        reason: str,
        *,
        limit: int | None = None,
        actual: int | None = None,
    ) -> None:
        """Record and raise an admission-control rejection."""
        with self._lock:
            self._rejected[kind] = self._rejected.get(kind, 0) + 1
        raise QuotaError(reason, kind=kind, limit=limit, actual=actual)

    def submit(
        self,
        spec: CampaignSpec | Mapping[str, Any] | str | pathlib.Path,
        workers: int | None = None,
        engine: str | None = None,
        profile: bool | None = None,
        timeout_s: float | None = None,
        retries: int | None = None,
    ) -> str:
        """Validate and enqueue a campaign; returns the job id.

        *spec* may be a :class:`CampaignSpec`, a plain mapping (the
        JSON/TOML structure) or a spec file path.  Malformed specs
        raise :class:`repro.sweep.spec.SpecError` here, synchronously —
        a queued job is always runnable — and over-quota submissions
        raise :class:`QuotaError`.  *engine* overrides the spec's
        engine (an unknown name raises ``SpecError``); *workers* is
        recorded (the service's pool is fixed at construction, so it
        caps the actual parallelism); *profile*
        overrides the service's default profiling policy for this job.
        *timeout_s* is a job-wide deadline override (wins over every
        spec-level value); *retries* overrides the retry budget
        (submit > spec > service default).
        """
        if self._closed:
            raise RuntimeError("JobService is closed")
        timeout_s = _timeout_value(timeout_s, path="submit")
        retries = _retries_value(retries, path="submit")
        engine = _engine_value(engine, path="submit")
        with self._lock:
            draining = self._draining
            queued = sum(
                1 for job in self._jobs.values() if job.state == "queued"
            )
        if draining:
            self._reject(
                "draining",
                "service is draining and not accepting new campaigns",
            )
        if self.max_queued_jobs is not None and (
            queued >= self.max_queued_jobs
        ):
            self._reject(
                "queue_full",
                f"job queue is full ({queued} queued, "
                f"limit {self.max_queued_jobs}); retry later",
                limit=self.max_queued_jobs,
                actual=queued,
            )
        if isinstance(spec, (str, pathlib.Path)):
            spec = load_spec(spec)
        elif isinstance(spec, Mapping):
            spec = from_dict(spec)
        if self.max_scenarios_per_job is not None and (
            len(spec.scenarios) > self.max_scenarios_per_job
        ):
            self._reject(
                "too_many_scenarios",
                f"campaign expands to {len(spec.scenarios)} scenarios "
                f"(limit {self.max_scenarios_per_job}); split it up",
                limit=self.max_scenarios_per_job,
                actual=len(spec.scenarios),
            )
        if engine is None:
            engine = self.engine if self.engine is not None else spec.engine
        if workers is None:
            workers = self.pool_size or 1
        if profile is None:
            profile = self.profile
        if retries is None:
            retries = (
                spec.retries if spec.retries is not None else self.retries
            )
        job_id = f"job-{next(self._ids):06d}"
        job = Job(
            job_id, spec, engine, workers, profile=profile,
            timeout_s=timeout_s, retries=retries,
        )
        with self._lock:
            self._jobs[job_id] = job
            self._order.append(job_id)
            self._ensure_dispatcher()
        self._queue.put(job_id)
        return job_id

    def job(self, job_id: str) -> Job:
        try:
            return self._jobs[job_id]
        except KeyError:
            raise KeyError(f"unknown job id {job_id!r}") from None

    def status(self, job_id: str) -> dict[str, Any]:
        """JSON-safe snapshot of one job's progress."""
        return self.job(job_id).status()

    def result(
        self, job_id: str, wait: bool = True, timeout: float | None = None
    ) -> dict[str, Any]:
        """The job's aggregated campaign report (blocking by default).

        Raises :class:`TimeoutError` if *wait* expires and
        :class:`RuntimeError` if the job failed before producing a
        report (dispatcher-level failure, not scenario failures —
        those are ordinary rows in the report).
        """
        job = self.job(job_id)
        if wait and not job.done_event.wait(timeout):
            raise TimeoutError(f"job {job_id} not finished")
        if job.report is None:
            if job.error is not None:
                raise RuntimeError(f"job {job_id} failed: {job.error}")
            raise RuntimeError(f"job {job_id} has no report yet")
        return job.report

    def cancel(self, job_id: str) -> bool:
        """Request cancellation; True if the job was still cancellable.

        Queued jobs are cancelled before any scenario runs; a running
        job stops dispatching new scenarios (in-flight ones finish) and
        its remaining rows are reported ``status="cancelled"``.
        """
        job = self.job(job_id)
        if job.done_event.is_set():
            return False
        job.cancel_event.set()
        return True

    def list_jobs(self) -> list[dict[str, Any]]:
        """Status snapshots for every job, in submission order."""
        with self._lock:
            order = list(self._order)
        return [self._jobs[job_id].status() for job_id in order]

    def stats(self) -> dict[str, Any]:
        """Service health: queue depth, worker liveness, cache rates."""
        with self._lock:
            states: dict[str, int] = {}
            for job in self._jobs.values():
                states[job.state] = states.get(job.state, 0) + 1
        pool = self._pool if self.pool_size else None
        lookups = self.dedup_hits + self.dedup_misses
        queued = states.get("queued", 0)
        return {
            "uptime_s": round(time.time() - self._started_at, 3),
            "queue_depth": queued,
            "jobs": states,
            # Admission-control view: are we turning work away, and how
            # close to the queue quota are we (saturation 1.0 = full).
            "admission": {
                "draining": self._draining,
                "max_queued_jobs": self.max_queued_jobs,
                "max_scenarios_per_job": self.max_scenarios_per_job,
                "rejected": dict(self._rejected),
                "saturation": (
                    round(queued / self.max_queued_jobs, 4)
                    if self.max_queued_jobs
                    else None
                ),
            },
            "workers": {
                "configured": self.pool_size,
                "mode": "pool" if self.pool_size else "inline",
                "alive": pool.alive() if pool is not None else [],
                "respawns": self._respawns if self.pool_size else 0,
            },
            # Since-service-start dedup accounting (always present, even
            # store-less, so clients can assert on it unconditionally);
            # "store" remains the store's own lifetime view.
            "dedup": {
                "hits": self.dedup_hits,
                "misses": self.dedup_misses,
                "hit_rate": (
                    round(self.dedup_hits / lookups, 4) if lookups else 0.0
                ),
                "store_entries": (
                    len(self.store) if self.store is not None else 0
                ),
            },
            "store": self.store.stats() if self.store is not None else None,
        }

    # -- observability --------------------------------------------------

    def render_metrics(self) -> str:
        """Prometheus text exposition (0.0.4) of the service's state.

        Every series is derived at scrape time from state the service
        keeps anyway (the job table, each job's rows and event log, the
        dedup and admission tallies, the pool), so no fact is counted
        twice.  Counters are service-lifetime totals; the histograms
        observe each terminal job's wall time and each finished row's
        ``duration_s`` (cached rows observe 0).  Safe to call from any
        thread while jobs run.  Content type:
        :data:`METRICS_CONTENT_TYPE`.
        """
        with self._lock:
            jobs = [self._jobs[job_id] for job_id in self._order]
            rejected = dict(self._rejected)
        rows = [row for job in jobs for row in list(job.rows.values())]
        finished = [job for job in jobs if job.state in TERMINAL_STATES]
        pool = self._pool if self.pool_size else None
        timeouts = sum(
            len(event["keys"])
            for job in jobs
            for event in list(job.events_log)
            if event["event"] == "watchdog" and event["reason"] == "timeout"
        )
        series = (
            ("repro_jobs_submitted_total", "counter",
             "Campaign jobs accepted by submit().", [("", len(jobs))]),
            ("repro_jobs_completed_total", "counter",
             "Jobs that reached a terminal state.",
             _labelled("state", Counter(job.state for job in finished))),
            ("repro_job_duration_seconds", "histogram",
             "Wall time from job start to terminal state.",
             _histogram([
                 job.finished_at - job.started_at
                 for job in finished if job.started_at is not None
             ])),
            ("repro_scenario_duration_seconds", "histogram",
             "Per-scenario simulation wall time (cached rows observe 0).",
             _histogram([
                 float(row.get("duration_s") or 0.0) for row in rows
             ])),
            ("repro_scenarios_completed_total", "counter",
             "Scenario rows produced, by final status.",
             _labelled("status", Counter(
                 str(row.get("status", "unknown")) for row in rows
             ))),
            ("repro_dedup_lookups_total", "counter",
             "Result-store lookups before dispatch.",
             _labelled("result", {
                 "hit": self.dedup_hits, "miss": self.dedup_misses,
             })),
            ("repro_ensemble_fallbacks_total", "counter",
             "Scenario rows of ensemble units that fell back to serial "
             "execution.",
             [("", sum(1 for row in rows if row.get("ensemble") == "fallback"))]),
            ("repro_queue_depth", "gauge",
             "Jobs waiting in the dispatch queue.",
             [("", sum(1 for job in jobs if job.state == "queued"))]),
            ("repro_pool_inflight", "gauge",
             "Units currently executing on pool workers.",
             [("", self._inflight)]),
            ("repro_pool_workers", "gauge",
             "Configured worker-pool size (0 = inline).",
             [("", self.pool_size)]),
            ("repro_pool_workers_alive", "gauge",
             "Worker processes currently alive.",
             [("", sum(pool.alive()) if pool is not None else 0)]),
            ("repro_worker_respawns_total", "counter",
             "Dead worker processes replaced with fresh (cold-cache) ones.",
             [("", self._respawns if self.pool_size else 0)]),
            ("repro_scenario_timeouts_total", "counter",
             "Scenario rows that blew their unit deadline (counted per "
             "attempt, before any retry).", [("", timeouts)]),
            ("repro_scenario_retries_total", "counter",
             "Retried scenario rows (final attempt > 1), by final status.",
             _labelled("outcome", Counter(
                 str(row.get("status", "unknown"))
                 for row in rows if row.get("attempts", 1) > 1
             ))),
            ("repro_jobs_rejected_total", "counter",
             "Submissions rejected by admission control, by reason.",
             _labelled("reason", rejected)),
            ("repro_drain_seconds", "gauge",
             "Duration of the last graceful drain (0 until one happens).",
             [("", self._drain_seconds or 0)]),
        )
        lines: list[str] = []
        for name, kind, help_text, samples in series:
            lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {kind}")
            lines.extend(
                f"{name}{suffix} {_number(value)}" for suffix, value in samples
            )
        return "\n".join(lines) + "\n"

    def trace(self, job_id: str) -> list[dict[str, Any]]:
        """The job's merged span list (dispatcher + workers), start-ordered.

        Spans follow the schema in :mod:`repro.obs.trace`: job -> unit
        -> scenario -> build/simulate/metrics, every span carrying the
        job id as ``trace_id`` and pool-worker spans tagged
        ``worker=<index>``.  Safe to call while the job is running —
        returns the spans finished so far.
        """
        job = self.job(job_id)
        spans: list[dict[str, Any]] = []
        if job.tracer is not None:
            spans.extend(job.tracer.spans())
        spans.extend(job.worker_spans)
        spans.sort(key=lambda s: (s.get("start_unix", 0.0), s.get("span_id", "")))
        return spans

    def events(self, job_id: str, timeout: float | None = None):
        """Yield the job's progress events: replay, then live, then stop.

        Replays the full event log from the start (so late subscribers
        see every scenario), then streams live events until a terminal
        ``{"event": "job", "state": <terminal>}`` arrives, which is
        yielded and ends the generator.  *timeout* bounds the wait for
        each live event; expiry raises :class:`TimeoutError` (a
        finished job never raises — its log already ends terminally).
        """
        job = self.job(job_id)
        backlog, sub = job.subscribe()
        with self._lock:
            self._active_streams += 1
        try:
            last_seq = -1
            for event in backlog:
                last_seq = event["seq"]
                yield event
                if event.get("event") == "job" and (
                    event.get("state") in TERMINAL_STATES
                ):
                    return
            while True:
                try:
                    event = sub.get(timeout=timeout)
                except queue.Empty:
                    raise TimeoutError(
                        f"no event from job {job_id} within {timeout}s"
                    ) from None
                if event["seq"] <= last_seq:  # replay/live overlap
                    continue
                last_seq = event["seq"]
                yield event
                if event.get("event") == "job" and (
                    event.get("state") in TERMINAL_STATES
                ):
                    return
        finally:
            with self._lock:
                self._active_streams -= 1
            job.unsubscribe(sub)

    def _note_row(self, job: Job, row: dict[str, Any], total: int) -> None:
        """Account one finished scenario row: deadline samples + progress event."""
        status = str(row.get("status", "unknown"))
        if status == "ok" and not row.get("cached"):
            # Fresh-run durations feed the derived-deadline estimate.
            self._durations.setdefault(
                str(row.get("family")), deque(maxlen=64)
            ).append(float(row.get("duration_s") or 0.0))
        job.publish(
            {
                "event": "scenario",
                "key": row.get("key"),
                "index": row.get("index"),
                "status": status,
                "cached": bool(row.get("cached")),
                "completed": job.completed,
                "total": total,
            }
        )

    # -- dispatcher -----------------------------------------------------

    def _dispatch_loop(self) -> None:
        while True:
            job_id = self._queue.get()
            if job_id is None:
                return
            job = self._jobs[job_id]
            try:
                self._run_job(job)
            except Exception:  # pragma: no cover - defensive
                # The terminal event must go out even on dispatcher
                # failure — it is what ends every events() stream.
                job.error = traceback.format_exc()
                self._finish(job, "failed", error=job.error)

    def _finish(self, job: Job, state: str, **event: Any) -> None:
        """Settle *job* in terminal *state*: terminal event, waiters.

        ``finished_at`` is set before ``state``: a concurrent scrape
        that sees a terminal state reads a finished job's duration.
        """
        job.finished_at = time.time()
        job.state = state
        job.publish({"event": "job", "state": state, **event})
        job.done_event.set()

    def _run_job(self, job: Job) -> None:
        job.state = "running"
        job.started_at = time.time()
        job.tracer = Tracer(trace_id=job.id)
        job.span = job.tracer.span(
            "job",
            campaign=job.spec.name,
            engine=job.engine,
            workers=job.workers,
            scenarios=len(job.spec.scenarios),
        )
        job.publish({"event": "job", "state": "running"})
        total = len(job.spec.scenarios)
        rows = job.rows
        pending = []
        for scenario in job.spec.scenarios:
            if self.store is not None and not job.cancel_event.is_set():
                cached = self.store.get(scenario.result_key())
                if cached is not None:
                    cached["index"] = scenario.index
                    cached["shard"] = None
                    cached["cached"] = True
                    cached["duration_s"] = 0.0
                    rows[scenario.index] = cached
                    self.dedup_hits += 1
                    with job.tracer.span(
                        "scenario", parent=job.span, key=scenario.key,
                        cached=True,
                    ):
                        pass
                    self._note_row(job, cached, total)
                    continue
                self.dedup_misses += 1
            pending.append(scenario)
        if pending:
            self._run_units(job, pending)
        if self.store is not None:
            for scenario in pending:
                row = rows.get(scenario.index)
                if row is not None and not row.get("cached"):
                    self.store.put(scenario.result_key(), row)
        ordered = [rows[index] for index in sorted(rows)]
        elapsed = time.time() - job.started_at
        job.report = aggregate(
            job.spec, ordered, engine=job.engine, workers=job.workers,
            elapsed_s=elapsed,
        )
        if job.dedup_hits:
            job.report["summary"]["dedup_hits"] = job.dedup_hits
        state = "cancelled" if job.cancel_event.is_set() else "done"
        job.span.set(state=state)
        job.span.end()
        summary = job.report["summary"]
        self._finish(
            job,
            state,
            ok=summary["ok"],
            failed=summary["failed"],
            completed=job.completed,
            total=total,
            elapsed_s=round(elapsed, 4),
        )

    # -- deadlines and retries ------------------------------------------

    def _derived_timeout_s(self, family: str) -> float | None:
        """Deadline estimate from the family's recent ok durations.

        None until :data:`_TIMEOUT_MIN_SAMPLES` fresh samples exist —
        a family with no track record gets no derived deadline (only
        explicit ``timeout_s`` values apply), so a cold first run can
        never be killed by a miscalibrated estimate.
        """
        samples = self._durations.get(family)
        if samples is None or len(samples) < _TIMEOUT_MIN_SAMPLES:
            return None
        ordered = sorted(samples)
        p95 = ordered[min(len(ordered) - 1, int(0.95 * len(ordered)))]
        return max(_TIMEOUT_FLOOR_S, _TIMEOUT_P95_MULTIPLE * p95)

    def _resolve_timeout_s(self, job: Job, scenario) -> float | None:
        """One scenario's deadline: submit > scenario > spec > derived
        > service default; None means run unbounded."""
        for explicit in (
            job.timeout_s, scenario.timeout_s, job.spec.timeout_s,
        ):
            if explicit is not None:
                return explicit
        derived = self._derived_timeout_s(scenario.family)
        if derived is not None:
            return derived
        return self.default_timeout_s

    def _unit_deadline(self, job: Job, unit) -> float | None:
        """A unit's deadline: the laxest member deadline, or None.

        A unit is one simulation (ensemble lanes advance in lockstep),
        so any member without a deadline makes the whole unit
        unbounded — a deadline must never kill a scenario that did not
        opt into one.
        """
        timeouts = [self._resolve_timeout_s(job, s) for s in unit]
        if any(t is None for t in timeouts):
            return None
        return max(timeouts)

    # -- execution ------------------------------------------------------

    def _run_units(self, job: Job, pending) -> None:
        """Warm-set pull execution across the worker pool.

        The one execution path of both modes: inline is a pool of one
        thread worker.  Units (not single scenarios) are the message
        granularity: every scenario in a unit shares one design key.
        Placement follows the pool's warm sets (cache key -> workers
        holding the built design), so which workers build which design
        is a pure function of the job stream:

        * a design nobody holds is built on its affinity worker
          (:func:`design_affinity`);
        * a job whose design is held by some but not all workers pins
          one of its units to the next cold worker in affinity
          rotation, so each job adds at most one holder per design;
        * every other unit goes to whichever holder is free first.

        The dispatcher is also the watchdog: each poll-timeout tick it
        checks every in-flight unit's worker for death and its deadline
        for expiry; either verdict fails (or retries) the whole unit and
        kills and respawns the worker, which leaves every warm set.
        Retried units wait out their backoff at the back of the queue,
        so siblings run meanwhile, and are pinned to the worker after
        the one that failed — dodging both a possibly poisoned cache
        and the cold respawn.  Cancellation stops dispatching:
        in-flight units finish (an ensemble batch is one simulation),
        waiting ones are reported ``status="cancelled"``.
        """
        pool = self._ensure_pool()
        # (unit, cache key, attempt, not before (unix s), pinned worker)
        waiting: list[tuple] = []
        grown: set[tuple] = set()
        for unit in plan_units(pending, self.ensemble):
            key = (unit[0].design_key(), job.engine, len(unit) > 1)
            pin = None
            if pool.warm.get(key) and key not in grown:
                grown.add(key)
                pin = pool.next_cold(key)
            waiting.append((unit, key, 1, 0.0, pin))
        # widx -> (token, unit, key, attempt, deadline | None, timeout_s)
        inflight: dict[int, tuple] = {}
        remaining = len(pending)
        total = len(job.spec.scenarios)
        opts = {
            "profile": job.profile,
            "trace_id": job.id,
            "parent": job.span.span_id,
        }

        def account(row: dict[str, Any]) -> None:
            nonlocal remaining
            job.rows[row["index"]] = row
            self._note_row(job, row, total)
            remaining -= 1

        def fail(i: int, status: str, message: str) -> None:
            """Watchdog verdict on worker *i*: retry or finalize its unit.

            Publishes the watchdog event; then either re-enqueues the
            unit with exponential backoff (plus a retry event and a
            point span) or finalizes every row as *status* — and
            respawns the worker either way.
            """
            _token, unit, key, attempt, _deadline, _timeout_s = (
                inflight.pop(i)
            )
            will_retry = (
                status in RETRYABLE_STATUSES
                and attempt <= job.retries
                and not job.cancel_event.is_set()
            )
            keys = [scenario.key for scenario in unit]
            job.publish(
                {
                    "event": "watchdog",
                    "reason": status,
                    "worker": i,
                    "keys": keys,
                    "attempt": attempt,
                    "retrying": will_retry,
                }
            )
            if will_retry:
                backoff = _RETRY_BACKOFF_S * (2 ** (attempt - 1))
                with job.tracer.span(
                    "retry",
                    parent=job.span,
                    reason=status,
                    attempt=attempt + 1,
                    scenarios=len(unit),
                    backoff_s=backoff,
                ):
                    pass
                job.publish(
                    {
                        "event": "retry",
                        "keys": keys,
                        "attempt": attempt + 1,
                        "backoff_s": backoff,
                        "reason": status,
                    }
                )
                waiting.append((
                    unit, key, attempt + 1, time.time() + backoff,
                    (i + 1) % pool.size,
                ))
            else:
                for row in _status_rows(unit, i, status, message):
                    row["attempts"] = attempt
                    account(row)
            pool.respawn(i)
            self._respawns += 1

        while remaining:
            if job.cancel_event.is_set():
                for unit, *_rest in waiting:
                    for row in _status_rows(
                        unit, None, "cancelled",
                        "job cancelled before this scenario ran",
                    ):
                        account(row)
                waiting.clear()
                if not inflight:
                    break
            now = time.time()
            still_waiting = []
            for entry in waiting:
                unit, key, attempt, ready_at, pin = entry
                holders = pool.warm.setdefault(key, [])
                if pin is None and not holders:
                    pin = pool.next_cold(key)
                if ready_at > now:
                    i = None  # still backing off
                elif pin is not None:
                    i = None if pin in inflight else pin
                else:
                    i = next((h for h in holders if h not in inflight), None)
                if i is None:
                    still_waiting.append(entry)
                    continue
                if i not in holders:
                    holders.append(i)
                token = (job.id, next(self._tokens))
                pool.workers[i].tasks.put((token, unit, job.engine, opts))
                timeout_s = self._unit_deadline(job, unit)
                deadline = now + timeout_s if timeout_s is not None else None
                inflight[i] = (token, unit, key, attempt, deadline, timeout_s)
            waiting = still_waiting
            if self.pool_size:  # inline mode reports no pool
                self._inflight = len(inflight)
            try:
                result = pool.results.get(timeout=_POLL_S)
            except queue.Empty:
                now = time.time()
                for i in list(inflight):
                    *_entry, deadline, timeout_s = inflight[i]
                    worker = pool.workers[i]
                    if not worker.alive():
                        fail(
                            i, "worker-failed",
                            f"worker {i} died (exit code "
                            f"{getattr(worker.runner, 'exitcode', None)})",
                        )
                    elif deadline is not None and now > deadline:
                        fail(
                            i, "timeout",
                            f"unit blew its {timeout_s:.1f}s deadline on "
                            f"worker {i} (worker {worker.kill()} and "
                            "respawned)",
                        )
                continue
            if type(result) is bytes:  # pickled by a process worker
                result = pickle.loads(result)
            widx, token, unit_rows, spans = result
            entry = inflight.get(widx)
            if entry is None or entry[0] != token:
                # A stale result: it answers a dispatch the watchdog
                # already failed, or another job's — never this one.
                continue
            inflight.pop(widx)
            attempt = entry[3]
            job.worker_spans.extend(spans)
            for row in unit_rows:
                row["attempts"] = attempt
                account(row)
        self._inflight = 0
