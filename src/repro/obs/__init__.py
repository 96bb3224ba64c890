"""Unified observability layer: profiler and tracing.

Stdlib-only.  Two independent pieces sharing one design rule — zero
cost when off, no behavioural impact when on:

``repro.obs.profile``
    :class:`KernelProfiler` — per-component / per-region / per-phase
    wall-time attribution for a :class:`~repro.kernel.simulator.Simulator`.
    Attaches by recompiling the engine with timing wrappers (never by
    registering an observer) and detaches by recompiling them back out.

``repro.obs.trace``
    :class:`Tracer` / :class:`Span` — hierarchical spans
    (job -> unit -> scenario -> build/simulate/metrics) with ids and
    monotonic-clock durations, serialized as JSONL and merged across
    worker processes.

The service's Prometheus ``/metrics`` exposition has no registry of its
own: :meth:`repro.sweep.jobs.JobService.render_metrics` derives every
series at scrape time from the service's job table.
"""

from repro.obs.profile import KernelProfiler, ProfileSession
from repro.obs.trace import NullTracer, Span, Tracer

__all__ = [
    "KernelProfiler",
    "NullTracer",
    "ProfileSession",
    "Span",
    "Tracer",
]
