"""Unified observability layer: profiler, tracing, metrics.

Stdlib-only.  Three independent pieces sharing one design rule — zero
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

``repro.obs.metrics``
    :class:`MetricsRegistry` with counters / gauges / histograms,
    rendered in Prometheus text exposition format (0.0.4).
"""

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.profile import KernelProfiler, ProfileSession
from repro.obs.trace import NullTracer, Span, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "KernelProfiler",
    "MetricsRegistry",
    "NullTracer",
    "ProfileSession",
    "Span",
    "Tracer",
]
