"""Built-in design families and the shared workload factories.

The ``make_*`` factories here are the single home of the pipeline
builders the benchmark harness imports: an MT pipeline, the
bursty variant, the dense shared-function chain and the recirculating
elastic ring.  On top of them, this module registers the campaign
design families (see :mod:`repro.sweep.registry`):

========================  =====================================  =========
family                    structural params                      reusable
========================  =====================================  =========
``mt_pipeline``           threads, n_stages, meb, width          yes
``mt_chain``              threads, n_funcs, width                yes
``mt_ring``               threads, n_funcs, trips, width         yes
``md5``                   threads, meb, round_stages             yes
``processor``             threads, meb                           yes
========================  =====================================  =========

Reusable families are built once per worker and rewound between
scenarios through the kernel's columnar snapshot/restore; traffic is
applied exclusively through ``push`` so a warm simulator never needs a
recompile.  The application families qualify too: the processor keeps
all driver state in components, and the MD5 hasher registers its round
counter and wave reference as snapshot hooks.  Stimulus kinds for the
channel families:

* ``uniform`` — ``items_per_thread`` items on every thread.
* ``active`` — the 1/M-law shape: ``items_per_thread`` items on the
  first ``active`` threads, the rest idle.
* ``random`` — per-thread item counts drawn from
  ``[items_min, items_max]`` with the scenario's deterministic seed.
* ``bursty`` — ``bursts`` rounds of ``burst`` items per thread, each
  followed by a fixed ``gap``-cycle window (the settle+tick fusion
  shape).

Any of these may carry ``variants`` — a list of stimulus blocks run
from a shared branch point: the base stimulus plus ``warmup_cycles``
are simulated once, one snapshot marks the branch, and every variant
replays from it and is rewound to it
(:meth:`~repro.kernel.simulator.Simulator.restore`), so the warm-up and
the snapshot are paid once per scenario instead of once per variant.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Sequence

from repro.analysis.throughput import (
    channel_stats,
    fairness_index,
    steady_state_window,
)
from repro.core import (
    FullMEB,
    GrantPolicy,
    MBranch,
    MMerge,
    MTChannel,
    MTFunction,
    MTMonitor,
    MTSink,
    MTSource,
    ReducedMEB,
)
from repro.cost.model import AreaModel, TimingModel
from repro.elastic.endpoints import Pattern
from repro.kernel import Component, Simulator, build
from repro.kernel.ensemble import EnsembleContext, lift_simulator
from repro.kernel.simulator import WatchedPredicate
from repro.sweep.registry import EnsembleSupport, Family, register_family
from repro.sweep.spec import ScenarioSpec

MEB_KINDS = {"full": FullMEB, "reduced": ReducedMEB}


# ----------------------------------------------------------------------
# shared workload factories
# ----------------------------------------------------------------------

def make_mt_pipeline(
    meb_cls,
    threads: int,
    items: Sequence[Iterable[Any]],
    n_stages: int = 2,
    src_patterns: Sequence[Pattern] | Mapping[int, Pattern] | None = None,
    sink_patterns: Sequence[Pattern] | Mapping[int, Pattern] | None = None,
    policy: GrantPolicy = GrantPolicy.MASKED_FALLBACK,
    width: int = 32,
    engine: str | None = None,
):
    """source -> MEB^n_stages -> sink with a monitor on every channel."""
    chans = [
        MTChannel(f"ch{i}", threads=threads, width=width)
        for i in range(n_stages + 1)
    ]
    source = MTSource("src", chans[0], items=items, patterns=src_patterns)
    mebs = [
        meb_cls(f"meb{i}", chans[i], chans[i + 1], policy=policy)
        for i in range(n_stages)
    ]
    sink = MTSink("snk", chans[-1], patterns=sink_patterns)
    monitors = [MTMonitor(f"mon{i}", ch) for i, ch in enumerate(chans)]
    sim = build(*chans, source, *mebs, sink, *monitors, engine=engine)
    return sim, source, sink, mebs, monitors


def make_mt_bursty(
    meb_cls,
    threads: int,
    n_stages: int = 2,
    width: int = 32,
    engine: str | None = None,
):
    """An MT pipeline fed in bursts with long quiescent gaps.

    Built like :func:`make_mt_pipeline` (monitors included) but with
    empty source streams: the caller pushes a burst of items per thread,
    runs a fixed-length window (``sim.run(cycles=gap)``), and repeats.
    Once a burst drains, the design is fully quiescent for the rest of
    the window — the workload shape the compiled engine's settle+tick
    fusion batches, while an unfused run still pays per-cycle
    scheduling and the full tick dispatch.
    """
    items = [[] for _ in range(threads)]
    return make_mt_pipeline(
        meb_cls, threads=threads, items=items, n_stages=n_stages,
        width=width, engine=engine,
    )


def make_mt_chain(
    threads: int,
    n_funcs: int,
    n_items: int,
    width: int = 32,
    engine: str | None = None,
    with_monitor: bool = False,
    sink_patterns: Sequence[Pattern] | Mapping[int, Pattern] | None = None,
):
    """source -> MEB -> shared-function chain -> MEB -> sink.

    The paper's §I motif — one copy of the datapath logic serving all
    threads time-multiplexed — as a pure dense chain: every stage is a
    combinational :class:`MTFunction`, so the settle phase dominates and
    the declared dependency graph is one long acyclic run (the compiled
    engine fuses it into a single straight-line function).

    ``with_monitor=True`` adds an output-channel monitor and returns it
    as a fourth element (the campaign runner's measurement point); the
    default keeps the monitor-free three-tuple the perf benchmarks time.
    """
    chans = [
        MTChannel(f"c{i}", threads=threads, width=width)
        for i in range(n_funcs + 3)
    ]
    source = MTSource(
        "src", chans[0],
        items=[list(range(n_items)) for _ in range(threads)],
    )
    meb_in = FullMEB("meb_in", chans[0], chans[1])
    funcs = [
        MTFunction(
            f"f{k}", chans[1 + k], chans[2 + k],
            fn=(lambda x, k=k: (x * 7 + k) & 0xFFFF), pure=True,
        )
        for k in range(n_funcs)
    ]
    meb_out = FullMEB("meb_out", chans[n_funcs + 1], chans[n_funcs + 2])
    sink = MTSink("snk", chans[-1], patterns=sink_patterns)
    extra = [MTMonitor("out_mon", chans[-1])] if with_monitor else []
    sim = build(*chans, source, meb_in, *funcs, meb_out, sink, *extra,
                engine=engine)
    if with_monitor:
        return sim, source, sink, extra[0]
    return sim, source, sink


def make_mt_ring(
    threads: int,
    n_funcs: int,
    trips: int,
    width: int = 32,
    engine: str | None = None,
    items: Sequence[Iterable[Any]] | None = None,
    with_monitor: bool = False,
):
    """Recirculating elastic ring: merge -> MEB -> functions -> branch.

    The MD5-style loop topology (paper Fig. 1) distilled to the
    substrate: one token per thread makes *trips* passes around the
    ring before the branch releases it.  The whole ring is one cyclic
    SCC, exercising the engines' worklist path with ~every member
    switching every cycle.  Ring tokens are ``(value, trip_count)``
    pairs; *items* overrides the default one-token-per-thread streams
    (pass empty streams for push-based stimulus), and
    ``with_monitor=True`` appends an exit-channel monitor as a fourth
    return element.
    """
    c_new = MTChannel("c_new", threads, width)
    c_loop = MTChannel("c_loop", threads, width)
    c_rec = MTChannel("c_rec", threads, width)
    c_out = MTChannel("c_out", threads, width)
    c_fin = MTChannel("c_fin", threads, width)
    inner = [MTChannel(f"ci{k}", threads, width) for k in range(n_funcs + 1)]
    if items is None:
        items = [[(t, 0)] for t in range(threads)]
    source = MTSource("src", c_new, items=items)
    merge = MMerge("merge", [c_new, c_rec], c_loop)
    meb_in = FullMEB("meb_in", c_loop, inner[0])
    funcs = [
        MTFunction(
            f"f{k}", inner[k], inner[k + 1],
            fn=(lambda d, k=k: ((d[0] * 5 + k) & 0xFFFF, d[1])), pure=True,
        )
        for k in range(n_funcs)
    ]
    meb_out = FullMEB("meb_out", inner[-1], c_out)
    branch = MBranch(
        "br", c_out, [c_rec, c_fin],
        selector=lambda d: 1 if d[1] >= trips - 1 else 0,
        route=lambda d: (d[0], d[1] + 1),
    )
    sink = MTSink("snk", c_fin)
    extra = [MTMonitor("out_mon", c_fin)] if with_monitor else []
    sim = build(c_new, c_loop, c_rec, c_out, c_fin, *inner, source, merge,
                meb_in, *funcs, meb_out, branch, sink, *extra,
                engine=engine)
    if with_monitor:
        return sim, source, sink, extra[0]
    return sim, source, sink


# ----------------------------------------------------------------------
# family handles and shared metric helpers
# ----------------------------------------------------------------------

@dataclass
class DesignHandle:
    """What a built channel family hands the campaign runner."""

    sim: Simulator
    source: Any
    sink: Any
    monitor: Any                      # the output-channel monitor
    area_components: list[Component] = field(default_factory=list)
    threads: int = 0


def _cost_metrics(components: Iterable[Component]) -> dict:
    """Fold the structural inventory through the Table-I cost models.

    ``fmax_mhz`` is the wire-dominated relative estimate (zero logic
    depth): meaningful for comparing points of one sweep, not as an
    absolute frequency.
    """
    model = AreaModel()
    total = None
    for comp in components:
        area = model.component_area(comp)
        total = area if total is None else total + area
    if total is None:
        return {}
    timing = TimingModel()
    return {
        "area_le": round(total.total_le, 1),
        "ff_bits": total.ff_bits,
        "mux_bits": total.mux_bits,
        "luts": total.luts,
        "fmax_mhz": round(timing.fmax_mhz(0.0, total.total_le), 2)
        if total.total_le > 0
        else None,
    }


def _channel_metrics(handle: DesignHandle, metrics: Mapping[str, Any]) -> dict:
    """Throughput/utilization numbers over the scenario's window."""
    monitor = handle.monitor
    warmup = int(metrics.get("warmup", 0))
    drain = int(metrics.get("drain", 0))
    if metrics.get("window", "steady") == "steady" and (warmup or drain):
        window = steady_state_window(monitor, warmup=warmup, drain=drain)
    else:
        window = (0, max(1, monitor.cycles_observed))
    stats = channel_stats(monitor, *window)
    per_thread = [ts.throughput for ts in stats.per_thread]
    return {
        "cycles": handle.sim.cycle,
        "window": list(window),
        "transfers": stats.transfers,
        "utilization": stats.utilization,
        "per_thread_throughput": per_thread,
        "fairness": fairness_index([tp for tp in per_thread if tp > 0]),
    }


def _item_value(thread: int, k: int) -> int:
    return (thread << 16) | (k & 0xFFFF)


def _seeded_item(seed: int):
    """Payload generator for ``payload = "seeded"`` stimulus.

    Item values are derived from the scenario seed with sha256 (not
    Python's randomized ``hash``), so they are reproducible across
    processes and Python versions.  Two scenarios differing only in
    ``payload_salt`` get different seeds (the salt is part of the
    scenario key the seed derives from) and therefore different
    payloads on identical control schedules — exactly the shape
    ensemble batching wants.
    """
    prefix = str(seed)

    def make(thread: int, k: int) -> int:
        digest = hashlib.sha256(f"{prefix}|{thread}|{k}".encode()).digest()
        return int.from_bytes(digest[:4], "big")

    return make


def _make_item_for(scenario: ScenarioSpec):
    """Resolve the scenario's payload generator (default or seeded)."""
    if scenario.stimulus.get("payload") == "seeded":
        return _seeded_item(scenario.seed)
    return _item_value


def _payload_digest(triples: Iterable[tuple]) -> str:
    """Order-sensitive digest of ``(cycle, thread, data)`` sink triples.

    Emitted as the ``payload_digest`` metric for seeded-payload
    scenarios; an ensemble-batched lane must reproduce its serial run's
    digest bit-for-bit, which pins both the data path *and* the exact
    transfer schedule.
    """
    h = hashlib.sha256()
    for cyc, thread, data in triples:
        h.update(f"{cyc}|{thread}|{data!r};".encode())
    return h.hexdigest()


def _per_thread_counts(
    threads: int, stimulus: Mapping[str, Any], seed: int
) -> list[int]:
    """Resolve a stimulus block into per-thread item counts."""
    kind = stimulus.get("kind", "uniform")
    if kind == "uniform":
        return [int(stimulus.get("items_per_thread", 16))] * threads
    if kind == "active":
        active = int(stimulus.get("active", threads))
        n = int(stimulus.get("items_per_thread", 16))
        return [n if t < active else 0 for t in range(threads)]
    if kind == "random":
        rng = random.Random(seed)
        lo = int(stimulus.get("items_min", 1))
        hi = int(stimulus.get("items_max", 24))
        return [rng.randint(lo, hi) for _ in range(threads)]
    raise ValueError(f"unknown stimulus kind {kind!r}")


def _push_plan(
    handle: DesignHandle,
    stimulus: Mapping[str, Any],
    seed: int,
    make_item=_item_value,
) -> int:
    """Push one stimulus block's items; returns the number pushed."""
    per_thread = _per_thread_counts(handle.threads, stimulus, seed)
    pushed = 0
    for t, n in enumerate(per_thread):
        for k in range(n):
            handle.source.push(t, make_item(t, k))
        pushed += n
    return pushed


def _drive_to_completion(
    handle: DesignHandle, expected: int, stimulus: Mapping[str, Any]
) -> None:
    base = handle.sink.count
    max_cycles = int(stimulus.get("max_cycles", 50_000))
    sink = handle.sink
    target = base + expected
    # The declared-watch contract lets the simulator batch fully
    # quiescent stretches: a deadlocked scenario reaches its max_cycles
    # diagnosis in one fused step instead of polling every cycle.
    handle.sim.run(
        until=WatchedPredicate(
            lambda _s: sink.count >= target,
            watches=(*sink.channel.valid, *sink.channel.ready),
        ),
        max_cycles=max_cycles,
    )


def _run_channel_scenario(
    handle: DesignHandle,
    scenario: ScenarioSpec,
    make_item=None,
) -> dict:
    stimulus = scenario.stimulus
    kind = stimulus.get("kind", "uniform")
    variants = stimulus.get("variants")
    if make_item is None:
        make_item = _make_item_for(scenario)
    if variants:
        return _run_variants(handle, scenario, make_item)
    if kind == "bursty":
        bursts = int(stimulus.get("bursts", 3))
        burst = int(stimulus.get("burst", 8))
        gap = int(stimulus.get("gap", 200))
        for b in range(bursts):
            for t in range(handle.threads):
                for k in range(burst):
                    handle.source.push(t, make_item(t, b * burst + k))
            handle.sim.run(cycles=gap)
        out = _channel_metrics(handle, scenario.metrics)
    else:
        expected = _push_plan(handle, stimulus, scenario.seed, make_item)
        _drive_to_completion(handle, expected, stimulus)
        out = _channel_metrics(handle, scenario.metrics)
    if stimulus.get("payload") == "seeded":
        out["payload_digest"] = _payload_digest(handle.sink.received)
    out.update(_cost_metrics(handle.area_components))
    return out


def _run_variants(
    handle: DesignHandle, scenario: ScenarioSpec, make_item=None
) -> dict:
    """Variant execution: warm up once, rewind to one branch point per variant."""
    stimulus = scenario.stimulus
    if make_item is None:
        make_item = _make_item_for(scenario)
    base = stimulus.get("base")
    if base:
        _push_plan(handle, base, scenario.seed, make_item)
    warmup_cycles = int(stimulus.get("warmup_cycles", 0))
    if warmup_cycles:
        handle.sim.run(cycles=warmup_cycles)
    results = []
    # Every variant starts from this one branch point.
    point = handle.sim.snapshot()
    for i, variant in enumerate(stimulus["variants"]):
        try:
            expected = _push_plan(
                handle, variant, scenario.seed + i, make_item
            )
            _drive_to_completion(handle, expected, variant)
            row = _channel_metrics(handle, scenario.metrics)
            row["variant"] = i
            results.append(row)
        finally:
            handle.sim.restore(point)
    out = {
        "cycles": handle.sim.cycle,
        "branch_cycle": handle.sim.cycle,
        "variants": results,
    }
    out.update(_cost_metrics(handle.area_components))
    return out


# ----------------------------------------------------------------------
# built-in family definitions
# ----------------------------------------------------------------------

def _meb_cls(params: Mapping[str, Any]):
    kind = str(params.get("meb", "reduced"))
    if kind not in MEB_KINDS:
        raise ValueError(f"meb must be one of {sorted(MEB_KINDS)}")
    return MEB_KINDS[kind]


def _build_mt_pipeline(params: Mapping[str, Any], engine: str | None):
    threads = int(params.get("threads", 4))
    n_stages = int(params.get("n_stages", 2))
    width = int(params.get("width", 32))
    sim, source, sink, mebs, monitors = make_mt_pipeline(
        _meb_cls(params),
        threads=threads,
        items=[[] for _ in range(threads)],
        n_stages=n_stages,
        width=width,
        engine=engine,
    )
    return DesignHandle(
        sim=sim, source=source, sink=sink, monitor=monitors[-1],
        area_components=list(mebs), threads=threads,
    )


def _build_mt_chain(params: Mapping[str, Any], engine: str | None):
    threads = int(params.get("threads", 4))
    n_funcs = int(params.get("n_funcs", 4))
    width = int(params.get("width", 32))
    sim, source, sink, monitor = make_mt_chain(
        threads=threads, n_funcs=n_funcs, n_items=0, width=width,
        engine=engine, with_monitor=True,
    )
    mebs = [sim.find("meb_in"), sim.find("meb_out")]
    return DesignHandle(
        sim=sim, source=source, sink=sink, monitor=monitor,
        area_components=mebs, threads=threads,
    )


def _build_mt_ring(params: Mapping[str, Any], engine: str | None):
    threads = int(params.get("threads", 4))
    n_funcs = int(params.get("n_funcs", 2))
    trips = int(params.get("trips", 4))
    width = int(params.get("width", 32))
    sim, source, sink, monitor = make_mt_ring(
        threads=threads, n_funcs=n_funcs, trips=trips, width=width,
        engine=engine, items=[[] for _ in range(threads)],
        with_monitor=True,
    )
    mebs = [sim.find("meb_in"), sim.find("meb_out"), sim.find("merge"),
            sim.find("br")]
    return DesignHandle(
        sim=sim, source=source, sink=sink, monitor=monitor,
        area_components=mebs, threads=threads,
    )


def _run_mt_ring(handle: DesignHandle, scenario: ScenarioSpec) -> dict:
    """Wave-based ring stimulus: at most one in-flight token per thread.

    A thread's fresh token (on ``c_new``) and its recirculating token
    (on ``c_rec``) would otherwise reach the M-Merge simultaneously — a
    protocol violation — so ``items_per_thread`` is delivered as that
    many complete waves, exactly like the MD5 driver's block waves.
    """
    stimulus = scenario.stimulus
    make_item = _make_item_for(scenario)
    counts = _per_thread_counts(
        handle.threads, stimulus, scenario.seed
    )
    wave = 0
    while any(counts):
        pushed = 0
        for t in range(handle.threads):
            if counts[t]:
                handle.source.push(t, (make_item(t, wave), 0))
                counts[t] -= 1
                pushed += 1
        _drive_to_completion(handle, pushed, stimulus)
        wave += 1
    out = _channel_metrics(handle, scenario.metrics)
    if stimulus.get("payload") == "seeded":
        out["payload_digest"] = _payload_digest(handle.sink.received)
    out.update(_cost_metrics(handle.area_components))
    return out


# ----------------------------------------------------------------------
# ensemble batching for the channel families
# ----------------------------------------------------------------------

def _channel_ensemble_key(scenario: ScenarioSpec):
    """Batching key: scenarios with equal keys are control-identical.

    Only ``payload = "seeded"`` scenarios batch — their payloads differ
    per lane (via ``payload_salt`` and the derived seed) while the item
    *counts*, and therefore every handshake decision, are identical.
    ``random`` stimulus draws per-thread counts from the scenario seed
    (control differs), and ``variants`` fork mid-run; both run serially.
    """
    stim = scenario.stimulus
    if stim.get("payload") != "seeded" or stim.get("variants"):
        return None
    if stim.get("kind", "uniform") == "random":
        return None
    shared = {k: v for k, v in stim.items() if k != "payload_salt"}
    return (
        scenario.family,
        scenario.design_key(),
        json.dumps(shared, sort_keys=True, default=str),
        json.dumps(dict(scenario.metrics), sort_keys=True, default=str),
    )


def _lift_channel_design(handle: DesignHandle) -> EnsembleContext:
    return lift_simulator(handle.sim)


def _ensemble_outcomes(
    handle: DesignHandle,
    ctx: EnsembleContext,
    scenarios: Sequence[ScenarioSpec],
    base: dict,
    cost: dict,
) -> list[tuple[str, Any]]:
    """Per-lane outcome extraction after one lockstep run.

    Control metrics (cycles, window, transfers, utilization, cost) are
    computed once — by construction they are identical across lanes and
    equal to each lane's serial run.  Only ``payload_digest`` is
    per-lane, sliced out of the shared sink log's rows.
    """
    received = handle.sink.received
    outcomes: list[tuple[str, Any]] = []
    for j in range(len(scenarios)):
        err = ctx.failures.get(j)
        if err is not None:
            outcomes.append(("error", err))
            continue
        out = dict(base)
        out["payload_digest"] = _payload_digest(
            (cyc, t, row[j]) for cyc, t, row in received
        )
        out.update(cost)
        outcomes.append(("ok", out))
    return outcomes


def _run_channel_ensemble(
    handle: DesignHandle,
    ctx: EnsembleContext,
    scenarios: Sequence[ScenarioSpec],
) -> list[tuple[str, Any]]:
    """Lockstep run of K control-identical channel-family scenarios.

    Mirrors :func:`_run_channel_scenario` exactly, except every pushed
    item is a row of K per-lane payloads (one per scenario seed).
    """
    ctx.reset(len(scenarios))
    lead = scenarios[0]
    stimulus = lead.stimulus
    kind = stimulus.get("kind", "uniform")
    makers = [_make_item_for(s) for s in scenarios]

    def make_row(t: int, k: int) -> tuple:
        return tuple(mk(t, k) for mk in makers)

    if kind == "bursty":
        bursts = int(stimulus.get("bursts", 3))
        burst = int(stimulus.get("burst", 8))
        gap = int(stimulus.get("gap", 200))
        for b in range(bursts):
            for t in range(handle.threads):
                for k in range(burst):
                    handle.source.push(t, make_row(t, b * burst + k))
            handle.sim.run(cycles=gap)
    else:
        expected = _push_plan(handle, stimulus, lead.seed, make_row)
        _drive_to_completion(handle, expected, stimulus)
    base = _channel_metrics(handle, lead.metrics)
    cost = _cost_metrics(handle.area_components)
    return _ensemble_outcomes(handle, ctx, scenarios, base, cost)


def _run_mt_ring_ensemble(
    handle: DesignHandle,
    ctx: EnsembleContext,
    scenarios: Sequence[ScenarioSpec],
) -> list[tuple[str, Any]]:
    """Lockstep analogue of :func:`_run_mt_ring` (wave-based stimulus)."""
    ctx.reset(len(scenarios))
    lead = scenarios[0]
    stimulus = lead.stimulus
    makers = [_make_item_for(s) for s in scenarios]
    counts = _per_thread_counts(handle.threads, stimulus, lead.seed)
    wave = 0
    while any(counts):
        pushed = 0
        for t in range(handle.threads):
            if counts[t]:
                handle.source.push(
                    t, tuple((mk(t, wave), 0) for mk in makers)
                )
                counts[t] -= 1
                pushed += 1
        _drive_to_completion(handle, pushed, stimulus)
        wave += 1
    base = _channel_metrics(handle, lead.metrics)
    cost = _cost_metrics(handle.area_components)
    return _ensemble_outcomes(handle, ctx, scenarios, base, cost)


_CHANNEL_ENSEMBLE = EnsembleSupport(
    group_key=_channel_ensemble_key,
    lift=_lift_channel_design,
    run=_run_channel_ensemble,
)
_RING_ENSEMBLE = EnsembleSupport(
    group_key=_channel_ensemble_key,
    lift=_lift_channel_design,
    run=_run_mt_ring_ensemble,
)


def _build_md5(params: Mapping[str, Any], engine: str | None):
    from repro.apps.md5 import MD5Hasher

    return MD5Hasher(
        threads=int(params.get("threads", 4)),
        meb=str(params.get("meb", "reduced")),
        round_stages=int(params.get("round_stages", 1)),
        engine=engine,
    )


def _run_md5(hasher, scenario: ScenarioSpec) -> dict:
    stimulus = scenario.stimulus
    count = int(stimulus.get("messages", hasher.threads))
    size = int(stimulus.get("size", 24))
    rng = random.Random(scenario.seed)
    messages = [
        bytes(rng.randrange(256) for _ in range(size)) for _ in range(count)
    ]
    digests = hasher.hash_messages(messages)
    ok = digests == [hashlib.md5(m).hexdigest() for m in messages]
    circuit = hasher.circuit
    cycles = circuit.sim.cycle
    stats = channel_stats(
        circuit.out_monitor, 0, max(1, circuit.out_monitor.cycles_observed)
    )
    out = {
        "cycles": cycles,
        "messages": count,
        "cycles_per_digest": cycles / count,
        "digests_ok": ok,
        "transfers": stats.transfers,
        "utilization": stats.utilization,
        "per_thread_throughput": [
            ts.throughput for ts in stats.per_thread
        ],
    }
    out.update(_cost_metrics(circuit.area_components()))
    return out


def _build_processor(params: Mapping[str, Any], engine: str | None):
    from repro.apps.processor import Processor

    return Processor(
        threads=int(params.get("threads", 4)),
        meb=str(params.get("meb", "reduced")),
        engine=engine,
    )


def _processor_catalog() -> dict[str, Any]:
    """Named processor programs selectable from a stimulus block."""
    from repro.apps.processor import programs

    return {
        "sum": programs.sum_to_n(10),
        "fib": programs.fibonacci(12),
        "gcd": programs.gcd(126, 84),
        "shift": programs.shift_playground(37),
        "spin": programs.spin(15),
    }


def _processor_check(cpu, thread: int, program) -> bool:
    kind, where = program.check
    got = (
        cpu.reg(thread, where) if kind == "reg"
        else cpu.mem_word(thread, where)
    )
    return got == program.expected


def _run_processor(cpu, scenario: ScenarioSpec) -> dict:
    """Drive the processor under one of three stimulus kinds.

    * ``mix`` (default) — every thread runs the standard program mix,
      round-robin, to completion (the kernel benchmark's shape).
    * ``bursty`` — ``bursts`` program phases: each phase loads one
      program per thread from the named ``programs`` set (rotated per
      phase), runs to completion, then idles a fixed ``gap``-cycle
      window — the settle+tick fusion shape, now reachable because the
      whole pipeline runs through compiled tick plans.
    * ``random`` — per-thread program choice drawn from ``programs``
      with the scenario's deterministic seed.

    Every completed program is verified against its architectural
    oracle (``programs_ok``); per-phase/per-thread retirement counts
    land in the metrics so campaign diffs see RunStats-level drift.
    """
    from repro.apps.processor import programs as programs_mod

    stimulus = scenario.stimulus
    kind = stimulus.get("kind", "mix")
    max_cycles = int(stimulus.get("max_cycles", 50_000))
    out: dict[str, Any]
    if kind == "mix":
        mix = programs_mod.standard_mix()
        loaded = [mix[t % len(mix)] for t in range(cpu.threads)]
        for t, program in enumerate(loaded):
            cpu.load_program(t, program.source)
        stats = cpu.run(max_cycles=max_cycles)
        out = {
            "cycles": stats.cycles,
            "retired": stats.total_retired,
            "ipc": stats.ipc,
            "retired_per_thread": list(stats.retired),
            "programs_ok": all(
                _processor_check(cpu, t, program)
                for t, program in enumerate(loaded)
            ),
        }
    elif kind in ("bursty", "random"):
        catalog = _processor_catalog()
        names = list(stimulus.get("programs", ("sum", "fib", "gcd", "spin")))
        unknown = [n for n in names if n not in catalog]
        if unknown:
            raise ValueError(
                f"unknown processor programs {unknown}; "
                f"available: {sorted(catalog)}"
            )
        if len(names) < 2:
            raise ValueError("processor stimulus needs >= 2 programs")
        if kind == "random":
            rng = random.Random(scenario.seed)
            gap = 0
            pick = [
                names[rng.randrange(len(names))] for _ in range(cpu.threads)
            ]
            schedule = [pick]
        else:
            rounds = int(stimulus.get("bursts", 2))
            gap = int(stimulus.get("gap", 150))
            schedule = [
                [names[(b + t) % len(names)] for t in range(cpu.threads)]
                for b in range(rounds)
            ]
        phases = []
        ok = True
        for chosen in schedule:
            before = list(cpu.pc_unit.retired)
            start_cycle = cpu.sim.cycle
            for t, name in enumerate(chosen):
                cpu.load_program(t, catalog[name].source)
            stats = cpu.run(max_cycles=max_cycles)
            ok = ok and all(
                _processor_check(cpu, t, catalog[name])
                for t, name in enumerate(chosen)
            )
            phases.append({
                "programs": list(chosen),
                # Per-phase deltas, like "retired": cycles spent running
                # this wave, excluding the idle gap that follows it.
                "cycles": stats.cycles - start_cycle,
                "retired": [
                    now - prev for now, prev in zip(stats.retired, before)
                ],
            })
            if gap:
                # Fully halted: the idle window is one fused batch under
                # the compiled engine.
                cpu.run_cycles(gap)
        stats = cpu.run_cycles(0)
        out = {
            "cycles": stats.cycles,
            "retired": stats.total_retired,
            "ipc": stats.ipc,
            "retired_per_thread": list(stats.retired),
            "programs_ok": ok,
            "phases": phases,
        }
    else:
        raise ValueError(f"unknown processor stimulus kind {kind!r}")
    out.update(_cost_metrics(cpu.area_components()))
    return out


#: Stimulus kinds every push-driven channel family understands.
_CHANNEL_STIMULUS = ("uniform", "active", "random", "bursty")

register_family(Family(
    name="mt_pipeline",
    build=_build_mt_pipeline,
    run=_run_channel_scenario,
    reusable=True,
    description="source -> MEB^n -> sink (params: threads, n_stages, "
                "meb, width)",
    params={"threads": 4, "n_stages": 2, "meb": "reduced", "width": 32},
    stimulus_kinds=_CHANNEL_STIMULUS,
    ensemble=_CHANNEL_ENSEMBLE,
))
register_family(Family(
    name="mt_chain",
    build=_build_mt_chain,
    run=_run_channel_scenario,
    reusable=True,
    description="MEB-bounded shared-function chain (params: threads, "
                "n_funcs, width)",
    params={"threads": 4, "n_funcs": 4, "width": 32},
    stimulus_kinds=_CHANNEL_STIMULUS,
    ensemble=_CHANNEL_ENSEMBLE,
))
register_family(Family(
    name="mt_ring",
    build=_build_mt_ring,
    run=_run_mt_ring,
    reusable=True,
    description="recirculating elastic ring (params: threads, n_funcs, "
                "trips, width)",
    params={"threads": 4, "n_funcs": 2, "trips": 4, "width": 32},
    stimulus_kinds=("uniform", "active", "random"),
    ensemble=_RING_ENSEMBLE,
))
register_family(Family(
    name="md5",
    build=_build_md5,
    run=_run_md5,
    # The hasher's round counter and wave reference rewind through
    # snapshot hooks, and the barrier's release callback stays bound to
    # the live circuit (callbacks are structure), so a restored hasher
    # is indistinguishable from a fresh build.
    reusable=True,
    description="multithreaded elastic MD5 (params: threads, meb, "
                "round_stages)",
    params={"threads": 4, "meb": "reduced", "round_stages": 1},
    stimulus_kinds=("messages",),
))
register_family(Family(
    name="processor",
    build=_build_processor,
    run=_run_processor,
    # All driver state (instruction memory, armed PCs, register banks,
    # the re-homed stage blocks) lives in components, so one built
    # pipeline rewinds to pristine between scenarios via the kernel
    # snapshot — the campaign-scale proof of the slot-ported stages.
    reusable=True,
    description="multithreaded elastic processor (params: threads, meb; "
                "stimulus kinds: mix, bursty, random over named "
                "programs)",
    params={"threads": 4, "meb": "reduced"},
    stimulus_kinds=("mix", "bursty", "random"),
))
