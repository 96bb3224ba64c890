"""Coverage-guided stimulus fuzzing and fault-injection families.

Two campaign families built on the structural coverage maps of
:mod:`repro.sweep.coverage`:

``fuzz``
    A seeded mutation loop over **wave patterns** — sequences of
    ``(mask, burst, gap)`` waves, where *mask* selects the threads that
    push a *burst* of items before the design runs a *gap*-cycle
    window.  The corpus starts from the grid analogue (the ``active``
    stimulus shapes a classic campaign would enumerate), every pattern
    runs from one branch point of a warm design (one
    :meth:`~repro.kernel.simulator.Simulator.snapshot` per scenario,
    restored after every pattern), and a mutant joins the corpus iff
    it reaches a joint structural signature no earlier pattern
    reached.  Everything is driven by ``random.Random(scenario.seed)``,
    and the scenario seed is itself derived from the campaign seed +
    canonical scenario key, so the mutant sequence and the final
    coverage map are bit-identical across worker counts and settle
    engines.

``fault``
    The defect menagerie of ``tests/test_fault_injection.py`` promoted
    to first-class scenarios: token-dropping and token-duplicating
    MEBs, a producer that withdraws stalled offers, a receiver whose
    ready sticks low, and a shared variable-latency unit with a latency
    spike.  Each scenario arms one fault at a deterministic trigger
    point (``fire_at``) and checks an **oracle**: detectable faults
    (drop / duplicate / stuck valid) must be flagged by the existing
    checkers — conservation report or protocol monitor — and
    survivable ones (stuck ready / latency spike) must leave the
    pipeline consistent.  A fault armed beyond the run window must
    leave the design indistinguishable from a healthy one (the
    ``clean`` outcome), which is what lets the fork==uninterrupted
    differential tests cover these builds too.

Both families report through the common campaign machinery; the new
summary metrics (``coverage_pct``, ``new_states``, ``faults_survived``,
fault-oracle pass rate) are folded in :mod:`repro.sweep.report` and
gated in CI by ``benchmarks/check_coverage_regression.py``.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.analysis import check_token_conservation
from repro.core import (
    FullMEB,
    MTChannel,
    MTMonitor,
    MTSink,
    MTSource,
    MTVariableLatencyUnit,
)
from repro.elastic import ChannelMonitor, ElasticChannel, Sink, Source
from repro.kernel import (
    Component, ProtocolError, SimSnapshot, SimulationError, Simulator, build,
)
from repro.kernel.values import X
from repro.sweep.coverage import CoverageMap
from repro.sweep.families import (
    DesignHandle,
    _cost_metrics,
    _item_value,
    _meb_cls,
    make_mt_chain,
    make_mt_pipeline,
)
from repro.sweep.registry import Family, register_family
from repro.sweep.spec import ScenarioSpec

# ----------------------------------------------------------------------
# fuzz family: wave patterns, mutation operators, the corpus loop
# ----------------------------------------------------------------------

#: A wave is ``(mask, burst, gap, stall)``: threads selected by *mask*
#: each push a *burst* of items, the sink's ready sticks low for the
#: first *stall* cycles of the wave (backpressure — the axis grid
#: stimulus never sweeps), and the design runs a *gap*-cycle window.
#: A pattern is a tuple of waves; plain ints keep patterns hashable,
#: reprable and therefore digestible.
Wave = tuple[int, int, int, int]
Pattern = tuple[Wave, ...]

#: Gap menu for mutations — spans drain-limited to fully-quiescent.
_GAPS = (1, 2, 3, 5, 8, 13, 21)
#: Stall menu — mostly free-flowing, sometimes hard backpressure.
_STALLS = (0, 0, 1, 2, 3, 5, 8)

_FUZZ_BASES = ("mt_pipeline", "mt_chain")


class _StallGate:
    """A per-thread sink-ready gate the pattern runner arms per wave.

    ``until`` is an *absolute* cycle: the sink is stalled while the
    simulator's cycle is below it.  Pure function of the cycle counter,
    so runs stay cycle-identical across engines, and rewinds put
    the cycle (and therefore the gate's behavior) right back.

    The gate copies by identity: it is runner-side *stimulus*, not
    design state, so the kernel snapshot that deep-copies the sink's
    pattern table must keep pointing at the object the pattern runner
    arms (a cloned gate would silently freeze ``until`` at its value
    from snapshot time).
    """

    def __init__(self):
        self.until = 0

    def __call__(self, cycle: int) -> bool:
        return cycle >= self.until

    def __copy__(self):
        return self

    def __deepcopy__(self, _memo):
        return self


def seed_corpus(threads: int, burst: int, gap: int) -> list[Pattern]:
    """The grid analogue: one stall-free wave per ``active``-thread prefix.

    This is exactly the coverage a classic ``active`` stimulus sweep
    reaches, which makes the corpus' pre-mutation coverage the *grid
    baseline* the fuzzer must beat (``baseline_coverage_pct``).
    """
    return [
        (((1 << active) - 1, burst, gap, 0),)
        for active in range(1, threads + 1)
    ]


def mutate_pattern(
    pattern: Pattern, rng: random.Random, threads: int,
    max_burst: int, max_waves: int,
) -> Pattern:
    """One seeded mutation step: tweak, clone, drop or extend a wave."""
    waves = [list(w) for w in pattern]
    op = rng.randrange(7)
    i = rng.randrange(len(waves))
    if op == 0:
        # Flip one thread in the wave's mask (mask 0 is legal: a pure
        # idle wave).
        waves[i][0] ^= 1 << rng.randrange(threads)
    elif op == 1:
        waves[i][1] = max(1, min(max_burst, waves[i][1] + rng.choice((-1, 1))))
    elif op == 2:
        waves[i][2] = rng.choice(_GAPS)
    elif op == 3:
        waves[i][3] = rng.choice(_STALLS)
    elif op == 4 and len(waves) > 1:
        del waves[i]
    elif op == 5 and len(waves) >= 2:
        j = rng.randrange(len(waves))
        waves[i], waves[j] = waves[j], waves[i]
    else:
        # Grow: duplicate or append a fresh wave; when already at the
        # cap, fall back to re-randomizing the wave's mask so this
        # opcode still consumes a fixed draw sequence deterministically.
        if len(waves) < max_waves:
            if rng.randrange(2):
                waves.insert(i, list(waves[i]))
            else:
                waves.append([
                    rng.randrange(1, 1 << threads),
                    rng.randint(1, max_burst),
                    rng.choice(_GAPS),
                    rng.choice(_STALLS),
                ])
        else:
            waves[i][0] = rng.randrange(1, 1 << threads)
    return tuple(tuple(w) for w in waves)


def _evaluate_pattern(
    handle: DesignHandle, pattern: Pattern, max_cycles: int,
    point: SimSnapshot,
) -> int:
    """Run one pattern from the branch *point*; return cycles spent.

    The design is rewound to *point* on exit, so every pattern sees the
    identical pristine design; the attached :class:`CoverageMap`
    deliberately survives the rewind and keeps accumulating.
    """
    sim = handle.sim
    gates = handle.stall_gates
    try:
        start = sim.cycle
        base = handle.sink.count
        pushed = 0
        for mask, burst, gap, stall in pattern:
            for t in range(handle.threads):
                if (mask >> t) & 1:
                    for k in range(burst):
                        handle.source.push(t, _item_value(t, pushed + k))
                    pushed += burst
            for gate in gates:
                gate.until = sim.cycle + stall
            sim.run(cycles=gap)
        for gate in gates:
            gate.until = 0
        if pushed:
            sim.run(
                until=lambda _s: handle.sink.count >= base + pushed,
                max_cycles=max_cycles,
            )
        # Two settled cycles so the post-drain quiescent signature is
        # observed before the rewind.
        sim.run(cycles=2)
        return sim.cycle - start
    finally:
        sim.restore(point)


def _build_fuzz(params: Mapping[str, Any], engine: str | None) -> DesignHandle:
    base = str(params.get("base", "mt_pipeline"))
    if base not in _FUZZ_BASES:
        raise ValueError(
            f"fuzz base must be one of {sorted(_FUZZ_BASES)}, got {base!r}"
        )
    threads = int(params.get("threads", 4))
    width = int(params.get("width", 32))
    gates = [_StallGate() for _ in range(threads)]
    if base == "mt_pipeline":
        sim, source, sink, mebs, monitors = make_mt_pipeline(
            _meb_cls(params),
            threads=threads,
            items=[[] for _ in range(threads)],
            n_stages=int(params.get("n_stages", 2)),
            width=width,
            sink_patterns=gates,
            engine=engine,
        )
        handle = DesignHandle(
            sim=sim, source=source, sink=sink, monitor=monitors[-1],
            area_components=list(mebs), threads=threads,
        )
    else:
        sim, source, sink, monitor = make_mt_chain(
            threads=threads,
            n_funcs=int(params.get("n_funcs", 4)),
            n_items=0,
            width=width,
            engine=engine,
            with_monitor=True,
            sink_patterns=gates,
        )
        handle = DesignHandle(
            sim=sim, source=source, sink=sink, monitor=monitor,
            area_components=[sim.find("meb_in"), sim.find("meb_out")],
            threads=threads,
        )
    handle.stall_gates = gates
    return handle


def _run_fuzz(handle: DesignHandle, scenario: ScenarioSpec) -> dict:
    stim = scenario.stimulus
    rounds = int(stim.get("rounds", 48))
    burst = int(stim.get("burst", 3))
    gap = int(stim.get("gap", 4))
    max_burst = int(stim.get("max_burst", 5))
    max_waves = int(stim.get("max_waves", 6))
    max_cycles = int(stim.get("max_cycles", 10_000))

    rng = random.Random(scenario.seed)
    cov = CoverageMap(handle.sim).attach()
    # Every pattern starts from this one branch point.
    point = handle.sim.snapshot()
    cycles = 0
    try:
        corpus: list[Pattern] = seed_corpus(handle.threads, burst, gap)
        for pattern in corpus:
            cycles += _evaluate_pattern(handle, pattern, max_cycles, point)
        baseline_pct = cov.coverage_pct
        baseline_states = cov.new_states

        # The ledger records (pattern, states gained) per mutant; its
        # digest is the "bit-identical mutant sequence" witness the
        # determinism tests and the CI gate compare.
        ledger: list[tuple[Pattern, int]] = []
        kept = 0
        for _ in range(rounds):
            parent = corpus[rng.randrange(len(corpus))]
            mutant = mutate_pattern(
                parent, rng, handle.threads, max_burst, max_waves
            )
            before = cov.new_states
            cycles += _evaluate_pattern(handle, mutant, max_cycles, point)
            gained = cov.new_states - before
            ledger.append((mutant, gained))
            if gained:
                corpus.append(mutant)
                kept += 1
    finally:
        cov.detach()

    mutant_digest = hashlib.sha256(
        "\n".join(repr(entry) for entry in ledger).encode()
    ).hexdigest()
    out: dict[str, Any] = {
        "cycles": cycles,
        "baseline_coverage_pct": baseline_pct,
        "seed_states": baseline_states,
        "mutants_evaluated": rounds,
        "mutants_kept": kept,
        "corpus_size": len(corpus),
        "mutant_digest": mutant_digest,
    }
    out.update(cov.summary())
    out["coverage_gain_pct"] = round(out["coverage_pct"] - baseline_pct, 4)
    out.update(_cost_metrics(handle.area_components))
    return out


# ----------------------------------------------------------------------
# fault family: armed defects promoted from tests/test_fault_injection.py
# ----------------------------------------------------------------------

class DroppingMEB(FullMEB):
    """Silently discards accepted items once armed.

    From the ``fire_at``-th accepted item on, every ``period``-th item
    is dropped: the capture pretends to accept but masks the enqueue.
    """

    def __init__(self, *args, fire_at: int = 3, period: int = 3, **kwargs):
        super().__init__(*args, **kwargs)
        self._accept_count = 0
        self._fire_at = fire_at
        self._period = period
        self.fired = 0

    def capture(self):
        enq = self._input_thread()
        if enq is not None:
            self._accept_count += 1
            since = self._accept_count - self._fire_at
            if since >= 0 and since % self._period == 0:
                self.fired += 1
                transferred = self._output_transferred()
                queues = [list(q) for q in self._queues]
                if transferred:
                    queues[self._grant].pop(0)
                self._next_queues = queues
                self.arbiter.note(self._grant, transferred)
                return
        super().capture()


class DuplicatingMEB(FullMEB):
    """Enqueues armed items twice (token-conservation violation)."""

    def __init__(self, *args, fire_at: int = 2, period: int = 3, **kwargs):
        super().__init__(*args, **kwargs)
        self._accept_count = 0
        self._fire_at = fire_at
        self._period = period
        self.fired = 0

    def capture(self):
        super().capture()
        enq = self._input_thread()
        if enq is None or self._next_queues is None:
            return
        self._accept_count += 1
        since = self._accept_count - self._fire_at
        if since >= 0 and since % self._period == 0:
            self.fired += 1
            self._next_queues[enq].append(self.up.data.value)


class WithdrawingSource(Source):
    """Withdraws stalled offers on odd cycles once armed (persistence
    violation the single-thread channel monitor must catch)."""

    def __init__(self, *args, fire_at: int = 2, **kwargs):
        # The always-true injection pattern marks the source volatile:
        # the settle engines must re-run it every cycle so the armed
        # withdrawal actually executes once the design has gone stable.
        kwargs.setdefault("pattern", lambda _c: True)
        super().__init__(*args, **kwargs)
        self._fire_at = fire_at
        self.fired = 0

    def combinational(self):
        super().combinational()
        if self._cycle >= self._fire_at and self._cycle % 2 == 1:
            if self.channel.valid.value:
                self.fired += 1
                self.channel.valid.set(False)
                self.channel.data.set(X)


@dataclass
class FaultHandle:
    """What a fault build hands the oracle runner."""

    sim: Simulator
    kind: str
    source: Any
    sink: Any
    mon_in: Any
    mon_out: Any
    fault: Any = None                  # the armed component, if any
    threads: int = 1
    fire_at: int = 0
    area_components: list[Component] = field(default_factory=list)


#: fault kind -> (expected outcome when it fires, detector label)
FAULT_KINDS: dict[str, tuple[str, str]] = {
    "drop": ("detected", "conservation"),
    "duplicate": ("detected", "conservation"),
    "stuck_valid": ("detected", "protocol_monitor"),
    "stuck_ready": ("survived", "conservation"),
    "latency_spike": ("survived", "conservation"),
}


def _build_fault_meb(meb_cls, params, engine, **fault_kw) -> FaultHandle:
    threads = int(params.get("threads", 2))
    c0 = MTChannel("c0", threads=threads)
    c1 = MTChannel("c1", threads=threads)
    src = MTSource("src", c0, items=[[] for _ in range(threads)])
    meb = meb_cls("meb", c0, c1, **fault_kw)
    sink = MTSink("snk", c1)
    mon_in = MTMonitor("mon_in", c0)
    mon_out = MTMonitor("mon_out", c1)
    sim = build(c0, c1, src, meb, sink, mon_in, mon_out, engine=engine)
    return FaultHandle(
        sim=sim, kind=str(params["fault"]), source=src, sink=sink,
        mon_in=mon_in, mon_out=mon_out, fault=meb, threads=threads,
        fire_at=int(fault_kw.get("fire_at", 0)), area_components=[meb],
    )


def _build_stuck_valid(params, engine) -> FaultHandle:
    fire_at = int(params.get("fire_at", 2))
    ch = ElasticChannel("ch", width=16)
    src = WithdrawingSource("src", ch, items=[], fire_at=fire_at)
    # A permanently stalled consumer: any offer must persist — the armed
    # source won't let it.
    sink = Sink("snk", ch, pattern=lambda c: False)
    mon = ChannelMonitor("mon", ch)
    sim = build(ch, src, sink, mon, engine=engine)
    return FaultHandle(
        sim=sim, kind="stuck_valid", source=src, sink=sink,
        mon_in=mon, mon_out=mon, fault=src, threads=1, fire_at=fire_at,
    )


def _build_stuck_ready(params, engine) -> FaultHandle:
    threads = int(params.get("threads", 2))
    fire_at = int(params.get("fire_at", 12))
    c0 = MTChannel("c0", threads=threads)
    c1 = MTChannel("c1", threads=threads)
    src = MTSource("src", c0, items=[[] for _ in range(threads)])
    meb = FullMEB("meb", c0, c1)
    # The fault is the receiver: per-thread ready sticks low from
    # fire_at on, parking in-flight tokens forever.
    sink = MTSink(
        "snk", c1, patterns=[lambda c: c < fire_at] * threads
    )
    mon_in = MTMonitor("mon_in", c0)
    mon_out = MTMonitor("mon_out", c1)
    sim = build(c0, c1, src, meb, sink, mon_in, mon_out, engine=engine)
    return FaultHandle(
        sim=sim, kind="stuck_ready", source=src, sink=sink,
        mon_in=mon_in, mon_out=mon_out, fault=None, threads=threads,
        fire_at=fire_at, area_components=[meb],
    )


def _build_latency_spike(params, engine) -> FaultHandle:
    threads = int(params.get("threads", 2))
    fire_at = int(params.get("fire_at", 3))
    spike = int(params.get("spike", 12))

    def latency(_data, accepted):
        return spike if accepted + 1 == fire_at else 1

    c0 = MTChannel("c0", threads=threads)
    c1 = MTChannel("c1", threads=threads)
    c2 = MTChannel("c2", threads=threads)
    c3 = MTChannel("c3", threads=threads)
    src = MTSource("src", c0, items=[[] for _ in range(threads)])
    meb_in = FullMEB("meb_in", c0, c1)
    # Identity datapath: conservation compares token values end to end,
    # and the fault under test is the latency, not the computation.
    unit = MTVariableLatencyUnit(
        "vl", c1, c2, fn=lambda x: x, latency=latency
    )
    meb_out = FullMEB("meb_out", c2, c3)
    sink = MTSink("snk", c3)
    mon_in = MTMonitor("mon_in", c0)
    mon_out = MTMonitor("mon_out", c3)
    sim = build(c0, c1, c2, c3, src, meb_in, unit, meb_out, sink,
                mon_in, mon_out, engine=engine)
    return FaultHandle(
        sim=sim, kind="latency_spike", source=src, sink=sink,
        mon_in=mon_in, mon_out=mon_out, fault=unit, threads=threads,
        fire_at=fire_at, area_components=[meb_in, meb_out],
    )


def _build_fault(params: Mapping[str, Any], engine: str | None) -> FaultHandle:
    kind = str(params.get("fault", "drop"))
    if kind not in FAULT_KINDS:
        raise ValueError(
            f"fault must be one of {sorted(FAULT_KINDS)}, got {kind!r}"
        )
    if kind == "drop":
        return _build_fault_meb(
            DroppingMEB, params, engine,
            fire_at=int(params.get("fire_at", 3)),
            period=int(params.get("period", 3)),
        )
    if kind == "duplicate":
        return _build_fault_meb(
            DuplicatingMEB, params, engine,
            fire_at=int(params.get("fire_at", 2)),
            period=int(params.get("period", 3)),
        )
    if kind == "stuck_valid":
        return _build_stuck_valid(params, engine)
    if kind == "stuck_ready":
        return _build_stuck_ready(params, engine)
    return _build_latency_spike(params, engine)


def _push_fault_items(handle: FaultHandle, items: int) -> int:
    if handle.kind == "stuck_valid":
        for k in range(items):
            handle.source.push(k + 1)
        return items
    for t in range(handle.threads):
        for k in range(items):
            handle.source.push(t, _item_value(t, k))
    return items * handle.threads


def run_fault_window(handle: FaultHandle, items: int, window: int) -> dict:
    """Drive one armed design for a bounded window; classify the outcome.

    Bounded ``run(cycles=...)`` windows, not ``until=`` predicates:
    most of these faults make completion predicates unsatisfiable by
    construction (dropped or parked tokens never arrive).
    """
    pushed = _push_fault_items(handle, items)
    error: str | None = None
    detected_by: str | None = None
    try:
        handle.sim.run(cycles=window)
    except ProtocolError as exc:
        error, detected_by = str(exc), "protocol_monitor"
    except SimulationError as exc:
        error, detected_by = str(exc), "invariant"

    delivered = handle.sink.count
    if handle.kind == "stuck_valid":
        fired = handle.fault.fired > 0
        conservation_ok = error is None
    else:
        # Parked/in-flight tokens are legal; lost or duplicated ones
        # are not.  ``items`` per thread bounds what can legally park.
        report = check_token_conservation(
            handle.mon_in, handle.mon_out, allow_in_flight=items
        )
        conservation_ok = report.ok and error is None
        if not report.ok:
            detected_by = detected_by or "conservation"
        if handle.kind == "stuck_ready":
            fired = handle.sim.cycle >= handle.fire_at
        elif handle.kind == "latency_spike":
            fired = handle.fault._accepted >= handle.fire_at
        else:
            fired = handle.fault.fired > 0

    if not fired:
        outcome = "clean" if conservation_ok else "missed"
    elif not conservation_ok:
        outcome = "detected"
    else:
        outcome = "survived"
    return {
        "pushed": pushed,
        "delivered": delivered,
        "fired": fired,
        "outcome": outcome,
        "detected_by": detected_by,
        "error": error,
    }


def _run_fault(handle: FaultHandle, scenario: ScenarioSpec) -> dict:
    stim = scenario.stimulus
    items = int(stim.get("items_per_thread", 6))
    window = int(stim.get("window", 80 + 12 * items))
    expected, _detector = FAULT_KINDS[handle.kind]
    result = run_fault_window(handle, items, window)
    outcome = result["outcome"]
    oracle_ok = (
        outcome == "clean" if not result["fired"] else outcome == expected
    )
    survived = bool(result["fired"] and outcome == "survived")
    out: dict[str, Any] = {
        "cycles": handle.sim.cycle,
        "fault": handle.kind,
        "fire_at": handle.fire_at,
        "expected": expected,
        "outcome": outcome,
        "oracle_ok": oracle_ok,
        "faults_survived": int(survived),
        "fired": result["fired"],
        "detected_by": result["detected_by"],
        "pushed": result["pushed"],
        "delivered": result["delivered"],
    }
    out.update(_cost_metrics(handle.area_components))
    return out


# ----------------------------------------------------------------------
# registration
# ----------------------------------------------------------------------

register_family(Family(
    name="fuzz",
    build=_build_fuzz,
    run=_run_fuzz,
    reusable=True,
    description="coverage-guided wave-pattern mutation over a warm "
                "design (params: base in {mt_pipeline, mt_chain} plus "
                "the base family's params)",
    params={"base": "mt_pipeline", "threads": 4, "n_stages": 2,
            "meb": "reduced", "width": 32},
    stimulus_kinds=("fuzz",),
))
register_family(Family(
    name="fault",
    build=_build_fault,
    run=_run_fault,
    # Fault components carry python-side trigger counters that sit
    # outside the columnar snapshot; a fresh build per scenario keeps
    # every run independent and bit-reproducible.
    reusable=False,
    description="armed fault injection with oracle checks (params: "
                "fault in {drop, duplicate, stuck_valid, stuck_ready, "
                "latency_spike}, threads, fire_at, period, spike)",
    params={"fault": "drop", "threads": 2, "fire_at": 3},
    stimulus_kinds=("inject",),
))
