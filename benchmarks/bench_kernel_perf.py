"""Simulator performance benchmarks (pytest-benchmark + engine comparison).

Not a paper experiment — these track the cost of the substrate itself so
regressions in the settle engines or the MEB implementations show up in
CI.  Two modes:

* The ``test_perf_*`` functions are classic pytest-benchmark timings of
  the default (compiled) engine.
* ``test_engine_comparison`` is the **comparison mode**: it runs each
  workload under both settle engines (``naive`` oracle and
  ``compiled``), asserts the compiled engine's cycles/sec advantage
  against conservative floors, and writes the measurements to
  ``benchmarks/results/BENCH_kernel.json`` so CI can upload them as an
  artifact and gate regressions against the committed repo-root
  ``BENCH_kernel.json`` baseline (``python benchmarks/check_gate.py kernel``).

Set ``BENCH_SMOKE=1`` to shrink every workload (CI's benchmark smoke
job); the JSON is still produced, only with smaller configurations and
looser floors.  Every measurement runs :data:`REPS` times, with the
engines interleaved rep by rep: full mode records the best rep (the
statistic of the committed baseline), smoke mode gates on the median so
a single noisy read on a shared runner can neither fail nor pass it.
Beside each recorded statistic ``x`` the JSON carries ``x_iqr``, the
interquartile range of its per-rep values (for a ratio, of the per-rep
ratios of interleaved reps) — the run's noise, never gated.  The
top-level ``rewind_us`` (with its ``rewind_us_iqr``) is the median cost
of one snapshot plus one restore of the paper sweep's fuzz design; it is
recorded for the ledger and never gated either.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import statistics
import time

from repro.apps.md5 import MD5Hasher
from repro.apps.processor import Processor, programs
from repro.core import FullMEB, ReducedMEB

# The workload factories' single home is the campaign design-family
# module.
from repro.sweep.families import (
    make_mt_bursty,
    make_mt_chain,
    make_mt_pipeline,
    make_mt_ring,
)

SMOKE = os.environ.get("BENCH_SMOKE", "") not in ("", "0")
#: Repetitions of every measurement, in both modes.
REPS = 3
# Anchored through resolve() so results land next to this file no matter
# what the CWD (or a relative __file__) is when the module runs.
RESULTS_PATH = (
    pathlib.Path(__file__).resolve().parent / "results" / "BENCH_kernel.json"
)


def pump_pipeline(meb_cls, threads=8, n_stages=4, n_items=50, engine=None):
    items = [list(range(n_items)) for _ in range(threads)]
    sim, _src, sink, _mebs, _mons = make_mt_pipeline(
        meb_cls, threads=threads, items=items, n_stages=n_stages,
        engine=engine,
    )
    sim.run(until=lambda s: sink.count == threads * n_items,
            max_cycles=20_000)
    return sim.cycle


def test_perf_full_meb_pipeline(benchmark):
    cycles = benchmark(pump_pipeline, FullMEB)
    assert cycles > 0


def test_perf_reduced_meb_pipeline(benchmark):
    cycles = benchmark(pump_pipeline, ReducedMEB)
    assert cycles > 0


def test_perf_md5_wave(benchmark):
    def run():
        hasher = MD5Hasher(threads=8, meb="reduced")
        return hasher.hash_batch([b"throughput"] * 8)

    digests = benchmark(run)
    assert len(digests) == 8


def test_perf_processor_workload(benchmark):
    def run():
        cpu = Processor(threads=8, meb="reduced")
        for t, prog in enumerate(programs.standard_mix()):
            cpu.load_program(t, prog.source)
        return cpu.run()

    stats = benchmark(run)
    assert stats.total_retired > 0


# ----------------------------------------------------------------------
# engine comparison mode
# ----------------------------------------------------------------------

#: mt_pipeline items per thread.  The full-mode engine comparison runs
#: 8004 cycles, ~0.2 s of compiled work per rep, so one slow read on a
#: shared host cannot swing its ratio; the profiler round trip keeps the
#: 50 items its ``profile_overhead`` baseline was recorded at.
PIPELINE_ITEMS = 10 if SMOKE else 1000
PROFILE_ITEMS = 10 if SMOKE else 50


def _run_pipeline(engine, n_items=PIPELINE_ITEMS, profile=False):
    """Returns (cycles, run-only seconds, behaviour fingerprint).  With
    *profile*, a profiler is attached and detached before the run."""
    threads = 4 if SMOKE else 8
    items = [list(range(n_items)) for _ in range(threads)]
    sim, _src, sink, _mebs, _mons = make_mt_pipeline(
        FullMEB, threads=threads, items=items, n_stages=4, engine=engine,
    )
    if profile:
        with sim.profile():
            pass
    start = time.perf_counter()
    sim.run(until=lambda s: sink.count == threads * n_items,
            max_cycles=20_000)
    elapsed = time.perf_counter() - start
    return sim.cycle, elapsed, (sim.cycle, sink.received)


def _run_md5(engine):
    threads = 4 if SMOKE else 8
    h = MD5Hasher(threads=threads, engine=engine)
    start = time.perf_counter()
    digests = h.hash_batch([b"throughput"] * threads)
    elapsed = time.perf_counter() - start
    return h.circuit.sim.cycle, elapsed, (h.circuit.sim.cycle, digests)


def _run_md5_pipelined(engine):
    threads, stages = (4, 4) if SMOKE else (32, 16)
    h = MD5Hasher(threads=threads, round_stages=stages, engine=engine)
    start = time.perf_counter()
    digests = h.hash_batch([b"throughput"] * threads)
    elapsed = time.perf_counter() - start
    return h.circuit.sim.cycle, elapsed, (h.circuit.sim.cycle, digests)


def _run_processor(engine):
    threads = 4 if SMOKE else 8
    cpu = Processor(threads=threads, meb="reduced", engine=engine)
    mix = programs.standard_mix()
    for t in range(threads):
        cpu.load_program(t, mix[t % len(mix)].source)
    start = time.perf_counter()
    stats = cpu.run()
    elapsed = time.perf_counter() - start
    return stats.cycles, elapsed, (stats.cycles, stats.total_retired)


def _run_mt_chain(engine):
    threads, n_funcs, n_items = (4, 3, 8) if SMOKE else (32, 8, 25)
    sim, _src, sink = make_mt_chain(
        threads=threads, n_funcs=n_funcs, n_items=n_items, engine=engine,
    )
    start = time.perf_counter()
    sim.run(until=lambda s: sink.count == threads * n_items,
            max_cycles=100_000)
    elapsed = time.perf_counter() - start
    return sim.cycle, elapsed, (sim.cycle, sink.received)


def _run_mt_bursty(engine):
    """Idle-heavy traffic: delta-gated ticks vs per-cycle naive.

    Each round pushes a burst of items into every thread and then runs a
    fixed window far longer than the drain time, so most cycles are
    idle.  The compiled engine's tick plans skip every component whose
    watched inputs did not change; the naive engine re-evaluates and
    dispatches every component every cycle.
    """
    if SMOKE:
        # Long enough that the idle tail dominates even on noisy shared
        # runners.
        threads, stages, burst, bursts, gap = 2, 2, 4, 2, 500
    else:
        # 40 000 cycles: ~0.3 s of compiled work per rep, so one slow
        # read cannot swing the gated ratio.
        threads, stages, burst, bursts, gap = 8, 3, 15, 20, 2000
    sim, src, sink, _mebs, _mons = make_mt_bursty(
        FullMEB, threads=threads, n_stages=stages, engine=engine,
    )
    start = time.perf_counter()
    for b in range(bursts):
        for t in range(threads):
            for i in range(burst):
                src.push(t, (b << 16) | (t << 8) | i)
        sim.run(cycles=gap)
    elapsed = time.perf_counter() - start
    return sim.cycle, elapsed, (sim.cycle, sink.received)


def _run_mt_ring(engine):
    threads, n_funcs, trips = (4, 2, 5) if SMOKE else (48, 6, 10)
    sim, _src, sink = make_mt_ring(
        threads=threads, n_funcs=n_funcs, trips=trips, engine=engine,
    )
    start = time.perf_counter()
    sim.run(until=lambda s: sink.count == threads, max_cycles=200_000)
    elapsed = time.perf_counter() - start
    return sim.cycle, elapsed, (sim.cycle, sink.received)


#: workload name -> (runner, full-mode compiled-vs-naive floor).  The
#: floors are deliberately far below the measured ratios (see
#: docs/engines.md) so the comparison stays green on noisy CI machines
#: while still catching a broken scheduler; the JSON records the actual
#: numbers.
WORKLOADS = {
    "mt_pipeline": (_run_pipeline, 1.44),
    "mt_chain": (_run_mt_chain, 1.8),
    "mt_ring": (_run_mt_ring, 1.8),
    "mt_bursty": (_run_mt_bursty, 3.0),
    "md5": (_run_md5, 1.5),
    "md5_pipelined": (_run_md5_pipelined, 3.9),
    "processor": (_run_processor, 2.25),
}

#: Smoke mode runs tiny configurations on shared CI runners where
#: constant overheads dominate; only sanity-check the direction.
SMOKE_COMPILED_FLOOR = 1.0


# ----------------------------------------------------------------------
# ensemble lockstep comparison
# ----------------------------------------------------------------------
# K control-identical scenarios (same design, same schedule, different
# seeded payloads) through ONE lifted simulator vs K serial compiled
# runs of a warm cached design.  `ensemble_speedup` is aggregate
# scenarios/sec — serial wall time over batched wall time for the same
# K scenarios — with per-scenario metrics asserted identical first.

def _ensemble_workloads():
    """family -> (params, stimulus, K).  Pure-Python row layout."""
    if SMOKE:
        width = 8
        return {
            "mt_chain": (
                {"threads": 4, "n_funcs": 3},
                {"kind": "uniform", "payload": "seeded",
                 "items_per_thread": 8},
                width,
            ),
            "mt_pipeline": (
                {"threads": 4, "n_stages": 3},
                {"kind": "uniform", "payload": "seeded",
                 "items_per_thread": 10},
                width,
            ),
        }
    width = 16
    return {
        "mt_chain": (
            {"threads": 16, "n_funcs": 6},
            {"kind": "uniform", "payload": "seeded",
             "items_per_thread": 20},
            width,
        ),
        "mt_pipeline": (
            {"threads": 8, "n_stages": 4},
            {"kind": "uniform", "payload": "seeded",
             "items_per_thread": 40},
            width,
        ),
    }


#: Full-mode floors for ensemble_speedup (the acceptance bar: >= 3x
#: aggregate scenarios/sec at K >= 8 on the mt_* families).
ENSEMBLE_FLOORS = {"mt_chain": 3.0, "mt_pipeline": 3.0}
SMOKE_ENSEMBLE_FLOOR = 1.0


def _measure_ensemble_family(family, params, stimulus, width, reps):
    from repro.sweep.runner import execute_ensemble, execute_scenario
    from repro.sweep.spec import from_dict

    spec = from_dict({
        "campaign": {"name": f"bench-{family}", "seed": 99},
        "scenarios": [{
            "family": family,
            "params": params,
            "stimulus": stimulus,
            "grid": {"stimulus.payload_salt": list(range(width))},
        }],
    })
    scenarios = list(spec.scenarios)
    serial_cache: dict = {}
    ens_cache: dict = {}
    # Warm both caches and pin the hard contract: per-scenario metrics
    # of the batch are identical to serial compiled runs.
    reference = [
        execute_scenario(s, None, cache=serial_cache) for s in scenarios
    ]
    batch = execute_ensemble(scenarios, None, cache=ens_cache)
    for ref, row in zip(reference, batch):
        assert row.get("ensemble") == width, (
            f"{family}: batch fell back to serial execution"
        )
        assert row["metrics"] == ref["metrics"], (
            f"{family}: ensemble metrics diverge from serial"
        )
    serial, ensemble = [], []
    for _ in range(reps):
        start = time.perf_counter()
        for scenario in scenarios:
            execute_scenario(scenario, None, cache=serial_cache)
        serial.append(time.perf_counter() - start)
        start = time.perf_counter()
        execute_ensemble(scenarios, None, cache=ens_cache)
        ensemble.append(time.perf_counter() - start)
    # Aggregate scenarios/sec of the batch over that of the serial runs.
    return _ratio([1 / t for t in ensemble], [1 / t for t in serial])


def _summary(rates: list[float]) -> float:
    """The gated statistic of per-rep rates: best in full mode, median
    in smoke mode (see the module docstring)."""
    return statistics.median(rates) if SMOKE else max(rates)


def _iqr(values: list[float]) -> float:
    """Interquartile range of per-rep values (needs two or more)."""
    q1, _median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def _ratio(top: list[float], bottom: list[float]) -> tuple[float, float]:
    """(summary ratio, IQR of per-rep ratios) of two interleaved rate
    series, both rounded to the JSON's two decimals."""
    ratio = _summary(top) / _summary(bottom)
    spread = _iqr([t / b for t, b in zip(top, bottom)])
    return round(ratio, 2), round(spread, 2)


def _measure(runners, reps):
    """Run ``runners`` (label -> zero-argument runner) *reps* times,
    interleaved rep by rep, so drift on a shared host hits every label
    alike.  Returns label -> (per-rep cps, cycles, fingerprint)."""
    rates: dict[str, list[float]] = {label: [] for label in runners}
    last: dict[str, tuple] = {}
    for _ in range(reps):
        for label, runner in runners.items():
            cycles, elapsed, fingerprint = runner()
            rates[label].append(cycles / elapsed)
            last[label] = (cycles, fingerprint)
    return {label: (rates[label], *last[label]) for label in runners}


# ----------------------------------------------------------------------
# profiler disabled-overhead
# ----------------------------------------------------------------------
# The kernel profiler's contract is zero cost when off: a simulator
# that attached and then detached a profiler must run the exact
# unprofiled fast path.  `profile_overhead` is (cps after a profiler
# attach/detach round trip) / (plain cps) on the mt_pipeline workload —
# nominally 1.0 — recorded in BENCH_kernel.json and gated like the
# engine speedups (``python benchmarks/check_gate.py kernel``).

def measure_profile_overhead(reps):
    """Returns (overhead ratio, its IQR): after-detach cps over plain."""
    measured = _measure(
        {
            "plain": lambda: _run_pipeline("compiled", PROFILE_ITEMS),
            "after": lambda: _run_pipeline(
                "compiled", PROFILE_ITEMS, profile=True
            ),
        },
        reps,
    )
    plain_rates, _cycles, plain_fp = measured["plain"]
    after_rates, _cycles, after_fp = measured["after"]
    assert plain_fp == after_fp, (
        "profiler attach/detach changed behaviour"
    )
    return _ratio(after_rates, plain_rates)


# ----------------------------------------------------------------------
# rewind cost (recorded, never gated)
# ----------------------------------------------------------------------
# One snapshot plus one restore of the paper sweep's fuzz design, the
# rewind every fuzz pattern and every design-cache hit pays.  Absolute
# microseconds are machine-dependent, so the kernel gate of
# check_gate.py ignores the field, as it ignores the ``_iqr`` fields.

#: Snapshot+restore pairs timed per rep.
REWIND_PAIRS = 50 if SMOKE else 500


def measure_rewind(reps):
    """Returns (median µs per snapshot+restore, IQR) over *reps* reps."""
    from repro.sweep.registry import get_family

    handle = get_family("fuzz").build(
        {"base": "mt_pipeline", "threads": 4, "n_stages": 2}, None
    )
    sim = handle.sim
    sim.settle()
    per_pair = []
    for _ in range(reps):
        start = time.perf_counter()
        for _ in range(REWIND_PAIRS):
            sim.restore(sim.snapshot())
        per_pair.append((time.perf_counter() - start) / REWIND_PAIRS * 1e6)
    return round(statistics.median(per_pair), 1), round(_iqr(per_pair), 1)


def run_comparison():
    """Time every workload under both engines; return the results."""
    reps = REPS
    results = {
        "mode": "smoke" if SMOKE else "full",
        "statistic": "median" if SMOKE else "best",
        "reps": reps,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "workloads": {},
    }
    for name, (runner, _floor) in WORKLOADS.items():
        measured = _measure(
            {
                engine: (lambda engine=engine: runner(engine))
                for engine in ("naive", "compiled")
            },
            reps,
        )
        naive_rates, _cycles, naive_fp = measured["naive"]
        compiled_rates, cycles, compiled_fp = measured["compiled"]
        assert naive_fp == compiled_fp, (
            f"{name}: engines disagree on behaviour"
        )
        speedup, speedup_iqr = _ratio(compiled_rates, naive_rates)
        results["workloads"][name] = {
            "cycles": cycles,
            "naive_cps": round(_summary(naive_rates), 1),
            "naive_cps_iqr": round(_iqr(naive_rates), 1),
            "compiled_cps": round(_summary(compiled_rates), 1),
            "compiled_cps_iqr": round(_iqr(compiled_rates), 1),
            "compiled_speedup": speedup,
            "compiled_speedup_iqr": speedup_iqr,
        }
    for name, (params, stimulus, width) in _ensemble_workloads().items():
        row = results["workloads"][name]
        row["ensemble_width"] = width
        row["ensemble_speedup"], row["ensemble_speedup_iqr"] = (
            _measure_ensemble_family(name, params, stimulus, width, reps)
        )
    pipeline = results["workloads"]["mt_pipeline"]
    pipeline["profile_overhead"], pipeline["profile_overhead_iqr"] = (
        measure_profile_overhead(reps)
    )
    results["rewind_us"], results["rewind_us_iqr"] = measure_rewind(reps)
    RESULTS_PATH.parent.mkdir(exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(results, indent=2) + "\n",
                            encoding="utf-8")
    return results


def test_engine_comparison():
    results = run_comparison()
    lines = [f"engine comparison ({results['mode']} mode):"]
    for name, row in results["workloads"].items():
        lines.append(
            f"  {name:14s} naive={row['naive_cps']:>9.0f}  "
            f"compiled={row['compiled_cps']:>9.0f} "
            f"({row['compiled_speedup']:.2f}x vs naive)"
        )
        if "ensemble_speedup" in row:
            lines.append(
                f"  {name:14s} ensemble K={row['ensemble_width']}: "
                f"{row['ensemble_speedup']:.2f}x scenarios/sec vs serial "
                f"compiled"
            )
    print("\n".join(lines))
    for name, (_runner, floor) in WORKLOADS.items():
        row = results["workloads"][name]
        required_compiled = SMOKE_COMPILED_FLOOR if SMOKE else floor
        assert row["compiled_speedup"] >= required_compiled, (
            f"{name}: compiled engine speedup "
            f"{row['compiled_speedup']:.2f}x below {required_compiled}x "
            f"floor"
        )
    for name, floor in ENSEMBLE_FLOORS.items():
        row = results["workloads"][name]
        required = SMOKE_ENSEMBLE_FLOOR if SMOKE else floor
        assert row["ensemble_speedup"] >= required, (
            f"{name}: ensemble speedup {row['ensemble_speedup']:.2f}x "
            f"(K={row['ensemble_width']}) below {required}x floor"
        )
    overhead = results["workloads"]["mt_pipeline"]["profile_overhead"]
    print(f"  profile_overhead (detached profiler, mt_pipeline): "
          f"{overhead:.2f}x")
    print(f"  rewind (fuzz mt_pipeline snapshot+restore, not gated): "
          f"{results['rewind_us']:.1f} us")
    # Nominally 1.0; the floor only catches a profiler that leaves
    # wrappers behind after detach (smoke runs are noisy).
    required = 0.5 if SMOKE else 0.9
    assert overhead >= required, (
        f"detached profiler costs {(1 - overhead) * 100:.0f}% on "
        f"mt_pipeline (ratio {overhead:.2f} below {required})"
    )


if __name__ == "__main__":
    test_engine_comparison()
