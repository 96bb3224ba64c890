"""E8 (ablation) — when does the reduced MEB's 50% corner actually bite?

Paper §III-A: "The occurrence frequency of this effect depends on how
often all but one of the threads are stalled ... and on the number of
cycles it takes the stall to propagate to the source of the pipeline."

Two sweeps quantify that sentence:

1. **Stall-duration sweep** — thread A's average throughput penalty vs
   the length of thread B's stall, for full and reduced MEBs.  Short
   stalls are absorbed by the shared slots (no penalty); the penalty
   grows once the stall outlives the propagation time.
2. **Pipeline-depth sweep** — cycles until every stage's shared slot is
   owned by the blocked thread, vs pipeline depth: the degradation onset
   moves out linearly with depth.
"""

from __future__ import annotations

import io

from repro.core import FullMEB, ReducedMEB
from repro.elastic import stall_window
from repro.sweep.families import make_mt_pipeline

STALL_START = 10
N_ITEMS = 200


def a_throughput_with_stall(meb_cls, stall_len, n_stages=2):
    items = [[f"A{i}" for i in range(N_ITEMS)],
             [f"B{i}" for i in range(N_ITEMS)]]
    sim, _src, _sink, _mebs, mons = make_mt_pipeline(
        meb_cls, threads=2, items=items, n_stages=n_stages,
        sink_patterns=[None, stall_window(STALL_START, STALL_START + stall_len)],
    )
    sim.run(cycles=STALL_START + stall_len)
    if stall_len == 0:
        return 0.5
    return mons[-1].throughput_window(STALL_START, STALL_START + stall_len,
                                      thread=0)


def degradation_onset(n_stages):
    """Cycle at which all shared slots belong to the blocked thread."""
    items = [[f"A{i}" for i in range(N_ITEMS)],
             [f"B{i}" for i in range(N_ITEMS)]]
    sim, _src, _sink, mebs, _mons = make_mt_pipeline(
        ReducedMEB, threads=2, items=items, n_stages=n_stages,
        sink_patterns=[None, stall_window(STALL_START, 10_000)],
    )
    for cycle in range(1, 400):
        sim.step()
        if all(m.shared_owner == 1 for m in mebs):
            return cycle
    raise AssertionError("degradation never reached the source")


def test_stall_duration_sweep(benchmark, report):
    durations = (0, 2, 4, 8, 16, 32, 64)

    def sweep():
        return {
            name: {d: a_throughput_with_stall(cls, d) for d in durations}
            for name, cls in (("full", FullMEB), ("reduced", ReducedMEB))
        }

    data = benchmark(sweep)
    buf = io.StringIO()
    buf.write("Thread A throughput during B's stall vs stall duration "
              "(2-stage pipeline)\n")
    buf.write(f"{'stall':>6} | {'full':>6} | {'reduced':>8}\n")
    for d in durations:
        buf.write(f"{d:>6} | {data['full'][d]:>6.2f} | "
                  f"{data['reduced'][d]:>8.2f}\n")
    report("ablation_stall_duration", buf.getvalue())

    # Full MEB: A converges to 1.0 for long stalls (the average over the
    # whole stall includes the short fill transient, hence > 0.9).
    assert data["full"][64] > 0.9
    # Reduced: short stalls absorbed (still ~fair 0.5+), long stalls
    # converge to the 50% corner — which equals the fair share here, so
    # the real signature is the gap vs full MEB:
    assert data["reduced"][64] < 0.6
    # The penalty (full - reduced) grows monotonically with duration.
    gaps = [data["full"][d] - data["reduced"][d] for d in durations]
    assert gaps[-1] > gaps[1]


def test_degradation_onset_vs_depth(benchmark, report):
    depths = (1, 2, 4, 6, 8)
    onsets = benchmark(lambda: {n: degradation_onset(n) for n in depths})
    buf = io.StringIO()
    buf.write("Cycles until B owns every shared slot (stall starts at "
              f"cycle {STALL_START})\n")
    buf.write(f"{'stages':>7} | {'onset cycle':>12}\n")
    for n in depths:
        buf.write(f"{n:>7} | {onsets[n]:>12}\n")
    report("ablation_degradation_onset", buf.getvalue())
    values = [onsets[n] for n in depths]
    assert values == sorted(values)
    assert onsets[8] > onsets[1]
