"""E9 (ablation) — why exactly S+1 slots?

Paper §III-A motivates the reduced MEB's capacity: S per-thread slots
keep the 1/M uniform throughput, and the one *shared* extra slot is what
lets a lone thread reach 100%.  This ablation compares three buffer
capacities on the lone-thread workload and on the uniform workload:

* ``2S``  (full MEB)           — 100% lone-thread, 1/M uniform
* ``S+1`` (reduced MEB)        — 100% lone-thread, 1/M uniform
* ``S``   (no shared slot)     — lone thread capped at 50%!

The S-slot variant is built here as a ReducedMEB whose shared slot is
never granted (a one-line subclass), demonstrating that the shared slot
is load-bearing, not an implementation convenience.

A second sweep regenerates the storage-cost curve: slots per MEB vs
thread count for the three designs.
"""

from __future__ import annotations

import io

from repro.core import FullMEB, ReducedMEB
from repro.sweep.families import make_mt_pipeline


class NoSharedSlotMEB(ReducedMEB):
    """ReducedMEB with the shared auxiliary slot disabled (S slots)."""

    def can_accept(self, thread: int) -> bool:
        return self._state[thread] == "EMPTY"

    @property
    def total_slots(self) -> int:
        return self.threads


VARIANTS = {
    "full (2S)": FullMEB,
    "reduced (S+1)": ReducedMEB,
    "no-shared (S)": NoSharedSlotMEB,
}


def lone_thread_throughput(meb_cls):
    items = [list(range(40)), [], [], []]
    sim, _src, sink, _mebs, mons = make_mt_pipeline(
        meb_cls, threads=4, items=items, n_stages=2
    )
    sim.run(until=lambda s: sink.count == 40, max_cycles=400)
    return mons[-1].throughput_window(4, 40, thread=0)


def uniform_throughput(meb_cls, m=4):
    items = [list(range(40)) for _ in range(m)]
    sim, _src, sink, _mebs, mons = make_mt_pipeline(
        meb_cls, threads=m, items=items, n_stages=2
    )
    sim.run(until=lambda s: sink.count == 40 * m, max_cycles=1000)
    return [
        mons[-1].throughput_window(8, 48, thread=t) for t in range(m)
    ]


def test_shared_slot_is_load_bearing(benchmark, report):
    lone = benchmark(
        lambda: {name: lone_thread_throughput(cls)
                 for name, cls in VARIANTS.items()}
    )
    uniform = {name: uniform_throughput(cls) for name, cls in VARIANTS.items()}

    buf = io.StringIO()
    buf.write("Slot-count ablation (4 threads, 2-stage pipeline)\n\n")
    buf.write(f"{'variant':<15} | {'lone-thread tp':>14} | "
              f"{'uniform per-thread tp':>22}\n")
    for name in VARIANTS:
        uni = ", ".join(f"{tp:.2f}" for tp in uniform[name])
        buf.write(f"{name:<15} | {lone[name]:>14.2f} | {uni:>22}\n")
    report("ablation_slots", buf.getvalue())

    # Both paper designs give the lone thread full throughput...
    assert lone["full (2S)"] > 0.95
    assert lone["reduced (S+1)"] > 0.95
    # ...but dropping the shared slot caps it at 50% (§III-A's argument).
    assert abs(lone["no-shared (S)"] - 0.5) < 0.05
    # Uniform utilization is 1/M for every variant.
    for name in VARIANTS:
        for tp in uniform[name]:
            assert abs(tp - 0.25) < 0.08, (name, tp)


def test_storage_cost_curve(report):
    buf = io.StringIO()
    buf.write("Data slots per MEB vs thread count\n")
    buf.write(f"{'S':>4} | {'full 2S':>8} | {'reduced S+1':>12} | "
              f"{'saved':>6}\n")
    for s in (2, 4, 8, 16, 32, 64):
        full, reduced = 2 * s, s + 1
        buf.write(f"{s:>4} | {full:>8} | {reduced:>12} | "
                  f"{full - reduced:>6}\n")
    report("ablation_slot_counts", buf.getvalue())
