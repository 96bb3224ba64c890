"""E12 (ablation) — arbitration policy choices inside the MEB.

Two design decisions the paper states but does not evaluate:

1. **Rotating vs fixed priority.**  The MEB arbiter must rotate for
   per-thread fairness; a fixed-priority arbiter starves high-index
   threads whenever low-index threads keep the channel busy.  Measured
   with Jain's fairness index over per-thread throughput.

2. **Downstream-ready masking** ("after taking into account which threads
   are ready downstream").  On a plain pipeline, masked and
   masked-with-fallback arbitration are cycle-identical; with a barrier
   downstream, pure masking deadlocks (arrivals can never be observed) —
   the empirical demonstration of DESIGN.md §5's analysis and why this
   library defaults to MASKED_FALLBACK.
"""

from __future__ import annotations

import io

from repro.analysis import fairness_index, per_thread_throughputs
from repro.core import (
    Barrier,
    FixedPriorityArbiter,
    FullMEB,
    GrantPolicy,
    MTChannel,
    MTMonitor,
    MTSink,
    MTSource,
)
from repro.kernel import SimulationError, build
from repro.sweep.families import make_mt_pipeline


def fairness_with_arbiter(arbiter_factory):
    """Swap the arbiter in *every* arbitration point (source and MEBs)."""
    items = [list(range(60)) for _ in range(4)]
    sim, src, _sink, mebs, mons = make_mt_pipeline(
        FullMEB, threads=4, items=items, n_stages=2
    )
    src.arbiter = arbiter_factory(4)
    for meb in mebs:
        meb.arbiter = arbiter_factory(4)
    sim.reset()
    sim.run(cycles=60)
    tps = per_thread_throughputs(mons[-1], 8, 56)
    return fairness_index(tps), tps


def barrier_deadlock_probe(policy):
    """Run MEB->barrier with the given policy; True if progress happens."""
    c0 = MTChannel("c0", threads=2)
    c1 = MTChannel("c1", threads=2)
    c2 = MTChannel("c2", threads=2)
    src = MTSource("src", c0, items=[["a"], ["b"]], policy=policy)
    meb = FullMEB("meb", c0, c1, policy=policy)
    bar = Barrier("bar", c1, c2)
    sink = MTSink("snk", c2)
    mon = MTMonitor("mon", c2)
    sim = build(c0, c1, c2, src, meb, bar, sink, mon)
    try:
        sim.run(until=lambda _s: sink.count == 2, max_cycles=60)
        return True
    except SimulationError:
        return False


def test_round_robin_vs_fixed_priority(benchmark, report):
    from repro.core import RoundRobinArbiter

    def measure():
        rr = fairness_with_arbiter(lambda n: RoundRobinArbiter(n))
        fixed = fairness_with_arbiter(lambda n: FixedPriorityArbiter(n))
        return rr, fixed

    (rr_fair, rr_tps), (fx_fair, fx_tps) = benchmark(measure)
    buf = io.StringIO()
    buf.write("Arbiter fairness over 4 saturating threads "
              "(Jain index, 1.0 = perfectly fair)\n\n")
    buf.write(f"{'arbiter':<16} | {'fairness':>8} | per-thread throughput\n")
    rr_fmt = ", ".join(f"{tp:.2f}" for tp in rr_tps)
    fx_fmt = ", ".join(f"{tp:.2f}" for tp in fx_tps)
    buf.write(f"{'round-robin':<16} | {rr_fair:>8.3f} | {rr_fmt}\n")
    buf.write(f"{'fixed-priority':<16} | {fx_fair:>8.3f} | {fx_fmt}\n")
    report("ablation_arbitration_fairness", buf.getvalue())

    assert rr_fair > 0.99
    assert fx_fair < 0.5
    # Fixed priority starves everyone but thread 0.
    assert fx_tps[0] > 0.9
    assert max(fx_tps[1:]) < 0.1


def test_masking_policy_on_barrier_topology(benchmark, report):
    results = benchmark(lambda: {
        policy.name: barrier_deadlock_probe(policy)
        for policy in GrantPolicy
    })
    buf = io.StringIO()
    buf.write("Grant-policy ablation on a source->MEB->barrier->sink "
              "topology\n(True = all items delivered, False = deadlock "
              "detected)\n\n")
    for name, ok in results.items():
        buf.write(f"  {name:<16} {'progress' if ok else 'DEADLOCK'}\n")
    buf.write(
        "\nPure downstream-ready masking deadlocks: the barrier opens only "
        "after seeing\nevery thread's valid, but a masked arbiter never "
        "presents a thread whose ready\nis low. The fallback policy "
        "probes with valid threads and breaks the knot\n(DESIGN.md §5).\n"
    )
    report("ablation_grant_policy", buf.getvalue())

    assert results["MASKED"] is False
    assert results["MASKED_FALLBACK"] is True
    assert results["UNMASKED"] is True


def test_policies_identical_on_pipelines(report):
    """On MEB-to-MEB pipelines every policy delivers the same streams —
    the configurations the paper measures are unaffected by the choice."""
    outputs = {}
    for policy in GrantPolicy:
        items = [list(range(12)), list(range(12))]
        sim, _src, sink, _mebs, _mons = make_mt_pipeline(
            FullMEB, threads=2, items=items, n_stages=3, policy=policy
        )
        sim.run(cycles=80)
        outputs[policy.name] = (sink.values_for(0), sink.values_for(1))
    assert outputs["MASKED"] == outputs["MASKED_FALLBACK"] == outputs["UNMASKED"]
    report(
        "ablation_policy_pipeline_equivalence",
        "All three grant policies deliver identical per-thread streams on "
        "a 3-stage\nMEB pipeline (the paper's measured topology).\n",
    )
