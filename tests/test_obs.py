"""The observability layer: exposition format, tracer, kernel profiler.

The profiler tests pin its hard contract differentially: a profiled run
must be *bit-identical* to an unprofiled one (same cycles, same sink
contents, same campaign metrics) on every engine, and a detached
simulator must carry zero profiler residue — it runs the exact code it would have run had the profiler
never existed.
"""

from __future__ import annotations

import json
import re

import pytest

from repro.core import FullMEB
from repro.kernel import Simulator
from repro.obs import KernelProfiler, NullTracer, Tracer
from repro.sweep.families import make_mt_bursty, make_mt_pipeline
from repro.sweep.report import canonical_report
from repro.sweep.runner import run_campaign
from repro.sweep.spec import from_dict

ENGINES = ("naive", "compiled")


# ----------------------------------------------------------------------
# Prometheus exposition (JobService.render_metrics; tests in
# test_resilience.py, which has the fault-injecting families)
# ----------------------------------------------------------------------

#: One Prometheus text-format sample line: name{labels} value
_SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? "
    r"(-?\d+(\.\d+)?([eE][+-]?\d+)?|[+-]Inf|NaN)$"
)


def _assert_valid_exposition(text: str) -> None:
    """Every line is a comment or a well-formed sample; every sample's
    metric family is preceded by # HELP and # TYPE lines."""
    assert text.endswith("\n")
    declared = set()
    for line in text.splitlines():
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            declared.add(line.split()[2])
            continue
        assert _SAMPLE_RE.match(line), f"malformed sample line: {line!r}"
        name = line.split("{")[0].split(" ")[0]
        base = re.sub(r"_(bucket|sum|count)$", "", name)
        assert name in declared or base in declared, (
            f"sample {name} has no HELP/TYPE header"
        )


# ----------------------------------------------------------------------
# tracer
# ----------------------------------------------------------------------

class TestTracer:
    def test_span_nesting_and_jsonl(self):
        tracer = Tracer(trace_id="t-1", worker=3)
        with tracer.span("job", campaign="c") as job:
            with tracer.span("unit", parent=job, scenarios=2) as unit:
                with tracer.span("scenario", parent=unit, key="k"):
                    pass
        spans = tracer.spans()
        assert [s["name"] for s in spans] == ["scenario", "unit", "job"]
        by_name = {s["name"]: s for s in spans}
        assert by_name["unit"]["parent_id"] == by_name["job"]["span_id"]
        assert by_name["scenario"]["parent_id"] == by_name["unit"]["span_id"]
        for s in spans:
            assert s["trace_id"] == "t-1"
            assert s["attrs"]["worker"] == 3
            assert s["duration_s"] >= 0
        lines = tracer.to_jsonl().splitlines()
        assert [json.loads(line)["name"] for line in lines] == [
            "scenario", "unit", "job",
        ]

    def test_span_parent_accepts_id_string(self):
        tracer = Tracer(trace_id="t-2")
        with tracer.span("child", parent="abcd1234abcd1234"):
            pass
        assert tracer.spans()[0]["parent_id"] == "abcd1234abcd1234"

    def test_exception_sets_error_attr(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("nope")
        span = tracer.spans()[0]
        assert "RuntimeError" in span["attrs"]["error"]

    def test_null_tracer_is_inert(self):
        tracer = NullTracer()
        with tracer.span("anything", parent=None, k=1) as span:
            span.set(more=2)
        assert tracer.spans() == []


# ----------------------------------------------------------------------
# kernel profiler
# ----------------------------------------------------------------------

def _pipeline(engine):
    items = [list(range(6)) for _ in range(2)]
    return make_mt_pipeline(
        FullMEB, threads=2, items=items, n_stages=2, engine=engine,
    )


def _drain(sim, sink, threads=2, n_items=6):
    sim.run(until=lambda s: sink.count == threads * n_items,
            max_cycles=5_000)


class TestKernelProfiler:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_profiled_run_bit_identical(self, engine):
        sim_a, _src, sink_a, _mebs, _mons = _pipeline(engine)
        _drain(sim_a, sink_a)
        sim_b, _src, sink_b, _mebs, _mons = _pipeline(engine)
        with sim_b.profile() as prof:
            _drain(sim_b, sink_b)
        assert sim_b.cycle == sim_a.cycle
        assert sink_b.received == sink_a.received
        report = prof.report()
        assert report["engine"] == engine
        assert report["cycles"]["total"] == sim_b.cycle
        assert report["settle"]["calls"] > 0
        assert report["settle"]["iterations"] >= report["settle"]["calls"]
        assert report["components"], "no component attribution"
        total_calls = sum(c["settle_calls"] for c in report["components"])
        assert total_calls > 0

    @pytest.mark.parametrize("engine", ENGINES)
    def test_detach_leaves_no_residue(self, engine):
        sim, _src, sink, _mebs, _mons = _pipeline(engine)
        with sim.profile():
            sim.run(cycles=3)
        assert sim.profiler is None
        assert "_tick" not in sim.__dict__
        assert "settle" not in sim._engine.__dict__
        # the simulator still advances and completes after detach
        _drain(sim, sink)
        assert sink.count == 12

    def test_profiled_idle_run_matches_unprofiled(self):
        """Idle-heavy bursty run: profiled == unprofiled, every cycle ticked.

        ``cycles.fused`` stays in the report, always 0, for readers of
        the old key (the perfbench workloads).
        """
        runs = []
        for profiled in (False, True):
            sim, src, sink, _mebs, mons = make_mt_bursty(
                FullMEB, threads=2, n_stages=2, engine="compiled",
            )
            if profiled:
                prof = sim.attach_profiler()
            for t in range(2):
                for i in range(4):
                    src.push(t, (t << 8) | i)
            sim.run(cycles=500)
            runs.append((sim.cycle, sink.received, [m.activity for m in mons]))
        assert runs[0] == runs[1]
        assert len(runs[0][1]) == 8
        report = prof.report()
        assert report["cycles"] == {"total": 500, "ticked": 500, "fused": 0}

    def test_constructor_flag_and_detach(self):
        from repro.kernel import Component

        class Counter(Component):
            def __init__(self, name):
                super().__init__(name)
                self.out = self.output("out", width=8, init=0)
                self._value = 0
                self._next = None

            def combinational(self):
                self.out.set(self._value)

            def capture(self):
                self._next = self._value + 1

            def commit(self):
                self._value = self._next

            def reset(self):
                self._value = 0
                self._next = None

        sim = Simulator(profile=True)
        sim.add(Counter("cnt"))
        sim.reset()
        sim.run(cycles=5)
        assert isinstance(sim.profiler, KernelProfiler)
        report = sim.profiler.report()
        assert report["cycles"]["total"] == 5
        detached = sim.detach_profiler()
        assert detached is not None and sim.profiler is None
        sim.run(cycles=2)
        assert sim.cycle == 7

    def test_compiled_regions_attributed(self):
        sim, _src, sink, _mebs, _mons = _pipeline("compiled")
        with sim.profile() as prof:
            _drain(sim, sink)
        report = prof.report()
        assert report["regions"], "compiled engine exposed no regions"
        assert sum(r["settle_calls"] for r in report["regions"]) > 0
        members = [m for r in report["regions"] for m in r["members"]]
        assert len(members) == len(set(members))

    def test_report_top_caps_hot_list(self):
        sim, _src, sink, _mebs, _mons = _pipeline("compiled")
        with sim.profile() as prof:
            _drain(sim, sink)
        full = prof.report()["components"]
        capped = prof.report(top=2)["components"]
        assert len(capped) == 2
        assert capped == full[:2]


# ----------------------------------------------------------------------
# campaign-level parity: profiling must not change any report content
# ----------------------------------------------------------------------

PARITY_CAMPAIGN = {
    "campaign": {"name": "obs-parity", "seed": 17},
    "scenarios": [
        {
            "family": "mt_pipeline",
            "params": {"threads": 2, "n_stages": 2},
            "grid": {"meb": ["full", "reduced"]},
            "stimulus": {"kind": "uniform", "items_per_thread": 6},
        },
        {
            "family": "mt_chain",
            "params": {"threads": 2, "n_funcs": 2},
            "stimulus": {"kind": "uniform", "items_per_thread": 5},
        },
    ],
}


class TestCampaignParity:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_profile_on_off_identical_reports(self, engine):
        spec = from_dict(PARITY_CAMPAIGN)
        plain = run_campaign(spec, workers=1, engine=engine)
        profiled = run_campaign(
            from_dict(PARITY_CAMPAIGN), workers=1, engine=engine,
            profile=True,
        )
        assert any("profile" in row for row in profiled["scenarios"])
        assert canonical_report(profiled) == canonical_report(plain)

    def test_profile_parity_across_worker_counts(self):
        plain = run_campaign(from_dict(PARITY_CAMPAIGN), workers=1)
        pooled = run_campaign(
            from_dict(PARITY_CAMPAIGN), workers=2, profile=True,
        )
        assert canonical_report(pooled) == canonical_report(plain)

    def test_profile_report_shape_in_rows(self):
        report = run_campaign(
            from_dict(PARITY_CAMPAIGN), workers=1, profile=True,
        )
        profiled = [r for r in report["scenarios"] if "profile" in r]
        assert profiled
        for row in profiled:
            prof = row["profile"]
            assert {"engine", "cycles", "phases", "settle",
                    "components"} <= set(prof)
