"""The jobs API: queue, worker pool, dedup store, cancellation.

The service-level acceptance properties live here:

* resubmitting an identical campaign to a warm service completes with
  zero simulated scenarios (100% dedup hits) and bit-identical
  per-scenario metrics;
* design caches survive across jobs (the cross-job extension of the
  per-campaign reuse the runner always had), in both inline and
  pooled mode;
* a worker process that dies fails only its in-flight scenario — the
  pool respawns the worker and the job (and later jobs) complete.
"""

from __future__ import annotations

import multiprocessing
import os
import pathlib
import threading
import time

import pytest

from repro.sweep.jobs import JobService, design_affinity
from repro.sweep.registry import _REGISTRY, Family, register_family
from repro.sweep.report import canonical_report
from repro.sweep.runner import execute_scenario, run_campaign
from repro.sweep.spec import CampaignSpec, SpecError, from_dict, make_scenario
from repro.sweep.store import ResultStore

SMALL_CAMPAIGN = {
    "campaign": {"name": "jobs-test", "seed": 11, "workers": 2},
    "scenarios": [
        {
            "family": "mt_chain",
            "params": {"threads": 2, "n_funcs": 2},
            "stimulus": {"kind": "uniform", "items_per_thread": 6},
        },
        {
            "family": "mt_pipeline",
            "params": {"threads": 2, "n_stages": 2},
            "grid": {"meb": ["full", "reduced"]},
            "stimulus": {"kind": "uniform", "items_per_thread": 8},
        },
    ],
}


def _metrics_by_key(report):
    return {
        row["key"]: row["metrics"]
        for row in report["scenarios"]
        if row["status"] == "ok"
    }


@pytest.fixture
def temp_family():
    """Register throwaway families and drop them after the test."""
    registered = []

    def add(family: Family) -> Family:
        register_family(family)
        registered.append(family.name)
        return family

    try:
        yield add
    finally:
        for name in registered:
            _REGISTRY.pop(name, None)


class TestResultKey:
    def test_stimulus_options_change_the_key(self):
        a = make_scenario(
            "mt_chain", params={"threads": 2},
            stimulus={"kind": "uniform", "items_per_thread": 4},
        )
        b = make_scenario(
            "mt_chain", params={"threads": 2},
            stimulus={"kind": "uniform", "items_per_thread": 5},
        )
        # Same campaign key (options are not part of it) but distinct
        # result keys: dedup must not conflate different traffic.
        assert a.key == b.key
        assert a.result_key() != b.result_key()

    def test_key_is_deterministic(self):
        mk = lambda: make_scenario(
            "md5", params={"threads": 4}, stimulus={"messages": 2}, seed=3
        )
        assert mk().result_key() == mk().result_key()

    def test_seed_participates(self):
        a = make_scenario("mt_chain", seed=1)
        b = make_scenario("mt_chain", seed=2)
        assert a.result_key() != b.result_key()


class TestResultStore:
    def test_only_ok_rows_stored(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        assert not store.put("k1", {"status": "error", "error": "boom"})
        assert store.put("k2", {"status": "ok", "metrics": {"cycles": 5}})
        assert len(store) == 1

    def test_roundtrip_and_reload(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        row = {
            "key": "x()/uniform", "status": "ok",
            "metrics": {"cycles": 9}, "shard": 3, "duration_s": 1.2,
            "design_cache": "hit", "index": 7,
        }
        store.put("k", row)
        reloaded = ResultStore(path)
        got = reloaded.get("k")
        assert got["metrics"] == {"cycles": 9}
        # Placement metadata must not survive into the store.
        for field in ("shard", "duration_s", "design_cache", "index"):
            assert field not in got
        assert reloaded.stats()["hits"] == 1

    def test_hit_rate(self):
        store = ResultStore()
        store.put("k", {"status": "ok", "metrics": {}})
        assert store.get("k") is not None
        assert store.get("missing") is None
        stats = store.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == 0.5


class TestJobLifecycle:
    def test_submit_status_result(self):
        with JobService(workers=0) as service:
            job_id = service.submit(SMALL_CAMPAIGN)
            report = service.result(job_id)
            status = service.status(job_id)
        assert status["state"] == "done"
        assert status["completed"] == status["scenarios"] == 3
        assert status["ok"] == 3 and status["failed"] == 0
        assert report["summary"]["ok"] == 3
        assert [r["index"] for r in report["scenarios"]] == [0, 1, 2]

    def test_submit_accepts_spec_dict_path_and_object(self, tmp_path):
        import json as json_mod

        path = tmp_path / "c.json"
        path.write_text(json_mod.dumps(SMALL_CAMPAIGN), encoding="utf-8")
        spec = from_dict(SMALL_CAMPAIGN)
        with JobService(workers=0) as service:
            ids = [
                service.submit(SMALL_CAMPAIGN),
                service.submit(path),
                service.submit(spec),
            ]
            reports = [service.result(job_id) for job_id in ids]
        assert (
            _metrics_by_key(reports[0])
            == _metrics_by_key(reports[1])
            == _metrics_by_key(reports[2])
        )

    def test_bad_spec_raises_synchronously(self):
        with JobService(workers=0) as service:
            with pytest.raises(SpecError) as excinfo:
                service.submit({"scenarios": [{"params": {}}]})
        err = excinfo.value.to_dict()
        assert err["path"] == "scenarios[0]"
        assert err["field"] == "family"
        assert "family" in err["reason"]

    @pytest.mark.parametrize("name", ["event", "quantum"])
    def test_unknown_engine_rejected(self, name):
        # "event" names the deleted event engine: old scripts get one
        # clear error instead of a job whose rows all fail.
        with pytest.raises(ValueError, match="unknown settle engine"):
            JobService(workers=0, engine=name)
        with JobService(workers=0) as service:
            with pytest.raises(ValueError, match="unknown settle engine"):
                service.submit(SMALL_CAMPAIGN, engine=name)
            assert service.list_jobs() == []

    def test_unknown_job_id(self):
        with JobService(workers=0) as service:
            with pytest.raises(KeyError):
                service.status("job-999999")

    def test_list_jobs_in_submission_order(self):
        with JobService(workers=0) as service:
            first = service.submit(SMALL_CAMPAIGN)
            second = service.submit(SMALL_CAMPAIGN)
            service.result(second)
            listed = service.list_jobs()
        assert [job["id"] for job in listed] == [first, second]

    def test_closed_service_rejects_submissions(self):
        service = JobService(workers=0)
        service.close()
        with pytest.raises(RuntimeError):
            service.submit(SMALL_CAMPAIGN)


class TestDedup:
    def test_warm_resubmission_simulates_nothing(self):
        with JobService(workers=0, store=True) as service:
            cold = service.result(service.submit(SMALL_CAMPAIGN))
            warm = service.result(service.submit(SMALL_CAMPAIGN))
        assert "dedup_hits" not in cold["summary"]
        # The acceptance property: 100% dedup hits, zero simulated.
        assert warm["summary"]["dedup_hits"] == 3
        assert all(row["cached"] for row in warm["scenarios"])
        assert canonical_report(cold) == canonical_report(warm)

    def test_store_persists_across_services(self, tmp_path):
        path = tmp_path / "results.jsonl"
        with JobService(workers=0, store=path) as service:
            first = service.result(service.submit(SMALL_CAMPAIGN))
        with JobService(workers=0, store=path) as service:
            second = service.result(service.submit(SMALL_CAMPAIGN))
        assert second["summary"]["dedup_hits"] == 3
        assert _metrics_by_key(first) == _metrics_by_key(second)

    def test_different_stimulus_misses(self):
        changed = {
            "campaign": dict(SMALL_CAMPAIGN["campaign"]),
            "scenarios": [
                {
                    "family": "mt_chain",
                    "params": {"threads": 2, "n_funcs": 2},
                    "stimulus": {"kind": "uniform", "items_per_thread": 7},
                },
            ],
        }
        with JobService(workers=0, store=True) as service:
            service.result(service.submit(SMALL_CAMPAIGN))
            report = service.result(service.submit(changed))
        assert "dedup_hits" not in report["summary"]

    def test_service_lifetime_dedup_stats(self):
        # Per-job dedup_hits only covers one submission; stats() (and
        # therefore /healthz) folds every store lookup since service
        # start, which is what the CI smoke asserts on.
        with JobService(workers=0, store=True) as service:
            service.result(service.submit(SMALL_CAMPAIGN))
            cold = service.stats()["dedup"]
            assert cold == {
                "hits": 0, "misses": 3, "hit_rate": 0.0, "store_entries": 3,
            }
            service.result(service.submit(SMALL_CAMPAIGN))
            warm = service.stats()["dedup"]
            assert warm == {
                "hits": 3, "misses": 3, "hit_rate": 0.5, "store_entries": 3,
            }

    def test_storeless_service_reports_zero_dedup(self):
        with JobService(workers=0) as service:
            service.result(service.submit(SMALL_CAMPAIGN))
            assert service.stats()["dedup"] == {
                "hits": 0, "misses": 0, "hit_rate": 0.0, "store_entries": 0,
            }

    def test_errors_are_not_memoized(self):
        bad = {
            "campaign": {"name": "b", "seed": 1},
            "scenarios": [{"family": "warp_drive"}],
        }
        with JobService(workers=0, store=True) as service:
            first = service.result(service.submit(bad))
            second = service.result(service.submit(bad))
        assert first["scenarios"][0]["status"] == "error"
        assert second["scenarios"][0]["status"] == "error"
        assert not second["scenarios"][0].get("cached")


class TestDesignCacheAffinity:
    def test_inline_cache_survives_jobs(self):
        with JobService(workers=0) as service:
            first = service.result(service.submit(SMALL_CAMPAIGN))
            second = service.result(service.submit(SMALL_CAMPAIGN))
        assert {r["design_cache"] for r in first["scenarios"]} == {"build"}
        # Same designs, second job: every scenario rewinds a cached sim.
        assert {r["design_cache"] for r in second["scenarios"]} == {"hit"}
        assert _metrics_by_key(first) == _metrics_by_key(second)

    @pytest.mark.parametrize("engine", ["naive", "compiled"])
    def test_md5_design_rewinds_instead_of_rebuilding(self, engine):
        def md5_job(seed):
            return {
                "campaign": {"name": "md5-reuse", "seed": seed},
                "scenarios": [{
                    "family": "md5",
                    "params": {"threads": 2},
                    "stimulus": {"messages": 3, "size": 40},
                }],
            }

        with JobService(workers=0, engine=engine) as service:
            first = service.result(service.submit(md5_job(1)))
            second = service.result(service.submit(md5_job(2)))
        assert first["scenarios"][0]["design_cache"] == "build"
        [row] = second["scenarios"]
        assert row["status"] == "ok", row.get("error")
        assert row["design_cache"] == "hit"
        scenario = from_dict(md5_job(2)).scenarios[0]
        assert scenario.seed != from_dict(md5_job(1)).scenarios[0].seed
        fresh = execute_scenario(scenario, engine)
        assert fresh["design_cache"] == "none"
        assert row["metrics"] == fresh["metrics"]
        assert row["metrics"]["digests_ok"] is True

    def test_affinity_is_stable(self):
        key = "mt_chain(n_funcs=2,threads=2)"
        assert design_affinity(key, 4) == design_affinity(key, 4)
        assert 0 <= design_affinity(key, 4) < 4

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="pool tests rely on fork inheritance",
    )
    def test_pooled_cache_survives_jobs(self):
        with JobService(workers=2) as service:
            first = service.result(service.submit(SMALL_CAMPAIGN))
            second = service.result(service.submit(SMALL_CAMPAIGN))
        assert {r["design_cache"] for r in first["scenarios"]} == {"build"}
        assert {r["design_cache"] for r in second["scenarios"]} == {"hit"}
        # Affinity: each design key maps to exactly one worker, and the
        # assignment repeats across jobs.
        for report in (first, second):
            by_design: dict[str, set] = {}
            for row in report["scenarios"]:
                design = f"{row['family']}({row['params']})"
                by_design.setdefault(design, set()).add(row["shard"])
            assert all(len(shards) == 1 for shards in by_design.values())
        assert _metrics_by_key(first) == _metrics_by_key(second)

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="pool tests rely on fork inheritance",
    )
    def test_pooled_equals_inline(self):
        inline = run_campaign(from_dict(SMALL_CAMPAIGN), workers=1)
        with JobService(workers=2) as service:
            pooled = service.result(service.submit(SMALL_CAMPAIGN))
        assert _metrics_by_key(inline) == _metrics_by_key(pooled)


def _build_nothing(params, engine):
    return object()


def _run_kill_worker(handle, scenario):
    os._exit(3)


def _run_trivial(handle, scenario):
    return {"cycles": 1}


def _run_unpicklable(handle, scenario):
    return {"cycles": 1, "hook": lambda: None}


class TestWorkerDeath:
    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="pool tests rely on fork inheritance",
    )
    def test_worker_death_contained_and_respawned(self, temp_family):
        temp_family(Family(
            name="_kills_worker", build=_build_nothing,
            run=_run_kill_worker, reusable=False,
        ))
        spec = {
            "campaign": {"name": "kill", "seed": 1},
            "scenarios": [
                {"family": "_kills_worker"},
                {
                    "family": "mt_chain",
                    "params": {"threads": 2, "n_funcs": 1},
                    "stimulus": {"kind": "uniform", "items_per_thread": 3},
                },
            ],
        }
        with JobService(workers=2) as service:
            report = service.result(service.submit(spec))
            stats = service.stats()
            # The pool recovered: a later healthy job still completes.
            after = service.result(service.submit(SMALL_CAMPAIGN))
        rows = {r["key"]: r for r in report["scenarios"]}
        killed = rows["_kills_worker()/uniform"]
        assert killed["status"] == "worker-failed"
        assert "died" in killed["error"]
        # The default retry budget (1) re-ran the unit once; the family
        # kills its worker every time, so the row exhausted both
        # attempts and both deaths triggered a respawn.
        assert killed["attempts"] == 2
        healthy = rows["mt_chain(n_funcs=1,threads=2)/uniform"]
        assert healthy["status"] == "ok"
        assert stats["workers"]["respawns"] == 2
        assert all(stats["workers"]["alive"])
        assert after["summary"]["failed"] == 0


    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="pool tests rely on fork inheritance",
    )
    def test_unpicklable_row_becomes_an_error_row(self, temp_family):
        temp_family(Family(
            name="_unpicklable", build=_build_nothing,
            run=_run_unpicklable, reusable=False,
        ))
        spec = {
            "campaign": {"name": "pickle", "seed": 1},
            "scenarios": [
                {"family": "_unpicklable"},
                {
                    "family": "mt_chain",
                    "params": {"threads": 2, "n_funcs": 1},
                    "stimulus": {"kind": "uniform", "items_per_thread": 3},
                },
            ],
        }
        service = JobService(workers=2)
        try:
            report = service.result(service.submit(spec), timeout=30)
        finally:
            closer = threading.Thread(target=service.close, daemon=True)
            closer.start()
            closer.join(timeout=30)
        assert not closer.is_alive(), "service close blocked"
        rows = {r["family"]: r for r in report["scenarios"]}
        bad = rows["_unpicklable"]
        assert bad["status"] == "error"
        assert "cannot be sent" in bad["error"]
        assert "pickle" in bad["error"]
        assert bad["attempts"] == 1  # a design error, never retried
        assert rows["mt_chain"]["status"] == "ok"


#: Directory holding the `started`/`release` files of `_run_gated`.
_GATE_DIR: list[str] = [""]


def _run_gated(handle, scenario):
    # Files, not an Event, so the gate also works in forked workers.
    gate = pathlib.Path(_GATE_DIR[0])
    (gate / "started").touch()
    deadline = time.time() + 30
    while not (gate / "release").exists() and time.time() < deadline:
        time.sleep(0.01)
    return {"cycles": scenario.seed % 997}


class TestStaleResults:
    @pytest.mark.parametrize("workers", [0, 2])
    def test_forged_stale_result_is_ignored(
        self, tmp_path, temp_family, workers
    ):
        if workers and multiprocessing.get_start_method() != "fork":
            pytest.skip("pool tests rely on fork inheritance")
        temp_family(Family(
            name="_gated", build=_build_nothing, run=_run_gated,
            reusable=False,
        ))
        spec = {
            "campaign": {"name": "stale", "seed": 4},
            "scenarios": [{"family": "_gated"}],
        }
        expected = {"cycles": from_dict(spec).scenarios[0].seed % 997}
        _GATE_DIR[0] = str(tmp_path)
        try:
            with JobService(workers=workers) as service:
                job_id = service.submit(spec)
                deadline = time.time() + 30
                while not (tmp_path / "started").exists():
                    assert time.time() < deadline, "unit never started"
                    time.sleep(0.01)
                # Results for the same scenario index, from a dispatch
                # this job never made and from another job: a late
                # result of a killed attempt looks exactly like this.
                forged = {
                    "key": "_gated()/uniform", "index": 0,
                    "family": "_gated", "status": "ok",
                    "metrics": {"cycles": -1},
                }
                pool = service._pool
                for widx in range(pool.size):
                    for token in ((job_id, 0), ("job-999999", 1)):
                        pool.results.put((widx, token, [dict(forged)], []))
                (tmp_path / "release").touch()
                report = service.result(job_id, timeout=60)
                status = service.status(job_id)
        finally:
            _GATE_DIR[0] = ""
        [row] = report["scenarios"]
        assert row["status"] == "ok"
        assert row["metrics"] == expected
        assert row["attempts"] == 1
        assert status["completed"] == 1


class TestCancel:
    def test_cancel_running_job(self, temp_family):
        gate = threading.Event()
        started = threading.Event()

        def run(handle, scenario):
            started.set()
            assert gate.wait(10)
            return {"cycles": 1}

        temp_family(Family(
            name="_blocker", build=_build_nothing, run=run, reusable=False,
        ))
        spec = {
            "campaign": {"name": "cancelme", "seed": 1},
            "scenarios": [{"family": "_blocker"}] * 3,
        }
        with JobService(workers=0) as service:
            job_id = service.submit(spec)
            assert started.wait(10)
            assert service.cancel(job_id)
            gate.set()
            report = service.result(job_id)
            status = service.status(job_id)
        assert status["state"] == "cancelled"
        assert [r["status"] for r in report["scenarios"]] == [
            "ok", "cancelled", "cancelled",
        ]

    def test_cancel_queued_job(self, temp_family):
        gate = threading.Event()
        started = threading.Event()

        def run(handle, scenario):
            started.set()
            assert gate.wait(10)
            return {"cycles": 1}

        temp_family(Family(
            name="_blocker2", build=_build_nothing, run=run, reusable=False,
        ))
        blocker = {
            "campaign": {"name": "head", "seed": 1},
            "scenarios": [{"family": "_blocker2"}],
        }
        with JobService(workers=0) as service:
            head = service.submit(blocker)
            queued = service.submit(SMALL_CAMPAIGN)
            assert started.wait(10)
            assert service.cancel(queued)
            gate.set()
            service.result(head)
            report = service.result(queued)
            status = service.status(queued)
        assert status["state"] == "cancelled"
        assert all(
            r["status"] == "cancelled" for r in report["scenarios"]
        )

    def test_cancel_finished_job_returns_false(self):
        with JobService(workers=0) as service:
            job_id = service.submit(SMALL_CAMPAIGN)
            service.result(job_id)
            assert not service.cancel(job_id)


class TestRunCampaignCompat:
    """run_campaign is now a jobs-API client; its contract must hold."""

    def test_report_shape_unchanged(self):
        report = run_campaign(from_dict(SMALL_CAMPAIGN), workers=1)
        assert set(report) == {"campaign", "summary", "scenarios"}
        assert report["campaign"]["workers"] == 1
        for row in report["scenarios"]:
            assert {"key", "index", "status", "shard", "duration_s"} <= set(
                row
            )

    def test_store_argument_memoizes(self, tmp_path):
        spec = from_dict(SMALL_CAMPAIGN)
        store = tmp_path / "memo.jsonl"
        cold = run_campaign(spec, workers=1, store=store)
        warm = run_campaign(spec, workers=1, store=store)
        assert warm["summary"]["dedup_hits"] == 3
        assert _metrics_by_key(cold) == _metrics_by_key(warm)


class TestCampaignSpecType:
    def test_submit_requires_expanded_spec(self):
        spec = from_dict(SMALL_CAMPAIGN)
        assert isinstance(spec, CampaignSpec)


class TestObservability:
    """Events stream, merged traces, metrics — the jobs-API surface."""

    def test_events_replay_after_done(self):
        with JobService(workers=0) as service:
            job_id = service.submit(SMALL_CAMPAIGN)
            service.result(job_id)
            events = list(service.events(job_id))
        assert events[0]["event"] == "job"
        assert events[0]["state"] == "running"
        scenario_events = [e for e in events if e["event"] == "scenario"]
        assert len(scenario_events) == 3
        keys = {e["key"] for e in scenario_events}
        assert len(keys) == 3
        assert [e["completed"] for e in scenario_events] == [1, 2, 3]
        for e in scenario_events:
            assert e["total"] == 3 and e["status"] == "ok"
            assert e["cached"] is False
        last = events[-1]
        assert last["event"] == "job" and last["state"] == "done"
        assert last["ok"] == 3 and last["failed"] == 0
        # seq numbers are the dedup key for replay/live overlap
        assert [e["seq"] for e in events] == list(range(len(events)))

    def test_events_live_subscriber_sees_everything(self, temp_family):
        gate = threading.Event()
        started = threading.Event()

        def run(handle, scenario):
            started.set()
            assert gate.wait(10)
            return {"cycles": 1}

        temp_family(Family(
            name="_slow_obs", build=_build_nothing, run=run, reusable=False,
        ))
        spec = {
            "campaign": {"name": "live", "seed": 1},
            "scenarios": [{"family": "_slow_obs"}] * 2,
        }
        with JobService(workers=0) as service:
            job_id = service.submit(spec)
            assert started.wait(10)
            collected = []

            def consume():
                for event in service.events(job_id, timeout=30):
                    collected.append(event)

            consumer = threading.Thread(target=consume, daemon=True)
            consumer.start()
            gate.set()
            consumer.join(timeout=30)
            assert not consumer.is_alive()
        assert collected[-1]["state"] == "done"
        assert sum(1 for e in collected if e["event"] == "scenario") == 2

    def test_events_cancelled_job_terminates_stream(self, temp_family):
        gate = threading.Event()
        started = threading.Event()

        def run(handle, scenario):
            started.set()
            assert gate.wait(10)
            return {"cycles": 1}

        temp_family(Family(
            name="_cancel_obs", build=_build_nothing, run=run,
            reusable=False,
        ))
        spec = {
            "campaign": {"name": "cancel-events", "seed": 1},
            "scenarios": [{"family": "_cancel_obs"}] * 3,
        }
        with JobService(workers=0) as service:
            job_id = service.submit(spec)
            assert started.wait(10)
            assert service.cancel(job_id)
            gate.set()
            events = list(service.events(job_id, timeout=30))
        assert events[-1]["event"] == "job"
        assert events[-1]["state"] == "cancelled"

    def test_events_unknown_job_raises(self):
        with JobService(workers=0) as service:
            with pytest.raises(KeyError):
                list(service.events("job-999999"))

    def test_inline_trace_hierarchy(self):
        with JobService(workers=0) as service:
            job_id = service.submit(SMALL_CAMPAIGN)
            service.result(job_id)
            spans = service.trace(job_id)
        names = [s["name"] for s in spans]
        assert names.count("job") == 1
        assert "unit" in names and "scenario" in names
        assert {"build", "simulate", "metrics"} <= set(names)
        by_id = {s["span_id"]: s for s in spans}
        job_span = next(s for s in spans if s["name"] == "job")
        assert job_span["trace_id"] == job_id
        assert job_span["attrs"]["state"] == "done"
        for span in spans:
            assert span["trace_id"] == job_id
            if span["parent_id"] is not None:
                assert span["parent_id"] in by_id
        # start-ordered
        starts = [s["start_unix"] for s in spans]
        assert starts == sorted(starts)
        # Inline units run on the service's own thread worker: no span
        # carries a worker tag (the mark of out-of-process work), and
        # unit spans are mode="inline" children of the job span.
        assert all("worker" not in span["attrs"] for span in spans)
        unit_spans = [s for s in spans if s["name"] == "unit"]
        assert unit_spans
        for unit in unit_spans:
            assert unit["attrs"]["mode"] == "inline"
            assert unit["parent_id"] == job_span["span_id"]

    def test_pooled_trace_merges_worker_spans(self):
        with JobService(workers=2) as service:
            job_id = service.submit(SMALL_CAMPAIGN)
            service.result(job_id)
            spans = service.trace(job_id)
        assert all(s["trace_id"] == job_id for s in spans)
        workers_seen = {
            s["attrs"]["worker"]
            for s in spans
            if "worker" in s.get("attrs", {})
        }
        assert workers_seen, "no worker-tagged spans shipped back"
        scenario_spans = [s for s in spans if s["name"] == "scenario"]
        assert len(scenario_spans) == 3
        # worker unit spans parent to the dispatcher's job span
        job_span = next(s for s in spans if s["name"] == "job")
        unit_spans = [s for s in spans if s["name"] == "unit"]
        assert all(
            u["parent_id"] == job_span["span_id"] for u in unit_spans
        )

    def test_cached_rows_emit_events_and_spans(self):
        with JobService(workers=0, store=True) as service:
            first = service.submit(SMALL_CAMPAIGN)
            service.result(first)
            second = service.submit(SMALL_CAMPAIGN)
            service.result(second)
            events = list(service.events(second))
            spans = service.trace(second)
        scenario_events = [e for e in events if e["event"] == "scenario"]
        assert len(scenario_events) == 3
        assert all(e["cached"] for e in scenario_events)
        cached_spans = [
            s for s in spans
            if s["name"] == "scenario" and s["attrs"].get("cached")
        ]
        assert len(cached_spans) == 3

    def test_metrics_counters_accumulate(self):
        with JobService(workers=0, store=True) as service:
            first = service.submit(SMALL_CAMPAIGN)
            service.result(first)
            second = service.submit(SMALL_CAMPAIGN)
            service.result(second)
            text = service.render_metrics()
        assert "repro_jobs_submitted_total 2" in text
        assert 'repro_jobs_completed_total{state="done"} 2' in text
        assert 'repro_scenarios_completed_total{status="ok"} 6' in text
        assert 'repro_dedup_lookups_total{result="miss"} 3' in text
        assert 'repro_dedup_lookups_total{result="hit"} 3' in text
        assert "repro_scenario_duration_seconds_count 6" in text
        assert "repro_job_duration_seconds_count 2" in text

    def test_profile_flag_attaches_and_stays_volatile(self):
        store = ResultStore()
        with JobService(workers=0, store=store, profile=True) as service:
            job_id = service.submit(SMALL_CAMPAIGN)
            report = service.result(job_id)
        ok_rows = [
            r for r in report["scenarios"] if r["status"] == "ok"
        ]
        assert ok_rows and all("profile" in r for r in ok_rows)
        # canonical reports strip the profile payloads...
        canon = canonical_report(report)
        assert all("profile" not in r for r in canon["scenarios"])
        # ...and the dedup store never persists them
        assert len(store) == 3
        for row in store._rows.values():
            assert "profile" not in row

    def test_submit_profile_override(self):
        with JobService(workers=0, profile=False) as service:
            job_id = service.submit(SMALL_CAMPAIGN, profile=True)
            report = service.result(job_id)
            assert any("profile" in r for r in report["scenarios"])
            plain = service.submit(SMALL_CAMPAIGN)
            report = service.result(plain)
            assert not any("profile" in r for r in report["scenarios"])
