"""The resilience layer: deadlines, watchdog, retries, quotas, drain.

The acceptance properties of the fault-tolerant service:

* a deliberately hung scenario is killed at its deadline, lands as
  ``status="timeout"`` after exhausting retries, and its siblings all
  complete — inline and pooled;
* retried-then-ok rows are bit-identical to first-try rows
  (``canonical_report`` equality; ``attempts`` is volatile);
* admission control rejects over-quota submissions with a structured
  :class:`QuotaError` (HTTP 429 through the front end);
* graceful drain stops admission, finishes accepted jobs, flushes the
  store and delivers terminal events on open streams;
* the store survives crash-truncated appends and compacts losslessly.
"""

from __future__ import annotations

import collections
import json
import multiprocessing
import os
import signal
import threading
import time
import types

import pytest

from repro.sweep import __main__ as sweep_cli
from repro.sweep import jobs as jobs_mod
from repro.sweep.jobs import JobService, QuotaError
from repro.sweep.registry import (
    _REGISTRY,
    EnsembleSupport,
    Family,
    get_family,
    register_family,
)
from repro.sweep.report import canonical_report
from repro.sweep.spec import SpecError, from_dict, make_scenario
from repro.sweep.store import ResultStore

fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="pool tests rely on fork inheritance",
)


@pytest.fixture
def temp_family():
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


# Inline mode cannot kill a hung unit — it abandons the runner thread.
# The hung families below block on this event so abandoned zombies
# unwind promptly once the test releases them (pooled workers are
# simply SIGKILLed; the event never fires in the child).
_UNBLOCK = threading.Event()


@pytest.fixture
def unblock_hung():
    _UNBLOCK.clear()
    try:
        yield _UNBLOCK
    finally:
        _UNBLOCK.set()


def _build_tiny_chain(params, engine):
    return get_family("mt_chain").build(
        {"threads": 2, "n_funcs": 1, "width": 8}, engine
    )


def _run_hang(handle, scenario):
    # The deliberately hung scenario: a real simulation driven by a
    # never-true `until=` predicate (it only turns true when the test
    # tears down), with the safety bound lifted out of reach.
    handle.sim.run(until=lambda sim: _UNBLOCK.is_set(), max_cycles=10**9)
    return {"cycles": 0}


#: Marker file making `_run_hang_once` hang only on the first attempt.
_HANG_ONCE_MARKER: list[str] = [""]


def _run_hang_once(handle, scenario):
    marker = _HANG_ONCE_MARKER[0]
    if marker and not os.path.exists(marker):
        with open(marker, "w", encoding="utf-8") as fh:
            fh.write("hung\n")
        return _run_hang(handle, scenario)
    # Deterministic pure-function metrics: bit-identical on any
    # attempt, any worker, any engine.
    return {"cycles": scenario.seed % 997, "threads": 2}


def _hung_spec(extra_scenarios=(), timeout_s=0.75, **campaign):
    spec = {
        "campaign": {"name": "hung", "seed": 3, **campaign},
        "scenarios": [
            {"family": "_hangs", "timeout_s": timeout_s},
            {
                "family": "mt_chain",
                "params": {"threads": 2, "n_funcs": 1},
                "stimulus": {"kind": "uniform", "items_per_thread": 3},
            },
            *extra_scenarios,
        ],
    }
    return spec


class TestSpecTimeouts:
    def test_scenario_and_campaign_timeout_parse(self):
        spec = from_dict({
            "campaign": {"seed": 1, "timeout_s": 5, "retries": 2},
            "scenarios": [
                {"family": "mt_chain", "timeout_s": 0.5},
                {"family": "mt_chain", "stimulus": {"kind": "active"}},
            ],
        })
        assert spec.timeout_s == 5.0
        assert spec.retries == 2
        assert spec.scenarios[0].timeout_s == 0.5
        assert spec.scenarios[1].timeout_s is None

    def test_timeout_does_not_change_result_key(self):
        plain = make_scenario("mt_chain", params={"threads": 2})
        bounded = make_scenario(
            "mt_chain", params={"threads": 2}, timeout_s=1.0
        )
        assert plain.result_key() == bounded.result_key()

    @pytest.mark.parametrize("bad", [0, -1, "soon"])
    def test_invalid_timeout_rejected(self, bad):
        with pytest.raises(SpecError) as excinfo:
            from_dict({
                "campaign": {},
                "scenarios": [{"family": "mt_chain", "timeout_s": bad}],
            })
        assert excinfo.value.field == "timeout_s"

    @pytest.mark.parametrize("bad", [-1, 1.5, True, "two"])
    def test_invalid_retries_rejected(self, bad):
        with pytest.raises(SpecError) as excinfo:
            from_dict({
                "campaign": {"retries": bad},
                "scenarios": [{"family": "mt_chain"}],
            })
        assert excinfo.value.field == "retries"


class TestDerivedDeadline:
    def test_needs_min_samples_then_p95_multiple(self):
        with JobService(workers=0) as service:
            samples = service._durations.setdefault(
                "fam", collections.deque(maxlen=64)
            )
            for value in (0.1,) * (jobs_mod._TIMEOUT_MIN_SAMPLES - 1):
                samples.append(value)
            assert service._derived_timeout_s("fam") is None
            samples.append(10.0)  # p95 lands on the outlier
            derived = service._derived_timeout_s("fam")
            assert derived == pytest.approx(
                max(
                    jobs_mod._TIMEOUT_FLOOR_S,
                    jobs_mod._TIMEOUT_P95_MULTIPLE * 10.0,
                )
            )
            assert service._derived_timeout_s("unknown") is None

    def test_resolution_order(self, temp_family):
        with JobService(workers=0, default_timeout_s=99.0) as service:
            spec = from_dict({
                "campaign": {"seed": 1, "timeout_s": 7},
                "scenarios": [{"family": "mt_chain", "timeout_s": 3}],
            })
            job = jobs_mod.Job("job-x", spec, None, 1, timeout_s=1.0)
            scenario = spec.scenarios[0]
            assert service._resolve_timeout_s(job, scenario) == 1.0
            job.timeout_s = None
            assert service._resolve_timeout_s(job, scenario) == 3.0
            bare = make_scenario("mt_chain")
            assert service._resolve_timeout_s(job, bare) == 7.0
            job = jobs_mod.Job("job-y", from_dict({
                "campaign": {"seed": 1},
                "scenarios": [{"family": "mt_chain"}],
            }), None, 1)
            assert service._resolve_timeout_s(
                job, job.spec.scenarios[0]
            ) == 99.0

    def test_unit_deadline_is_none_if_any_member_unbounded(self):
        with JobService(workers=0) as service:
            spec = from_dict({
                "campaign": {"seed": 1},
                "scenarios": [
                    {"family": "mt_chain", "timeout_s": 2},
                    {"family": "mt_chain", "stimulus": {"kind": "active"}},
                ],
            })
            job = jobs_mod.Job("job-z", spec, None, 1)
            assert service._unit_deadline(job, spec.scenarios[:1]) == 2.0
            assert service._unit_deadline(job, list(spec.scenarios)) is None


class TestTimeoutInline:
    def test_hung_scenario_times_out_siblings_complete(
        self, temp_family, unblock_hung
    ):
        temp_family(Family(
            name="_hangs", build=_build_tiny_chain, run=_run_hang,
            reusable=False,
        ))
        with JobService(workers=0) as service:
            job_id = service.submit(_hung_spec(timeout_s=0.5), retries=0)
            report = service.result(job_id, timeout=60)
            events = list(service.events(job_id, timeout=5))
            # The service survives: a later job on the fresh runner
            # completes normally.
            again = service.result(service.submit({
                "campaign": {"name": "after", "seed": 9},
                "scenarios": [{
                    "family": "mt_chain",
                    "params": {"threads": 2, "n_funcs": 1},
                    "stimulus": {"kind": "uniform", "items_per_thread": 3},
                }],
            }), timeout=60)
        rows = {r["family"]: r for r in report["scenarios"]}
        hung = rows["_hangs"]
        assert hung["status"] == "timeout"
        assert "deadline" in hung["error"]
        assert hung["attempts"] == 1
        assert rows["mt_chain"]["status"] == "ok"
        assert report["summary"]["failed"] == 1
        watchdog = [e for e in events if e["event"] == "watchdog"]
        assert len(watchdog) == 1
        assert watchdog[0]["reason"] == "timeout"
        assert watchdog[0]["retrying"] is False
        assert again["summary"]["failed"] == 0
        text = service.render_metrics()
        assert "repro_scenario_timeouts_total 1" in text

    def test_retry_budget_exhausted_counts_attempts(
        self, temp_family, unblock_hung
    ):
        temp_family(Family(
            name="_hangs", build=_build_tiny_chain, run=_run_hang,
            reusable=False,
        ))
        with JobService(workers=0, retries=1) as service:
            job_id = service.submit(_hung_spec(timeout_s=0.5))
            report = service.result(job_id, timeout=60)
            events = list(service.events(job_id, timeout=5))
        hung = [r for r in report["scenarios"] if r["family"] == "_hangs"]
        assert hung[0]["status"] == "timeout"
        assert hung[0]["attempts"] == 2
        retry_events = [e for e in events if e["event"] == "retry"]
        assert [e["attempt"] for e in retry_events] == [2]
        assert retry_events[0]["reason"] == "timeout"
        watchdog = [e for e in events if e["event"] == "watchdog"]
        assert [e["retrying"] for e in watchdog] == [True, False]


class TestTimeoutPooled:
    @fork_only
    def test_hung_worker_killed_and_respawned(
        self, temp_family, unblock_hung
    ):
        temp_family(Family(
            name="_hangs", build=_build_tiny_chain, run=_run_hang,
            reusable=False,
        ))
        with JobService(workers=2, retries=0) as service:
            job_id = service.submit(_hung_spec(timeout_s=0.75))
            report = service.result(job_id, timeout=120)
            stats = service.stats()
            events = list(service.events(job_id, timeout=5))
        rows = {r["family"]: r for r in report["scenarios"]}
        assert rows["_hangs"]["status"] == "timeout"
        assert "killed" in rows["_hangs"]["error"]
        assert rows["mt_chain"]["status"] == "ok"
        assert stats["workers"]["respawns"] == 1
        assert all(stats["workers"]["alive"])
        watchdog = [e for e in events if e["event"] == "watchdog"]
        assert watchdog and watchdog[0]["reason"] == "timeout"


class TestRetryCanonicalEquality:
    @pytest.mark.parametrize("workers", [0, 2])
    @pytest.mark.parametrize("engine", [None, "naive", "compiled"])
    def test_retried_rows_bit_identical(
        self, tmp_path, temp_family, unblock_hung, workers, engine
    ):
        if workers == 2 and multiprocessing.get_start_method() != "fork":
            pytest.skip("pool tests rely on fork inheritance")
        temp_family(Family(
            name="_hangs_once", build=_build_tiny_chain,
            run=_run_hang_once, reusable=False,
        ))
        marker = tmp_path / f"hung-once-{workers}-{engine}"
        spec = {
            "campaign": {"name": "retry-parity", "seed": 21},
            "scenarios": [
                {"family": "_hangs_once", "timeout_s": 0.75},
                {
                    "family": "mt_chain",
                    "params": {"threads": 2, "n_funcs": 1},
                    "stimulus": {"kind": "uniform", "items_per_thread": 4},
                },
            ],
        }
        _HANG_ONCE_MARKER[0] = str(marker)
        try:
            with JobService(
                workers=workers, engine=engine, retries=1
            ) as service:
                disturbed = service.result(
                    service.submit(spec), timeout=120
                )
            # Undisturbed control: the marker pre-exists, so attempt 1
            # succeeds immediately on a fresh service.
            with JobService(
                workers=workers, engine=engine, retries=1
            ) as service:
                undisturbed = service.result(
                    service.submit(spec), timeout=120
                )
        finally:
            _HANG_ONCE_MARKER[0] = ""
        by_family = {r["family"]: r for r in disturbed["scenarios"]}
        assert by_family["_hangs_once"]["status"] == "ok"
        assert by_family["_hangs_once"]["attempts"] == 2
        control = {r["family"]: r for r in undisturbed["scenarios"]}
        assert control["_hangs_once"]["attempts"] == 1
        assert canonical_report(disturbed) == canonical_report(undisturbed)


def _fake_ensemble_build(params, engine):
    state = {"snapshots": 0}
    sim = types.SimpleNamespace(
        snapshot=lambda: dict(state),
        restore=lambda snap: None,
    )
    return types.SimpleNamespace(sim=sim)


#: Marker file making the chaos ensemble kill its worker exactly once.
_CHAOS_MARKER: list[str] = [""]


def _chaos_ensemble_run(handle, ctx, scenarios):
    marker = _CHAOS_MARKER[0]
    if marker and not os.path.exists(marker):
        with open(marker, "w", encoding="utf-8") as fh:
            fh.write("killed\n")
        os.kill(os.getpid(), signal.SIGKILL)
    return [
        ("ok", {"cycles": s.seed % 1009, "lane": s.params.get("lane")})
        for s in scenarios
    ]


class TestChaosEnsemble:
    @fork_only
    def test_sigkill_mid_ensemble_unit_retries_to_parity(
        self, tmp_path, temp_family
    ):
        temp_family(Family(
            name="_chaos_ens",
            build=_fake_ensemble_build,
            run=lambda handle, scenario: {"cycles": scenario.seed % 1009},
            reusable=True,
            ensemble=EnsembleSupport(
                group_key=lambda s: "chaos",
                lift=lambda handle: types.SimpleNamespace(
                    width=4, failures=[]
                ),
                run=_chaos_ensemble_run,
            ),
        ))
        spec = {
            "campaign": {"name": "chaos", "seed": 5},
            "scenarios": [
                {"family": "_chaos_ens", "grid": {"lane": [1, 2, 3]}},
                {
                    "family": "mt_chain",
                    "params": {"threads": 2, "n_funcs": 1},
                    "stimulus": {"kind": "uniform", "items_per_thread": 4},
                },
            ],
        }
        marker = tmp_path / "chaos-once"
        _CHAOS_MARKER[0] = str(marker)
        try:
            with JobService(workers=2, retries=1) as service:
                disturbed = service.result(
                    service.submit(spec), timeout=120
                )
                stats = service.stats()
            with JobService(workers=2, retries=1) as service:
                undisturbed = service.result(
                    service.submit(spec), timeout=120
                )
        finally:
            _CHAOS_MARKER[0] = ""
        assert disturbed["summary"]["failed"] == 0
        ens_rows = [
            r for r in disturbed["scenarios"] if r["family"] == "_chaos_ens"
        ]
        assert len(ens_rows) == 3
        assert all(r["attempts"] == 2 for r in ens_rows)
        assert stats["workers"]["respawns"] == 1
        assert canonical_report(disturbed) == canonical_report(undisturbed)


class TestAdmissionControl:
    def test_queue_and_scenario_quotas(self, temp_family):
        gate = threading.Event()
        started = threading.Event()

        def run(handle, scenario):
            started.set()
            assert gate.wait(10)
            return {"cycles": 1}

        temp_family(Family(
            name="_adm_blocker", build=lambda p, e: object(), run=run,
            reusable=False,
        ))
        blocker = {
            "campaign": {"name": "blocker", "seed": 1},
            "scenarios": [{"family": "_adm_blocker"}],
        }
        try:
            with JobService(
                workers=0, max_queued_jobs=1, max_scenarios_per_job=2
            ) as service:
                running = service.submit(blocker)
                assert started.wait(10)
                # Queue has room: the per-job scenario quota is what trips.
                with pytest.raises(QuotaError) as excinfo:
                    service.submit({
                        "campaign": {"name": "big", "seed": 2},
                        "scenarios": [{
                            "family": "mt_chain",
                            "grid": {"threads": [2, 4, 8]},
                        }],
                    })
                assert excinfo.value.kind == "too_many_scenarios"
                assert excinfo.value.actual == 3
                queued = service.submit(blocker)  # 1 queued: at quota
                # The queue check runs before spec expansion, so a full
                # queue rejects even well-formed jobs.
                with pytest.raises(QuotaError) as excinfo:
                    service.submit(blocker)
                assert excinfo.value.kind == "queue_full"
                assert excinfo.value.limit == 1
                assert excinfo.value.to_dict()["actual"] == 1
                stats = service.stats()
                assert stats["admission"]["rejected"] == {
                    "queue_full": 1, "too_many_scenarios": 1,
                }
                assert stats["admission"]["saturation"] == 1.0
                text = service.render_metrics()
                assert (
                    'repro_jobs_rejected_total{reason="queue_full"} 1'
                    in text
                )
                gate.set()
                service.result(running, timeout=30)
                service.result(queued, timeout=30)
        finally:
            gate.set()


class TestGracefulDrain:
    def test_drain_finishes_jobs_rejects_new_flushes_store(
        self, tmp_path, temp_family
    ):
        gate = threading.Event()
        started = threading.Event()

        def run(handle, scenario):
            started.set()
            assert gate.wait(10)
            return {"cycles": 7}

        temp_family(Family(
            name="_drain_blocker", build=lambda p, e: object(), run=run,
            reusable=False,
        ))
        blocker = {
            "campaign": {"name": "drainee", "seed": 1},
            "scenarios": [{"family": "_drain_blocker"}],
        }
        store_path = tmp_path / "store.jsonl"
        service = JobService(workers=0, store=store_path)
        try:
            job_id = service.submit(blocker)
            assert started.wait(10)
            # An open stream must receive the terminal event during the
            # drain, before the service closes.
            seen: list[dict] = []
            stream_done = threading.Event()

            def consume():
                for event in service.events(job_id, timeout=30):
                    seen.append(event)
                stream_done.set()

            threading.Thread(target=consume, daemon=True).start()
            drained: list = []
            drainer = threading.Thread(
                target=lambda: drained.append(service.shutdown(drain=True)),
                daemon=True,
            )
            drainer.start()
            # Admission stops immediately, while the job still runs.
            deadline = time.time() + 5
            while time.time() < deadline:
                try:
                    service.submit(blocker)
                except QuotaError as exc:
                    assert exc.kind == "draining"
                    break
                time.sleep(0.02)
            else:
                pytest.fail("drain never started rejecting submissions")
            gate.set()
            drainer.join(timeout=30)
            assert not drainer.is_alive()
            assert drained and drained[0] is not None and drained[0] >= 0
            assert stream_done.wait(5)
            assert seen[-1]["event"] == "job"
            assert seen[-1]["state"] == "done"
            # The store was flushed with the finished row before close.
            reloaded = ResultStore(store_path)
            assert len(reloaded) == 1
            # Idempotent: a second shutdown is a no-op.
            assert service.shutdown() is None
        finally:
            gate.set()
            service.close()

    def test_shutdown_without_drain_cancels(self, temp_family):
        gate = threading.Event()
        started = threading.Event()

        def run(handle, scenario):
            started.set()
            assert gate.wait(10)
            return {"cycles": 1}

        temp_family(Family(
            name="_drop_blocker", build=lambda p, e: object(), run=run,
            reusable=False,
        ))
        spec = {
            "campaign": {"name": "dropped", "seed": 1},
            "scenarios": [{"family": "_drop_blocker"}] * 2,
        }
        service = JobService(workers=0)
        try:
            job_id = service.submit(spec)
            assert started.wait(10)
            gate.set()
            assert service.shutdown(drain=False) is not None
            report = service.job(job_id).report
            assert report is not None
            statuses = sorted(
                r["status"] for r in report["scenarios"]
            )
            assert statuses in (
                ["cancelled", "ok"], ["ok", "ok"], ["cancelled", "cancelled"]
            )
        finally:
            gate.set()
            service.close()


class TestStoreCrashSafety:
    def _seed_store(self, path, n=3):
        store = ResultStore(path)
        for i in range(n):
            store.put(f"key-{i}", {"status": "ok", "metrics": {"i": i}})
        return store

    def test_truncated_trailing_line_tolerated(self, tmp_path):
        path = tmp_path / "store.jsonl"
        self._seed_store(path)
        with path.open("a", encoding="utf-8") as fh:
            fh.write('{"key": "key-99", "row": {"status"')  # crash mid-append
        reloaded = ResultStore(path)
        assert len(reloaded) == 3
        assert reloaded.corrupt_lines == 1
        assert reloaded.get("key-1") == {"status": "ok", "metrics": {"i": 1}}
        assert reloaded.stats()["corrupt_lines"] == 1
        # Appending after a tolerated load still round-trips.
        reloaded.put("key-new", {"status": "ok", "metrics": {"i": 9}})
        assert len(ResultStore(path)) == 4

    def test_garbage_bytes_and_wrong_shapes_skipped(self, tmp_path):
        path = tmp_path / "store.jsonl"
        self._seed_store(path, n=2)
        with path.open("ab") as fh:
            fh.write(b"\x00\xffgarbage\n")
            fh.write(b'{"row": {"status": "ok"}}\n')  # missing key
            fh.write(b'{"key": 5, "row": {}}\n')  # key not a string
        reloaded = ResultStore(path)
        assert len(reloaded) == 2
        assert reloaded.corrupt_lines == 3

    def test_compact_round_trips_and_drops_junk(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = self._seed_store(path)
        with path.open("a", encoding="utf-8") as fh:
            fh.write("not json\n")
        store = ResultStore(path)
        before = {k: store.get(k) for k in ("key-0", "key-1", "key-2")}
        summary = store.compact()
        assert summary["entries"] == 3
        assert summary["dropped_lines"] == 1
        assert store.corrupt_lines == 0
        reloaded = ResultStore(path)
        assert len(reloaded) == 3
        assert reloaded.corrupt_lines == 0
        assert {
            k: reloaded.get(k) for k in before
        } == before
        # The file now has exactly one line per live entry.
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 3

    def test_lru_eviction(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ResultStore(path, max_entries=2)
        store.put("a", {"status": "ok", "metrics": {}})
        store.put("b", {"status": "ok", "metrics": {}})
        assert store.get("a") is not None  # refresh: b is now LRU
        store.put("c", {"status": "ok", "metrics": {}})
        assert store.get("b") is None
        assert store.get("a") is not None
        assert store.evictions == 1
        assert store.stats()["max_entries"] == 2
        # compact() drops evicted lines from the file too.
        store.compact()
        reloaded = ResultStore(path, max_entries=2)
        assert len(reloaded) == 2
        with pytest.raises(ValueError):
            ResultStore(max_entries=0)

    def test_flush_is_safe_everywhere(self, tmp_path):
        ResultStore().flush()  # memory store: no-op
        ResultStore(tmp_path / "never-written.jsonl").flush()
        store = self._seed_store(tmp_path / "store.jsonl", n=1)
        store.flush()
        assert len(ResultStore(tmp_path / "store.jsonl")) == 1


class TestServiceHTTP:
    def test_quota_rejection_is_429_with_structured_body(self, temp_family):
        from repro.serve import ServiceClient, ServiceError, make_server

        service = JobService(workers=0, max_scenarios_per_job=1)
        server = make_server(service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        client = ServiceClient(f"http://{host}:{port}", timeout=30.0)
        try:
            health = client.healthz()
            assert health["admission"]["max_scenarios_per_job"] == 1
            assert health["admission"]["draining"] is False
            with pytest.raises(ServiceError) as excinfo:
                client.submit({
                    "campaign": {"name": "big", "seed": 2},
                    "scenarios": [
                        {"family": "mt_chain", "grid": {"threads": [2, 4]}},
                    ],
                })
            assert excinfo.value.status == 429
            error = excinfo.value.payload["error"]
            assert error["kind"] == "too_many_scenarios"
            assert error["limit"] == 1
            assert error["actual"] == 2
            # 4xx is the caller's bug: the client must not have retried.
            assert (
                client.healthz()["admission"]["rejected"]
                == {"too_many_scenarios": 1}
            )
        finally:
            server.shutdown()
            server.server_close()
            service.close()
            thread.join(timeout=5)

    def test_client_retries_ride_out_late_server_start(self):
        import socket

        from repro.serve import ServiceClient, make_server

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        # The port is free again: connections are refused until the
        # server comes up ~0.4s from now.
        cleanup: list = []

        def late_start():
            time.sleep(0.4)
            service = JobService(workers=0)
            server = make_server(service, port=port)
            cleanup.extend([server, service])
            threading.Thread(
                target=server.serve_forever, daemon=True
            ).start()

        threading.Thread(target=late_start, daemon=True).start()
        try:
            eager = ServiceClient(
                f"http://127.0.0.1:{port}", timeout=5.0,
                retries=0, backoff_s=0.05,
            )
            with pytest.raises(OSError):
                eager.healthz()
            patient = ServiceClient(
                f"http://127.0.0.1:{port}", timeout=5.0,
                retries=6, backoff_s=0.15,
            )
            assert patient.healthz()["status"] == "ok"
        finally:
            time.sleep(0.05)
            for obj in cleanup:
                if hasattr(obj, "server_close"):
                    obj.shutdown()
                    obj.server_close()
                else:
                    obj.close()


class TestCLIFlags:
    def test_run_timeout_and_retries_flags(
        self, tmp_path, temp_family, unblock_hung, capsys
    ):
        temp_family(Family(
            name="_hangs", build=_build_tiny_chain, run=_run_hang,
            reusable=False,
        ))
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps(_hung_spec(timeout_s=30.0)), encoding="utf-8"
        )
        rc = sweep_cli.main([
            "run", str(spec_path), "--timeout-s", "0.5", "--retries", "0",
            "--out", str(tmp_path / "out"), "--name", "hung",
        ])
        assert rc == sweep_cli.EXIT_SCENARIO_FAILURES
        captured = capsys.readouterr()
        assert "FAILED" in captured.err and "timeout" in captured.err
        report = json.loads(
            (tmp_path / "out" / "hung.json").read_text(encoding="utf-8")
        )
        rows = {r["family"]: r for r in report["scenarios"]}
        # --timeout-s overrode the spec's generous 30s per-scenario value.
        assert rows["_hangs"]["status"] == "timeout"
        assert rows["_hangs"]["attempts"] == 1
        assert rows["mt_chain"]["status"] == "ok"
