"""The HTTP front end: routes, structured errors, CLI↔service parity.

The server under test is the real ``ThreadingHTTPServer`` bound to a
free port on localhost, backed by an inline (``workers=0``) JobService
with an in-memory dedup store — the same wiring ``python -m
repro.serve --workers 0 --memory-store`` produces, minus the process.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.serve import ServiceClient, ServiceError, make_server
from repro.sweep import __main__ as sweep_cli
from repro.sweep.jobs import JobService
from repro.sweep.registry import _REGISTRY, Family, register_family, registry_payload
from repro.sweep.report import canonical_report
from repro.sweep.runner import run_campaign
from repro.sweep.spec import from_dict

CAMPAIGN = {
    "campaign": {"name": "http-test", "seed": 5, "workers": 2},
    "scenarios": [
        {
            "family": "mt_chain",
            "params": {"threads": 2, "n_funcs": 2},
            "stimulus": {"kind": "uniform", "items_per_thread": 6},
        },
        {
            "family": "mt_ring",
            "params": {"threads": 2, "n_funcs": 2},
            "grid": {"trips": [2, 3]},
            "stimulus": {"kind": "active", "items_per_thread": 5},
        },
    ],
}


@pytest.fixture
def service_client():
    service = JobService(workers=0, store=True)
    server = make_server(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    client = ServiceClient(f"http://{host}:{port}", timeout=30.0)
    try:
        yield client, service
    finally:
        server.shutdown()
        server.server_close()
        service.close()
        thread.join(timeout=5)


class TestRoutes:
    def test_healthz(self, service_client):
        client, _service = service_client
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["queue_depth"] == 0
        assert health["workers"]["mode"] == "inline"
        assert health["store"]["entries"] == 0
        assert health["uptime_s"] >= 0

    def test_families_matches_registry_and_cli(self, service_client, capsys):
        client, _service = service_client
        payload = client.families()
        assert payload == registry_payload()
        # The CLI's --json output is byte-for-byte the same structure.
        assert sweep_cli.main(["families", "--json"]) == 0
        cli_payload = json.loads(capsys.readouterr().out)
        assert cli_payload == payload
        assert "mt_pipeline" in payload["families"]
        info = payload["families"]["mt_ring"]
        assert info["reusable"] is True
        assert "threads" in info["params"]
        assert "active" in info["stimulus_kinds"]

    def test_submit_status_report(self, service_client):
        client, _service = service_client
        status = client.submit(CAMPAIGN)
        assert status["id"].startswith("job-")
        assert status["name"] == "http-test"
        assert status["state"] in ("queued", "running", "done")
        report = client.report(status["id"], wait=60)
        assert report["summary"]["ok"] == 3
        final = client.status(status["id"])
        assert final["state"] == "done"
        assert final["ok"] == 3 and final["failed"] == 0

    def test_campaigns_listing(self, service_client):
        client, _service = service_client
        assert client.campaigns() == []
        job_id = client.submit(CAMPAIGN)["id"]
        client.report(job_id, wait=60)
        listed = client.campaigns()
        assert [job["id"] for job in listed] == [job_id]

    def test_unknown_job_is_404(self, service_client):
        client, _service = service_client
        for call in (
            lambda: client.status("job-999999"),
            lambda: client.report("job-999999"),
            lambda: client.cancel("job-999999"),
        ):
            with pytest.raises(ServiceError) as excinfo:
                call()
            assert excinfo.value.status == 404

    def test_unknown_route_is_404(self, service_client):
        client, _service = service_client
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", "/nope")
        assert excinfo.value.status == 404

    def test_invalid_json_body_is_400(self, service_client):
        client, _service = service_client
        import urllib.request

        request = urllib.request.Request(
            f"{client.base_url}/campaigns",
            data=b"not json {",
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        import urllib.error

        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400

    def test_spec_error_is_structured_400(self, service_client):
        client, _service = service_client
        with pytest.raises(ServiceError) as excinfo:
            client.submit({"scenarios": [{"params": {"threads": 2}}]})
        assert excinfo.value.status == 400
        error = excinfo.value.payload["error"]
        # The machine-readable shape satellite (b): {path, field, reason}.
        assert error["path"] == "scenarios[0]"
        assert error["field"] == "family"
        assert "family" in error["reason"]

    def test_unknown_engine_is_400(self, service_client):
        client, service = service_client
        spec = {**CAMPAIGN, "campaign": {**CAMPAIGN["campaign"], "engine": "event"}}
        with pytest.raises(ServiceError) as excinfo:
            client.submit(spec)
        assert excinfo.value.status == 400
        error = excinfo.value.payload["error"]
        assert (error["path"], error["field"]) == ("campaign", "engine")
        assert service.list_jobs() == []


class TestParity:
    def test_cli_and_http_reports_identical(self, service_client):
        client, _service = service_client
        via_cli = run_campaign(from_dict(CAMPAIGN), workers=1)
        via_http = client.run(CAMPAIGN)
        assert canonical_report(via_cli) == canonical_report(via_http)

    def test_warm_resubmission_is_pure_dedup(self, service_client):
        client, service = service_client
        cold = client.run(CAMPAIGN)
        warm = client.run(CAMPAIGN)
        assert warm["summary"]["dedup_hits"] == 3
        assert all(row["cached"] for row in warm["scenarios"])
        assert canonical_report(cold) == canonical_report(warm)
        health = client.healthz()
        assert health["store"]["entries"] == 3
        assert health["store"]["hits"] == 3
        assert service.store.stats()["hit_rate"] == pytest.approx(0.5)


class TestCancelAndWait:
    def test_report_409_then_cancel(self, service_client):
        client, _service = service_client
        gate = threading.Event()
        started = threading.Event()

        def run(handle, scenario):
            started.set()
            assert gate.wait(10)
            return {"cycles": 1}

        register_family(Family(
            name="_http_blocker", build=lambda p, e: object(),
            run=run, reusable=False,
        ))
        try:
            spec = {
                "campaign": {"name": "stuck", "seed": 1},
                "scenarios": [{"family": "_http_blocker"}] * 2,
            }
            job_id = client.submit(spec)["id"]
            assert started.wait(10)
            with pytest.raises(ServiceError) as excinfo:
                client.report(job_id)
            assert excinfo.value.status == 409
            assert excinfo.value.payload["error"]["state"] == "running"
            cancelled = client.cancel(job_id)
            assert cancelled["cancelled"] is True
            gate.set()
            report = client.report(job_id, wait=30)
            assert [r["status"] for r in report["scenarios"]] == [
                "ok", "cancelled",
            ]
            assert client.status(job_id)["state"] == "cancelled"
        finally:
            gate.set()
            _REGISTRY.pop("_http_blocker", None)

    def test_wait_blocks_until_done(self, service_client):
        client, _service = service_client
        job_id = client.submit(CAMPAIGN)["id"]
        # A single waiting call — no polling loop — must return the
        # finished report.
        report = client.report(job_id, wait=60)
        assert report["summary"]["scenarios"] == 3


class TestServeCLI:
    def test_main_binds_announces_and_drains(self, capsys):
        """`python -m repro.serve` wiring: bind, announce, clean exit."""
        import repro.serve.__main__ as serve_main

        captured = {}

        def spy_make_server(service, host, port, quiet):
            server = make_server(service, host=host, port=port, quiet=quiet)
            captured["server"] = server
            # Stop the serve loop shortly after it starts; main() then
            # runs its normal drain path.
            threading.Timer(0.2, server.shutdown).start()
            return server

        real = serve_main.make_server
        serve_main.make_server = spy_make_server
        try:
            rc = serve_main.main(
                ["--port", "0", "--workers", "0", "--memory-store"]
            )
        finally:
            serve_main.make_server = real
        assert rc == 0
        out = capsys.readouterr().out
        assert "repro.serve listening on http://" in out
        assert "(inline, store=memory)" in out
        assert "repro.serve stopped" in out

    def test_unknown_engine_rejected(self, capsys):
        import repro.serve.__main__ as serve_main

        with pytest.raises(SystemExit) as excinfo:
            serve_main.main(["--port", "0", "--engine", "event"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'event'" in capsys.readouterr().err


class TestObservabilityRoutes:
    """GET /metrics, /campaigns/<id>/trace and /campaigns/<id>/events."""

    def test_metrics_scrape_format_and_series(self, service_client):
        client, _service = service_client
        job_id = client.submit(CAMPAIGN)["id"]
        client.report(job_id, wait=30)
        text = client.metrics()
        # exposition validity: every line is a comment or name[{..}] value
        import re as re_mod

        sample = re_mod.compile(
            r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? \S+$"
        )
        for line in text.splitlines():
            assert line.startswith("#") or sample.match(line), (
                f"malformed exposition line: {line!r}"
            )
        for series in (
            "repro_jobs_submitted_total",
            'repro_jobs_completed_total{state="done"}',
            "repro_job_duration_seconds_bucket",
            "repro_scenario_duration_seconds_bucket",
            'repro_scenarios_completed_total{status="ok"}',
            "repro_dedup_lookups_total",
            "repro_queue_depth",
            "repro_pool_workers 0",
            "repro_pool_workers_alive 0",
        ):
            assert series in text, f"/metrics is missing {series}"
        assert "repro_jobs_submitted_total 1" in text
        assert 'repro_scenarios_completed_total{status="ok"} 3' in text

    def test_trace_route(self, service_client):
        client, _service = service_client
        job_id = client.submit(CAMPAIGN)["id"]
        client.report(job_id, wait=30)
        spans = client.trace(job_id)
        names = [s["name"] for s in spans]
        assert names.count("job") == 1
        assert {"unit", "scenario", "build", "simulate", "metrics"} <= (
            set(names)
        )
        assert all(s["trace_id"] == job_id for s in spans)

    def test_events_route_streams_every_scenario(self, service_client):
        client, _service = service_client
        job_id = client.submit(CAMPAIGN)["id"]
        events = list(client.events(job_id, timeout=60))
        scenario_events = [e for e in events if e["event"] == "scenario"]
        assert len(scenario_events) == 3
        assert len({e["key"] for e in scenario_events}) == 3
        assert events[-1]["event"] == "job"
        assert events[-1]["state"] == "done"
        # replay: a second consumer of a finished job sees the same log
        again = list(client.events(job_id, timeout=10))
        assert [e["seq"] for e in again] == [e["seq"] for e in events]

    def test_trace_and_events_unknown_job_404(self, service_client):
        client, _service = service_client
        with pytest.raises(ServiceError) as excinfo:
            client.trace("job-999999")
        assert excinfo.value.status == 404
        with pytest.raises(ServiceError) as excinfo:
            list(client.events("job-999999"))
        assert excinfo.value.status == 404


class TestCLIFlags:
    def test_run_profile_and_follow(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(CAMPAIGN), encoding="utf-8")
        rc = sweep_cli.main([
            "run", str(spec_path), "--profile", "--follow",
            "--out", str(tmp_path / "out"), "--name", "obs",
        ])
        assert rc == 0
        captured = capsys.readouterr()
        # --follow writes progress to stderr, report paths to stdout
        assert "[3/3]" in captured.err
        assert "wrote" in captured.out
        md = (tmp_path / "out" / "obs.md").read_text(encoding="utf-8")
        assert "## Profile" in md
        assert "| component |" in md
        # profile payloads are volatile: the JSON report keeps them,
        # the canonical comparison ignores them
        report = json.loads(
            (tmp_path / "out" / "obs.json").read_text(encoding="utf-8")
        )
        assert any("profile" in r for r in report["scenarios"])
        canon = canonical_report(report)
        assert all("profile" not in r for r in canon["scenarios"])
