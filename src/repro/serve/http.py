"""The HTTP/JSON front end: stdlib ``http.server`` over a JobService.

Transport only — every route is a thin translation between HTTP and
the :mod:`repro.sweep.jobs` API, so the CLI and the server can never
disagree about behaviour.  Spec validation errors surface as HTTP 400
with the :meth:`repro.sweep.spec.SpecError.to_dict` body — the same
``{path, field, reason}`` structure the CLI renders as text — and
admission-control rejections as HTTP 429 with the
:meth:`repro.sweep.jobs.QuotaError.to_dict` body.

The server is a ``ThreadingHTTPServer``: request threads only enqueue
jobs and read status snapshots; all simulation happens in the
service's dispatcher/worker processes.  It speaks HTTP/1.1, so a client
keeps one connection across requests (every response but the
``/events`` stream carries a ``Content-Length``); an idle kept-alive
connection is closed after :data:`IDLE_TIMEOUT_S`.
"""

from __future__ import annotations

import json
import re
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from repro.sweep.jobs import METRICS_CONTENT_TYPE, JobService, QuotaError
from repro.sweep.registry import registry_payload
from repro.sweep.spec import SpecError

#: Longest a ``?wait=`` report request may block, seconds.
MAX_WAIT_S = 300.0

#: Longest an ``/events`` stream waits between events, seconds.
EVENTS_TIMEOUT_S = 300.0

#: Longest a kept-alive connection may sit idle (or a socket read or
#: write may stall) before the server closes it, seconds.
IDLE_TIMEOUT_S = 60.0

_CAMPAIGN_ROUTE = re.compile(
    r"^/campaigns/(?P<job_id>[\w.\-]+)"
    r"(?P<rest>/report|/cancel|/trace|/events)?$"
)


class ServiceHandler(BaseHTTPRequestHandler):
    """Routes HTTP requests onto the owning server's JobService."""

    server_version = "repro-serve/1.0"
    protocol_version = "HTTP/1.1"
    #: Headers and body go out in two writes; with Nagle on, the body
    #: waits for the client's delayed ACK (~40 ms per kept-alive reply).
    disable_nagle_algorithm = True
    timeout = IDLE_TIMEOUT_S
    #: Set by :func:`make_server` on the handler subclass.
    service: JobService = None
    quiet: bool = True

    # -- plumbing -------------------------------------------------------

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if not self.quiet:  # pragma: no cover - debug aid
            super().log_message(format, *args)

    def _send_json(self, status: int, payload: Any) -> None:
        body = json.dumps(payload, default=str).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, reason: str, **extra: Any) -> None:
        self._send_json(status, {"error": {"reason": reason, **extra}})

    def _read_body(self) -> bytes:
        """The raw request body.

        Read on every POST, whatever the route: on a kept-alive
        connection an unread body would be parsed as the next request.
        """
        length = int(self.headers.get("Content-Length") or 0)
        return self.rfile.read(length) if length else b""

    def _split_query(self) -> tuple[str, dict[str, str]]:
        path, _, query = self.path.partition("?")
        params: dict[str, str] = {}
        for part in query.split("&"):
            if part:
                key, _, value = part.partition("=")
                params[key] = value
        return path, params

    # -- routes ---------------------------------------------------------

    def do_GET(self) -> None:
        path, params = self._split_query()
        if path == "/healthz":
            stats = self.service.stats()
            stats["status"] = "ok"
            return self._send_json(200, stats)
        if path == "/metrics":
            body = self.service.render_metrics().encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type", METRICS_CONTENT_TYPE)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
            return None
        if path == "/families":
            return self._send_json(200, registry_payload())
        if path == "/campaigns":
            return self._send_json(
                200, {"campaigns": self.service.list_jobs()}
            )
        match = _CAMPAIGN_ROUTE.match(path)
        if match and match.group("rest") in (
            None, "/report", "/trace", "/events",
        ):
            job_id = match.group("job_id")
            try:
                status = self.service.status(job_id)
            except KeyError:
                return self._error(404, f"unknown job id {job_id!r}")
            rest = match.group("rest")
            if rest is None:
                return self._send_json(200, status)
            if rest == "/report":
                return self._report(job_id, status, params)
            if rest == "/trace":
                return self._trace(job_id)
            return self._events(job_id)
        return self._error(404, f"no such route: GET {path}")

    def _trace(self, job_id: str) -> None:
        """The job's merged span list as newline-delimited JSON."""
        spans = self.service.trace(job_id)
        body = b"".join(
            json.dumps(span, default=str).encode("utf-8") + b"\n"
            for span in spans
        )
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _events(self, job_id: str) -> None:
        """Stream progress events as NDJSON until the job terminates.

        No ``Content-Length``: the response body is delimited by
        connection close (``Connection: close`` ends keep-alive for
        this one response), so plain ``urllib`` / ``curl -N`` consumers
        read line-by-line until EOF.  Each line is one JSON event; the
        terminal ``{"event": "job", "state": ...}`` line ends the
        stream.
        """
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Connection", "close")
        self.end_headers()
        try:
            for event in self.service.events(
                job_id, timeout=EVENTS_TIMEOUT_S
            ):
                self.wfile.write(
                    json.dumps(event, default=str).encode("utf-8") + b"\n"
                )
                self.wfile.flush()
        except (BrokenPipeError, ConnectionError):  # client went away
            pass
        except TimeoutError:
            pass  # idle too long: close the stream, client may reconnect

    def _report(
        self, job_id: str, status: dict[str, Any], params: dict[str, str]
    ) -> None:
        wait = min(float(params.get("wait", 0) or 0), MAX_WAIT_S)
        job = self.service.job(job_id)
        if wait and not job.done_event.is_set():
            job.done_event.wait(wait)
        if job.report is None:
            return self._error(
                409,
                f"job {job_id} has no report yet "
                f"(state {job.state!r}; poll or pass ?wait=seconds)",
                state=job.state,
            )
        return self._send_json(200, job.report)

    def do_POST(self) -> None:
        raw = self._read_body()
        path, _params = self._split_query()
        if path == "/campaigns":
            try:
                if not raw:
                    raise ValueError("empty request body")
                data = json.loads(raw)
            except ValueError as exc:
                return self._error(400, f"invalid JSON body: {exc}")
            try:
                job_id = self.service.submit(data)
            except SpecError as exc:
                return self._send_json(400, {"error": exc.to_dict()})
            except QuotaError as exc:
                return self._send_json(429, {"error": exc.to_dict()})
            return self._send_json(201, self.service.status(job_id))
        match = _CAMPAIGN_ROUTE.match(path)
        if match and match.group("rest") == "/cancel":
            job_id = match.group("job_id")
            try:
                cancelled = self.service.cancel(job_id)
            except KeyError:
                return self._error(404, f"unknown job id {job_id!r}")
            payload = self.service.status(job_id)
            payload["cancelled"] = cancelled
            return self._send_json(200, payload)
        return self._error(404, f"no such route: POST {path}")


def make_server(
    service: JobService,
    host: str = "127.0.0.1",
    port: int = 0,
    quiet: bool = True,
) -> ThreadingHTTPServer:
    """Bind a campaign-service HTTP server (``port=0`` picks a free one).

    The caller owns both lifecycles: ``serve_forever()`` /
    ``shutdown()`` for the HTTP side, ``service.close()`` for the
    workers.
    """
    handler = type(
        "BoundServiceHandler",
        (ServiceHandler,),
        {"service": service, "quiet": quiet},
    )
    server = ThreadingHTTPServer((host, port), handler)
    server.daemon_threads = True
    return server
