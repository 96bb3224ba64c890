"""A stdlib-only client for the campaign service HTTP API.

The tests, the load benchmark (``benchmarks/bench_service.py``) and the
CI smoke job all talk to the server through this one wrapper, so the
client-visible contract is exercised end to end everywhere it is used.

Each calling thread keeps one kept-alive ``http.client`` connection to
the server (HTTP/1.1), so a request costs one round trip, not a TCP
handshake.  A reused connection that the server has since closed (its
idle timeout, or a restart) fails on first use; that request is sent
again at once on a fresh connection, without backoff.  ``close()`` (or
leaving a ``with`` block) closes every thread's connection.

The client retries transient failures — connection errors, timeouts
and 5xx responses — with exponential backoff + jitter (``retries=`` /
``backoff_s=`` constructor knobs).  Idempotent GETs are trivially safe
to retry; ``submit`` is too, because result-store dedup makes a
double-accepted campaign free (the rerun answers from the store).
``cancel`` is deliberately not retried.  Structured 4xx errors
(:class:`ServiceError` with a spec/quota body) are never retried —
they are answers, not failures.
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time
import urllib.parse
from typing import Any, Callable, Mapping


class ServiceError(RuntimeError):
    """A non-2xx response from the campaign service.

    ``status`` is the HTTP status code; ``payload`` the decoded JSON
    body (the structured ``{path, field, reason}`` spec error for 400s,
    the ``{kind, reason, limit, actual}`` quota error for 429s).
    """

    def __init__(self, status: int, payload: Any):
        self.status = status
        self.payload = payload
        super().__init__(f"HTTP {status}: {payload}")


def _send(
    conn: http.client.HTTPConnection,
    method: str,
    path: str,
    data: bytes | None,
) -> http.client.HTTPResponse:
    """One request on *conn*; the response, or :class:`ServiceError`."""
    headers = {"Content-Type": "application/json"} if data is not None else {}
    conn.request(method, path, body=data, headers=headers)
    response = conn.getresponse()
    if response.status >= 400:
        raw = response.read()
        try:
            payload = json.loads(raw)
        except ValueError:
            payload = {"error": {"reason": raw.decode("utf-8", "replace")}}
        raise ServiceError(response.status, payload)
    return response


class ServiceClient:
    """Minimal JSON-over-HTTP client for one service base URL."""

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        retries: int = 2,
        backoff_s: float = 0.1,
    ):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retries = retries
        self.backoff_s = backoff_s
        url = urllib.parse.urlsplit(self.base_url)
        self._netloc = url.netloc
        self._prefix = url.path
        self._local = threading.local()
        self._lock = threading.Lock()
        self._connections: list[http.client.HTTPConnection] = []

    def close(self) -> None:
        """Close every thread's kept-alive connection.

        The client stays usable: a later request opens a new one.
        """
        with self._lock:
            connections, self._connections = self._connections, []
            self._local = threading.local()
        for conn in connections:
            conn.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _connection(self) -> http.client.HTTPConnection:
        """This thread's kept-alive connection (opened lazily)."""
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = http.client.HTTPConnection(
                self._netloc, timeout=self.timeout
            )
            self._local.conn = conn
            with self._lock:
                self._connections.append(conn)
        return conn

    def _retrying(self, call: Callable[[], Any]) -> Any:
        """Run *call*, retrying transient failures with backoff.

        Retryable: 5xx :class:`ServiceError`, connection-level
        ``OSError``, malformed responses (``http.client.HTTPException``)
        and socket timeouts.  4xx errors re-raise immediately — they
        are the service's answer, not a transport fault.  Backoff
        doubles per attempt with multiplicative jitter (0.5x-1.5x) so a
        thundering herd of clients decorrelates.
        """
        attempt = 0
        while True:
            try:
                return call()
            except ServiceError as exc:
                if exc.status < 500 or attempt >= self.retries:
                    raise
            except (OSError, http.client.HTTPException):
                if attempt >= self.retries:
                    raise
            attempt += 1
            time.sleep(
                self.backoff_s
                * (2 ** (attempt - 1))
                * (0.5 + random.random())
            )

    def _fetch(
        self, method: str, path: str, body: Mapping[str, Any] | None = None
    ) -> bytes:
        """One round trip on this thread's connection; the raw body.

        A connection error on a *reused* connection means the server
        closed it while idle: the request is sent once more, at once,
        on a fresh connection.  A transport failure leaves the
        connection closed, so the next request starts clean.
        """
        data = (
            json.dumps(body).encode("utf-8") if body is not None else None
        )
        conn = self._connection()
        reused = conn.sock is not None
        while True:
            try:
                with _send(conn, method, self._prefix + path, data) as response:
                    return response.read()
            except ServiceError:
                raise  # the body was read: the connection is still good
            except ConnectionError:
                conn.close()
                if not reused:
                    raise
                reused = False
            except BaseException:
                conn.close()
                raise

    def _request(
        self, method: str, path: str, body: Mapping[str, Any] | None = None
    ) -> Any:
        return json.loads(self._fetch(method, path, body))

    # -- the API --------------------------------------------------------

    def healthz(self) -> dict[str, Any]:
        return self._retrying(lambda: self._request("GET", "/healthz"))

    def families(self) -> dict[str, Any]:
        return self._retrying(lambda: self._request("GET", "/families"))

    def submit(self, spec: Mapping[str, Any]) -> dict[str, Any]:
        """POST a campaign spec (the JSON/TOML structure); returns the
        job status snapshot (its ``id`` is the job handle).

        Retried on transient failures like the GETs: a duplicate
        acceptance costs nothing (dedup) and a lost-response resubmit
        beats a lost campaign.
        """
        return self._retrying(
            lambda: self._request("POST", "/campaigns", body=spec)
        )

    def campaigns(self) -> list[dict[str, Any]]:
        return self._retrying(
            lambda: self._request("GET", "/campaigns")["campaigns"]
        )

    def status(self, job_id: str) -> dict[str, Any]:
        return self._retrying(
            lambda: self._request("GET", f"/campaigns/{job_id}")
        )

    def report(self, job_id: str, wait: float = 0) -> dict[str, Any]:
        path = f"/campaigns/{job_id}/report"
        if wait:
            path += f"?wait={wait}"
        return self._retrying(lambda: self._request("GET", path))

    def cancel(self, job_id: str) -> dict[str, Any]:
        # Not retried: a lost response leaves cancellation state
        # ambiguous, and re-POSTing can race job completion.
        return self._request("POST", f"/campaigns/{job_id}/cancel")

    def metrics(self) -> str:
        """``GET /metrics``: the Prometheus text exposition, verbatim."""
        return self._retrying(
            lambda: self._fetch("GET", "/metrics").decode("utf-8")
        )

    def trace(self, job_id: str) -> list[dict[str, Any]]:
        """``GET /campaigns/<id>/trace``: the merged span list."""
        raw = self._retrying(
            lambda: self._fetch("GET", f"/campaigns/{job_id}/trace")
        )
        return [json.loads(line) for line in raw.splitlines() if line.strip()]

    def events(self, job_id: str, timeout: float | None = None):
        """``GET /campaigns/<id>/events``: yield progress events live.

        A generator over the server's NDJSON stream; ends after the
        terminal ``{"event": "job", "state": ...}`` event (the server
        closes the connection).  The stream has a connection of its
        own, so the caller's thread may make other requests while it
        reads.  *timeout* is the socket timeout for the whole stream
        (defaults to the client timeout) — size it to the campaign,
        not to the inter-event gap.  Only establishing the stream is
        retried; a drop mid-stream surfaces to the caller
        (reconnecting replays the full event log from seq 0).
        """
        conn = http.client.HTTPConnection(
            self._netloc,
            timeout=timeout if timeout is not None else self.timeout,
        )
        path = f"{self._prefix}/campaigns/{job_id}/events"

        def open_stream() -> http.client.HTTPResponse:
            try:
                return _send(conn, "GET", path, None)
            except BaseException:
                conn.close()  # a retry starts on a fresh connection
                raise

        try:
            response = self._retrying(open_stream)
            for line in response:
                line = line.strip()
                if line:
                    yield json.loads(line)
        finally:
            conn.close()

    # -- conveniences ---------------------------------------------------

    def run(
        self, spec: Mapping[str, Any], timeout: float = 300.0
    ) -> dict[str, Any]:
        """Submit and block until the report is ready (polling + wait)."""
        job_id = self.submit(spec)["id"]
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(f"job {job_id} not finished")
            try:
                return self.report(job_id, wait=min(remaining, 10.0))
            except ServiceError as exc:
                if exc.status != 409:
                    raise

    def wait_ready(self, timeout: float = 30.0) -> dict[str, Any]:
        """Poll ``/healthz`` until the server answers (startup barrier)."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                return self.healthz()
            except (ServiceError, OSError, http.client.HTTPException):
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.1)
