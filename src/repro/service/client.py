"""A blocking Python client for the job service (stdlib ``http.client``).

The client the tests, benchmarks and ``repro submit`` use: submit a job,
wait for its result, read its status.  Errors surface as
:class:`~repro.exceptions.ServiceError` carrying the HTTP status, so callers
can distinguish a rejected submission (400) from a lost job (404) or a
failed one (500).

Resilience built in:

* each calling thread keeps one persistent connection, so a submit and its
  wait cost no TCP handshake and no new server thread; when a kept
  connection turns out closed (the server's idle timeout, a restart) the
  request is retried once at once on a fresh connection;
* transient connection failures (refused, reset) are retried with capped
  exponential backoff before surfacing -- safe even for submissions,
  because the scheduler's content-addressed dedup attaches an accidental
  duplicate to the original instead of running it twice;
* backpressure (429 queue-saturated, 503 draining) is honored rather than
  fought: :meth:`submit` can sleep out the server's ``Retry-After`` hint
  and resubmit until a ``busy_timeout`` budget runs out;
* :meth:`wait` long-polls ``GET /jobs/{id}/result?wait=S``: the service
  holds each request until the job settles, so a result arrives as soon as
  the job finishes -- no sleep between polls sets its latency -- while a
  minutes-long suite costs one request per ``poll`` seconds.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from typing import Any
from urllib.parse import urlencode

from repro.exceptions import ServiceError
from repro.obs.spans import TRACE_HEADER

__all__ = ["ServiceClient"]

#: HTTP statuses that mean "come back later", not "you did something wrong".
_BUSY_STATUSES = (429, 503)


class _ThreadConnection(http.client.HTTPConnection):
    """One thread's kept connection; its socket closes when the thread ends."""

    def __del__(self) -> None:
        self.close()


class ServiceClient:
    """Blocking JSON-over-HTTP client for one service endpoint.

    Safe to share between threads: each thread keeps its own connection,
    which closes when the thread ends or calls :meth:`close`.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8035,
        *,
        timeout: float = 30.0,
        connect_retries: int = 2,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.connect_retries = max(0, connect_retries)
        self._local = threading.local()

    def close(self) -> None:
        """Close the calling thread's connection; its next request opens one."""
        self._connection().close()

    def __enter__(self) -> ServiceClient:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- plumbing ------------------------------------------------------------

    def _connection(self) -> _ThreadConnection:
        """The calling thread's connection; it opens at its first request."""
        if not hasattr(self._local, "connection"):
            self._local.connection = _ThreadConnection(
                self.host, self.port, timeout=self.timeout
            )
        return self._local.connection

    def _request(
        self,
        method: str,
        path: str,
        payload: dict[str, Any] | None = None,
        extra_headers: dict[str, str] | None = None,
    ) -> tuple[int, dict[str, Any]]:
        delay = 0.1
        for attempt in range(self.connect_retries + 1):
            try:
                return self._request_once(method, path, payload, extra_headers)
            except ConnectionError as exc:
                # Refused/reset connections are the transient shape (a
                # service mid-restart, a listen backlog burp); anything
                # else -- timeouts included -- surfaces immediately.
                if attempt >= self.connect_retries:
                    raise ServiceError(
                        f"cannot reach repro service at {self.host}:"
                        f"{self.port} after {attempt + 1} attempts: {exc}"
                    ) from exc
                time.sleep(delay)
                delay = min(1.0, delay * 2)
        raise AssertionError("unreachable")  # pragma: no cover

    def _request_once(
        self,
        method: str,
        path: str,
        payload: dict[str, Any] | None,
        extra_headers: dict[str, str] | None,
    ) -> tuple[int, dict[str, Any]]:
        connection = self._connection()
        # http.client reopens a closed connection at the next request, and
        # closes it itself after a response that says the server will close.
        reused = connection.sock is not None
        try:
            body = None
            headers = dict(extra_headers or {})
            if payload is not None:
                body = json.dumps(payload).encode()
                headers["Content-Type"] = "application/json"
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            raw = response.read()
        except ConnectionError:
            connection.close()
            if reused:
                # A kept connection the server has since closed (its idle
                # timeout, a restart): retry once, at once, on a fresh one.
                return self._request_once(method, path, payload, extra_headers)
            raise  # retried by _request
        except OSError as exc:
            connection.close()
            raise ServiceError(
                f"cannot reach repro service at {self.host}:{self.port}: {exc}"
            ) from exc
        except BaseException:
            connection.close()  # a half-done exchange leaves it unusable
            raise
        try:
            document = json.loads(raw) if raw else {}
        except json.JSONDecodeError as exc:
            raise ServiceError(
                f"non-JSON response from {method} {path}: {raw[:200]!r}",
                status=response.status,
            ) from exc
        return response.status, document

    def _get(self, path: str, *, expect: tuple[int, ...]) -> dict[str, Any]:
        status, document = self._request("GET", path)
        if status not in expect:
            raise ServiceError(
                document.get("error", f"GET {path} returned {status}"),
                status=status,
            )
        return document

    # -- the API surface -----------------------------------------------------

    def health(self) -> dict[str, Any]:
        return self._get("/healthz", expect=(200,))

    def cache_stats(self) -> dict[str, Any]:
        return self._get("/cache/stats", expect=(200,))

    def metrics(self) -> dict[str, Any]:
        """The service's metrics as the ``repro-metrics/v1`` JSON document."""
        return self._get("/metrics?format=json", expect=(200,))

    def jobs(self) -> list[dict[str, Any]]:
        return self._get("/jobs", expect=(200,))["jobs"]

    def results(
        self,
        *,
        experiment: str | None = None,
        scenario: str | None = None,
        kernel: str | None = None,
        suite: str | None = None,
        run_id: str | None = None,
        transform: str | None = None,
        limit: int | None = None,
    ) -> dict[str, Any]:
        """The ``repro-report/v1`` document from ``GET /results``."""
        params = {
            "experiment": experiment,
            "scenario": scenario,
            "kernel": kernel,
            "suite": suite,
            "run": run_id,
            "transform": transform,
            "limit": limit,
        }
        given = {name: value for name, value in params.items() if value is not None}
        path = "/results"
        if given:
            path += "?" + urlencode(given)
        return self._get(path, expect=(200,))

    def submit(
        self,
        kind: str,
        params: dict[str, Any],
        *,
        trace_id: str | None = None,
        busy_timeout: float = 0.0,
    ) -> dict[str, Any]:
        """Submit a job; returns its status document (state ``queued``).

        ``trace_id`` travels as the ``X-Repro-Trace`` header; the service
        mints one when it is omitted (the returned document's ``trace_id``
        says which).

        ``busy_timeout`` is the backpressure budget: on a 429 (queue
        saturated) or 503 (draining) response the client sleeps out the
        server's ``Retry-After`` hint and resubmits, until the budget is
        spent -- then the last backpressure error surfaces with its status
        and ``retry_after`` attached.  The default of ``0`` surfaces
        backpressure immediately, which is what tests and load-aware
        callers want.
        """
        headers = {TRACE_HEADER: trace_id} if trace_id else None
        deadline = time.monotonic() + busy_timeout
        while True:
            status, document = self._request(
                "POST", "/jobs", {"kind": kind, "params": params},
                extra_headers=headers,
            )
            if status == 201:
                return document
            retry_after = document.get("retry_after")
            if status in _BUSY_STATUSES:
                pause = float(retry_after) if retry_after else 1.0
                remaining = deadline - time.monotonic()
                if remaining > 0:
                    time.sleep(min(pause, max(0.05, remaining)))
                    continue
            raise ServiceError(
                document.get("error", f"submission returned {status}"),
                status=status,
                retry_after=(
                    float(retry_after) if retry_after is not None else None
                ),
            )

    def job(self, job_id: str) -> dict[str, Any]:
        return self._get(f"/jobs/{job_id}", expect=(200,))

    def trace(self, trace_id: str) -> dict[str, Any]:
        """The ``repro-spans/v1`` span-tree document for one trace ID."""
        return self._get(f"/trace/{trace_id}", expect=(200,))

    def _result_request(self, job_id: str, hold: float) -> tuple[int, dict[str, Any]]:
        """One result request held up to ``hold`` seconds: status 200 or 202.

        Any other status -- 500 for a failed job, 404 for an unknown one --
        raises with the server's error message.
        """
        path = f"/jobs/{job_id}/result"
        if hold > 0:
            path += f"?wait={hold:g}"
        status, document = self._request("GET", path)
        if status not in (200, 202):
            raise ServiceError(
                document.get("error", f"job {job_id} returned {status}"),
                status=status,
            )
        return status, document

    def result(self, job_id: str) -> dict[str, Any]:
        """The result document of a finished job; raises unless ``done``."""
        status, document = self._result_request(job_id, 0.0)
        if status == 202:
            raise ServiceError(
                f"job {job_id} is still {document.get('state', 'open')}",
                status=status,
            )
        return document

    def wait(
        self, job_id: str, *, timeout: float = 120.0, poll: float = 1.0
    ) -> dict[str, Any]:
        """Block until the job reaches a terminal state; return its result.

        Long-polls the result endpoint: each request is held by the service
        for at most ``poll`` seconds, the time left before ``timeout``, or
        half this client's socket timeout, whichever is least, and answers
        the moment the job settles.  A quick job therefore resolves in one
        request, and a long suite costs one request per ``poll`` seconds.

        A failed job raises :class:`ServiceError` with the job's error and
        HTTP status 500.  A timeout raises with the last observed state,
        the job's attempt count and the tail of its timeline, so the error
        message alone says whether the job was stuck queued, mid-retry, or
        genuinely still running.
        """
        deadline = time.monotonic() + timeout
        while True:
            hold = max(0.0, min(poll, deadline - time.monotonic(), self.timeout / 2))
            status, document = self._result_request(job_id, hold)
            if status == 200:
                return document
            if time.monotonic() >= deadline:
                break
        document = self.job(job_id)
        tail = [
            f"{event.get('state')}@{event.get('wall_time', 0):.3f}"
            for event in (document.get("timeline") or [])[-4:]
        ]
        raise ServiceError(
            f"timed out after {timeout:.0f}s waiting for job "
            f"{job_id} (last state {document['state']!r}, "
            f"attempts {document.get('attempts', 0)}, "
            f"timeline tail: {' -> '.join(tail) or 'empty'})"
        )

    def submit_and_wait(
        self,
        kind: str,
        params: dict[str, Any],
        *,
        timeout: float = 120.0,
        poll: float = 1.0,
        busy_timeout: float = 0.0,
    ) -> dict[str, Any]:
        """Submit one job (waiting out backpressure) and block for its result."""
        job = self.submit(kind, params, busy_timeout=busy_timeout)
        return self.wait(job["id"], timeout=timeout, poll=poll)
