"""The HTTP front end: stdlib JSON endpoints over a :class:`JobService`.

API reference
-------------

``POST /jobs``
    Submit a job.  Request body: ``{"kind": "sweep" | "experiment" |
    "suite", "params": {...}, "trace": "<optional trace id>"}``; the
    ``X-Repro-Trace`` header is an equivalent (and preferred) way to supply
    the trace ID, and wins over the body field.  Responses: **201** with
    the job status document (see ``GET /jobs/{id}``; a deduplicated
    submission carries ``deduped_into`` naming the in-flight primary it
    attached to), **400** for malformed JSON, unknown kinds/params or an
    invalid trace ID, **413** when the body exceeds 1 MiB, **429** when the
    scheduler's bounded queue is saturated, **503** while the service is
    draining.  Both backpressure responses carry a ``Retry-After`` header
    (integral seconds, also ``retry_after`` in the JSON body) that
    :class:`~repro.service.client.ServiceClient` honors; a submission that
    deduplicates against in-flight work is always admitted, even saturated.

``GET /jobs``
    Every job, oldest submission first: ``{"jobs": [<status document>]}``.
    Always **200**.

``GET /jobs/{id}``
    One job's status document -- ``id``, ``kind``, ``params``, ``state``
    (``queued | running | done | failed``), ``key``, ``deduped_into``,
    ``trace_id``, ``error``, ``attempts``, ``retry``, the wall stamps
    (``created_at`` / ``started_at`` / ``finished_at`` /
    ``elapsed_seconds``, read off the timeline), ``has_result`` and the
    ``timeline``: the event of each of the job's journal records, with
    ``state``, ``wall_time``, ``monotonic``, ``attempt`` on ``running``,
    ``reason`` on a requeue, and ``seconds_in_state`` (time until the next
    transition; ``null`` on the last entry).  Never carries the result
    payload.  Responses: **200**, or **404** for an unknown id.

``GET /jobs/{id}/result[?wait=S]``
    The result: **200** with ``{"id", "state", "elapsed_seconds",
    "result"}`` once done, **202** with ``{"id", "state"}`` while
    queued/running, **500** with ``{"id", "state", "error"}`` once failed,
    **404** for an unknown id.  Without ``wait`` (or with ``wait=0``) the
    answer is immediate.  With ``wait=S`` the request is held open until
    the job is done or failed and answered at once, or until ``S``
    seconds have passed and then answered **202** with the state at that
    moment -- a long-poll, so a client learns of completion in one request
    rather than by sleeping between polls.  ``S`` must be a finite number
    of seconds ``>= 0`` (else **400**); holds longer than
    :data:`MAX_RESULT_WAIT` (30 s) are cut to it.

``GET /healthz``
    Liveness: ``{"ok": true, "uptime_seconds", "workers",
    "workers_running", "draining", "queue_depth", "max_queue_depth",
    "jobs": {state: count}, "scheduler": {...}, "executor": {...},
    "pool": {"count", "alive", "restarts", "hung_workers"}}``.  Always
    **200** while the process can answer at all.

``GET /cache/stats``
    Both caches' hit/miss/store counters, entry counts and size on disk,
    the result store's run/record counts, plus the task runner's
    executed/cache_hits/deduped counters.  **200**.

``GET /results``
    The recorded-results report: the ``repro-report/v1`` document over the
    service's result store (every finished job is ingested, so the history
    is queryable across restarts).  Query parameters ``experiment``,
    ``scenario`` (exact or prefix), ``kernel``, ``suite`` and ``run``
    filter the raw records; ``transform`` applies a named derived-metric
    pass (``speedup-trend``, ``regressions``, ``classification-counts``,
    ...) after filtering; ``limit`` keeps the last N rows.  Responses:
    **200**, or **400** for an unknown transform or a bad ``limit``.  An
    uncached service reports ``count: 0``.

``GET /metrics``
    The process-local metrics registry (task runtime, caches, scheduler,
    job latencies).  **200** with Prometheus text exposition format
    (``Content-Type: text/plain; version=0.0.4``) by default, or the
    ``repro-metrics/v1`` JSON document with ``?format=json``.  **400** for
    an unknown ``format``.

``GET /trace/{id}``
    The span tree recorded for one trace ID: the ``repro-spans/v1``
    document with ``trace_id``, ``span_count``, ``depth``, the nested
    ``tree`` (each node a span dict plus ``children``) and the flat
    ``spans`` list.  Responses: **200**, or **404** when no spans are
    buffered for the trace (collection disabled, unknown trace, or evicted
    from the bounded buffer -- see ``repro_spans_dropped_total``).

Anything else is **404** ``{"error": ...}``.  All other responses are
``application/json``; error bodies are ``{"error": "<message>"}``.

Built on :class:`http.server.ThreadingHTTPServer`, no third-party
framework, because the heavy lifting happens in the worker pool; the HTTP
layer only moves small JSON documents.  Connections persist (HTTP/1.1): one
handler thread serves each open connection, request after request, until the
client closes it or it sits idle for 60 seconds (``_Handler.timeout``).  A
request whose body the handler did not read in full -- a POST to an unknown
path, a 413, a GET that carries a body -- is answered with ``Connection:
close``, so its leftover bytes are never parsed as the next request.
"""

from __future__ import annotations

import json
import logging
import math
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any
from urllib.parse import parse_qs, urlsplit

from repro.exceptions import ReproError, ServiceError
from repro.obs.spans import TRACE_HEADER, json_logging_enabled
from repro.service.jobs import DONE, FAILED, Job
from repro.service.workers import JobService

__all__ = ["ServiceHTTPServer", "serve"]

#: Upper bound on request bodies; job submissions are small JSON documents.
MAX_BODY_BYTES = 1 << 20

#: Longest a ``GET /jobs/{id}/result?wait=S`` request is held open, in
#: seconds; each held request occupies one handler thread.
MAX_RESULT_WAIT = 30.0

_ACCESS_LOG = logging.getLogger("repro.service.http")


class ServiceHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one :class:`JobService`."""

    daemon_threads = True

    def __init__(self, address: tuple[str, int], service: JobService) -> None:
        super().__init__(address, _Handler)
        self.service = service

    @property
    def port(self) -> int:
        return self.server_address[1]


class _Handler(BaseHTTPRequestHandler):
    server: ServiceHTTPServer

    # One kept connection carries many requests.  Each response leaves in two
    # writes (headers, then body), and with Nagle's algorithm on the second
    # waits for the client's delayed ACK of the first, about 40 ms.
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    #: Seconds a connection may sit idle before the server closes it, which
    #: also frees a handler thread held by a client that never sends.
    timeout = 60.0

    # Keep the access log quiet by default: the service is driven by tests,
    # benchmarks and CI where per-request stderr lines are pure noise.  With
    # ``repro serve --log-json`` the structured log is the point, so requests
    # go through the logging stack (each line then carries the submission's
    # trace/span IDs when a span is active on this thread).
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        if json_logging_enabled():
            _ACCESS_LOG.info(format, *args)

    @property
    def service(self) -> JobService:
        return self.server.service

    # -- plumbing ------------------------------------------------------------

    def parse_request(self) -> bool:
        # Runs at the start of every request a connection carries.
        self._body_read = False
        if self.server.socket.fileno() < 0:
            # The server was closed while this connection sat idle: hang up
            # unanswered, as an exited process would, so the client retries
            # on a fresh connection.
            self.close_connection = True
            return False
        return super().parse_request()

    def _send(self, status: int, payload: dict[str, Any]) -> None:
        body = json.dumps(payload).encode()
        self._send_bytes(status, body, "application/json")

    def _send_bytes(
        self, status: int, body: bytes, content_type: str, *headers: tuple[str, str]
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in headers:
            self.send_header(name, value)
        if not self._body_read and (
            "Transfer-Encoding" in self.headers
            or self.headers.get("Content-Length", "0") != "0"
        ):
            # The unread body would be parsed as the next request.
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _send_error(
        self, status: int, message: str, *, retry_after: float | None = None
    ) -> None:
        body: dict[str, Any] = {"error": message}
        headers = []
        if retry_after is not None:
            body["retry_after"] = retry_after
            # The header form is integral seconds per RFC 9110; the JSON
            # body keeps the fractional estimate for precise clients.
            headers.append(("Retry-After", str(max(1, round(retry_after)))))
        self._send_bytes(status, json.dumps(body).encode(), "application/json", *headers)

    def _read_json(self) -> dict[str, Any]:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            raise ServiceError("request body required", status=400)
        if length > MAX_BODY_BYTES:
            raise ServiceError(
                f"request body of {length} bytes exceeds {MAX_BODY_BYTES}",
                status=413,
            )
        data = self.rfile.read(length)
        self._body_read = True
        try:
            payload = json.loads(data)
        except json.JSONDecodeError as exc:
            raise ServiceError(f"invalid JSON body: {exc}", status=400) from exc
        if not isinstance(payload, dict):
            raise ServiceError("JSON body must be an object", status=400)
        return payload

    # -- routes --------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        try:
            self._route_get()
        except ServiceError as exc:
            self._send_error(
                exc.status or 400, str(exc), retry_after=exc.retry_after
            )
        except Exception as exc:  # noqa: BLE001 - never kill the connection thread
            self._send_error(500, f"{type(exc).__name__}: {exc}")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        try:
            self._route_post()
        except ServiceError as exc:
            self._send_error(
                exc.status or 400, str(exc), retry_after=exc.retry_after
            )
        except ReproError as exc:
            self._send_error(400, str(exc))
        except Exception as exc:  # noqa: BLE001 - never kill the connection thread
            self._send_error(500, f"{type(exc).__name__}: {exc}")

    def _route_get(self) -> None:
        split = urlsplit(self.path)
        path = split.path.rstrip("/") or "/"
        if path == "/healthz":
            self._send(200, self.service.health())
            return
        if path == "/metrics":
            self._send_metrics(parse_qs(split.query))
            return
        if path == "/cache/stats":
            self._send(200, self.service.cache_stats())
            return
        if path == "/results":
            self._send_results(parse_qs(split.query))
            return
        if path == "/jobs":
            self._send(
                200, {"jobs": [job.as_dict() for job in self.service.jobs()]}
            )
            return
        parts = [part for part in path.split("/") if part]
        if len(parts) == 2 and parts[0] == "trace":
            self._send(200, self.service.trace(parts[1]))
            return
        if len(parts) == 2 and parts[0] == "jobs":
            self._send(200, self.service.job(parts[1]).as_dict())
            return
        if len(parts) == 3 and parts[0] == "jobs" and parts[2] == "result":
            hold = _wait_seconds(parse_qs(split.query))
            self._send_result(self.service.wait(parts[1], hold))
            return
        raise ServiceError(f"no such endpoint {self.path!r}", status=404)

    def _send_metrics(self, query: dict[str, list[str]]) -> None:
        fmt = (query.get("format") or ["prometheus"])[-1]
        if fmt == "json":
            self._send(200, self.service.metrics_json())
        elif fmt in ("prometheus", "text"):
            self._send_bytes(
                200,
                self.service.metrics_text().encode(),
                "text/plain; version=0.0.4; charset=utf-8",
            )
        else:
            raise ServiceError(
                f"unknown metrics format {fmt!r}; use 'prometheus' or 'json'",
                status=400,
            )

    def _send_results(self, query: dict[str, list[str]]) -> None:
        def last(name: str) -> str | None:
            values = query.get(name)
            return values[-1] if values else None

        limit_text = last("limit")
        limit: int | None = None
        if limit_text is not None:
            try:
                limit = int(limit_text)
            except ValueError:
                raise ServiceError(
                    f"limit must be an integer, got {limit_text!r}", status=400
                ) from None
        try:
            document = self.service.results(
                experiment=last("experiment"),
                scenario=last("scenario"),
                kernel=last("kernel"),
                suite=last("suite"),
                run_id=last("run"),
                transform=last("transform"),
                limit=limit,
            )
        except ReproError as exc:
            raise ServiceError(str(exc), status=400) from exc
        self._send(200, document)

    def _send_result(self, job: Job) -> None:
        if job.state == DONE:
            self._send(
                200,
                {
                    "id": job.id,
                    "state": job.state,
                    "elapsed_seconds": job.elapsed_seconds,
                    "result": job.result,
                },
            )
        elif job.state == FAILED:
            self._send(
                500, {"id": job.id, "state": job.state, "error": job.error}
            )
        else:
            self._send(202, {"id": job.id, "state": job.state})

    def _route_post(self) -> None:
        if urlsplit(self.path).path.rstrip("/") != "/jobs":
            raise ServiceError(f"no such endpoint {self.path!r}", status=404)
        payload = self._read_json()
        kind = payload.get("kind")
        if not isinstance(kind, str):
            raise ServiceError("submission needs a string 'kind'", status=400)
        params = payload.get("params") or {}
        if not isinstance(params, dict):
            raise ServiceError("'params' must be an object", status=400)
        # The header wins over the body field; both are optional, and the
        # scheduler mints a trace when neither is given.
        trace_id = self.headers.get(TRACE_HEADER) or payload.get("trace")
        if trace_id is not None and not isinstance(trace_id, str):
            raise ServiceError("'trace' must be a string", status=400)
        job = self.service.submit(kind, params, trace_id=trace_id)
        self._send(201, job.as_dict())


def _wait_seconds(query: dict[str, list[str]]) -> float:
    """The ``wait`` parameter of a result request, capped at the hold limit."""
    values = query.get("wait")
    if not values:
        return 0.0
    try:
        seconds = float(values[-1])
    except ValueError:
        seconds = math.nan
    if not math.isfinite(seconds) or seconds < 0:
        raise ServiceError(
            f"wait must be a finite number of seconds >= 0, got {values[-1]!r}",
            status=400,
        )
    return min(seconds, MAX_RESULT_WAIT)


def serve(
    host: str,
    port: int,
    service: JobService,
) -> ServiceHTTPServer:
    """Bind the API to ``host:port``; the caller drives ``serve_forever``."""
    return ServiceHTTPServer((host, port), service)
