"""Kept connections: the service speaks HTTP/1.1 keep-alive, and each client
thread reuses one socket.

Connections are counted by wrapping ``ServiceHTTPServer.process_request``,
which the server calls once per accepted connection.
"""

from __future__ import annotations

import collections
import http.client
import json
import re
import select
import socket
import sys
import threading
import time
import types

import pytest

from repro.exceptions import ServiceError
from repro.service import JobService, ServiceClient, serve
from repro.service.api import MAX_BODY_BYTES, ServiceHTTPServer, _Handler

#: A job that always runs (analytic sweeps are never answered at admission).
ANALYTIC = {"kernel": "fft", "memory_sizes": [8, 64, 512], "analytic": True}

#: A request hidden in another request's body.
SMUGGLED = b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n"


@pytest.fixture
def connections(monkeypatch):
    """Connections accepted so far, by server port."""
    accepted: collections.Counter[int] = collections.Counter()
    process_request = ServiceHTTPServer.process_request

    def counting(server, request, client_address):
        accepted[server.port] += 1
        process_request(server, request, client_address)

    monkeypatch.setattr(ServiceHTTPServer, "process_request", counting)
    return accepted


def _start(port: int = 0, *, start: bool = True) -> tuple[JobService, ServiceHTTPServer]:
    service = JobService(workers=2, cache_dir=None, parallel=False)
    server = serve("127.0.0.1", port, service)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    if start:
        service.start()
    return service, server


def _stop(service: JobService, server: ServiceHTTPServer) -> None:
    server.shutdown()
    server.server_close()
    service.stop()


@pytest.fixture
def live():
    """Factory for a started service and its server on an ephemeral port."""
    running = []

    def build(**kwargs) -> ServiceHTTPServer:
        running.append(_start(**kwargs))
        return running[-1][1]

    yield build
    for service, server in running:
        _stop(service, server)


def _client(server: ServiceHTTPServer) -> ServiceClient:
    return ServiceClient("127.0.0.1", server.port, timeout=10.0)


class TestKeptConnections:
    def test_fifty_submit_wait_pairs_share_one_fast_connection(self, live, connections):
        server = live()
        with _client(server) as client:
            started = time.monotonic()
            for _ in range(50):
                job = client.submit("sweep", ANALYTIC)
                assert client.wait(job["id"], timeout=10.0)["state"] == "done"
            elapsed = time.monotonic() - started
        # One connection per request would be 100.
        assert connections[server.port] == 1
        # With Nagle's algorithm on, each response's body waits for the
        # client's delayed ACK of its headers, about 40 ms a request.
        assert elapsed < 2.0, f"50 pairs took {elapsed:.2f}s"

    def test_threads_sharing_a_client_hold_one_connection_each(self, live, connections):
        server = live(start=False)  # no workers: the job stays queued
        outcome = []
        with _client(server) as client:
            job = client.submit("sweep", ANALYTIC)

            def hold() -> None:
                try:
                    client.wait(job["id"], timeout=1.5, poll=1.5)
                except ServiceError as exc:
                    outcome.append(str(exc))

            waiter = threading.Thread(target=hold)
            waiter.start()
            time.sleep(0.3)  # the waiter's request is now held by the server
            started = time.monotonic()
            client.submit("sweep", {**ANALYTIC, "memory_sizes": [8, 64]})
            elapsed = time.monotonic() - started
            still_held = waiter.is_alive()
            waiter.join(10.0)
            assert not waiter.is_alive()
        assert still_held and elapsed < 0.5, elapsed
        assert outcome and "timed out" in outcome[0]
        assert connections[server.port] == 2

    def test_many_threads_each_keep_their_own_connection(self, live, connections):
        server = live()
        threads, failures = 6, []
        with _client(server) as client:

            def calls() -> None:
                try:
                    for _ in range(20):
                        assert client.health()["ok"]
                except Exception as exc:  # noqa: BLE001 - reported below
                    failures.append(exc)

            workers = [threading.Thread(target=calls) for _ in range(threads)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                for worker in workers:
                    worker.start()
                for worker in workers:
                    worker.join(30.0)
            finally:
                sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert failures == []
        # A connection shared between threads would interleave their requests.
        assert connections[server.port] == threads

    def test_close_ends_the_kept_connection(self, live, connections):
        server = live()
        with _client(server) as client:
            client.health()
            client.health()
        client.health()  # a closed client opens a new connection
        client.close()
        assert connections[server.port] == 2

    def test_an_answer_that_closes_drops_the_connection(self, live, connections):
        server = live()
        with _client(server) as client:
            status, _ = client._request("POST", "/nope", {"kind": "sweep"})
            assert status == 404
            assert client.health()["ok"]
        assert connections[server.port] == 2


class TestStaleConnections:
    def test_an_idle_connection_times_out_and_the_client_reconnects_at_once(
        self, live, connections, monkeypatch
    ):
        monkeypatch.setattr(_Handler, "timeout", 0.2)
        server = live()
        with socket.create_connection(("127.0.0.1", server.port), timeout=5.0) as idle:
            started = time.monotonic()
            assert idle.recv(1) == b""  # the server hung up on a silent client
            assert time.monotonic() - started < 2.0
        sleeps: list[float] = []
        with _client(server) as client:
            assert client.health()["ok"]
            kept = client._connection().sock
            # The server closes the idle kept connection: it reads as EOF.
            assert select.select([kept], [], [], 5.0)[0]
            clock = types.SimpleNamespace(monotonic=time.monotonic, sleep=sleeps.append)
            monkeypatch.setattr("repro.service.client.time", clock)
            assert client.health()["ok"]
        assert sleeps == []
        assert connections[server.port] == 3  # the silent socket, then two

    def test_a_client_reconnects_after_its_server_restarts_on_the_same_port(
        self, connections
    ):
        service, server = _start()
        port = server.port
        client = ServiceClient("127.0.0.1", port, timeout=10.0)
        try:
            client.submit("sweep", ANALYTIC)
            assert len(client.jobs()) == 1
            _stop(service, server)
            service, server = _start(port)
            # The new service has no jobs: the closed server answered nothing.
            assert client.jobs() == []
        finally:
            client.close()
            _stop(service, server)
        assert connections[port] == 2


def _exchange(port: int, request: bytes) -> bytes:
    """Everything the server sends on one raw connection until it closes it."""
    received = b""
    with socket.create_connection(("127.0.0.1", port), timeout=5.0) as sock:
        sock.sendall(request)
        while chunk := sock.recv(65536):
            received += chunk
    return received


class TestUnreadBodies:
    @pytest.mark.parametrize(
        ("request_head", "body", "status"),
        [
            (b"POST /nope HTTP/1.1\r\nContent-Length: %d" % len(SMUGGLED), SMUGGLED, b"404"),
            (b"GET /healthz HTTP/1.1\r\nContent-Length: %d" % len(SMUGGLED), SMUGGLED, b"200"),
            (
                b"POST /jobs HTTP/1.1\r\nContent-Length: %d" % (MAX_BODY_BYTES + 1),
                SMUGGLED,
                b"413",
            ),
            (
                b"POST /jobs HTTP/1.1\r\nTransfer-Encoding: chunked",
                b"%x\r\n%s\r\n0\r\n\r\n" % (len(SMUGGLED), SMUGGLED),
                b"400",
            ),
        ],
        ids=["unknown-path", "get-with-body", "too-large", "chunked"],
    )
    def test_one_answer_then_the_connection_closes(self, live, request_head, body, status):
        server = live()
        received = _exchange(server.port, request_head + b"\r\nHost: test\r\n\r\n" + body)
        assert re.findall(rb"^HTTP/1\.1 (\d{3}) ", received, re.MULTILINE) == [status]
        assert b"\r\nConnection: close\r\n" in received

    def test_a_read_body_keeps_the_connection(self, live, connections):
        server = live()
        connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10.0)
        try:
            body = json.dumps({"kind": "sweep", "params": ANALYTIC}).encode()
            connection.request("POST", "/jobs", body, {"Content-Type": "application/json"})
            response = connection.getresponse()
            response.read()
            assert response.status == 201 and not response.will_close
            connection.request("GET", "/healthz")
            assert connection.getresponse().status == 200
        finally:
            connection.close()
        assert connections[server.port] == 1
