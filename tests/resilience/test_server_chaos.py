"""Chaos tests for the HTTP layer: disconnects, backpressure, drain."""

from __future__ import annotations

import json
import threading
import time
from contextlib import closing

import pytest

from repro.resilience.faults import Fault
from repro.resilience.policy import RetryPolicy
from repro.server.app import HttpResponse, VerificationServerApp
from repro.server.client import ServerError, VerificationClient
from repro.server.http import ServerThread

from .conftest import CHAOS_SEED

DOCUMENT = {"architecture": "SP-AR-RC", "width": 4, "method": "mt-lr"}


def _fast_retries() -> RetryPolicy:
    return RetryPolicy(seed=CHAOS_SEED, base_delay_s=0.01, max_delay_s=0.05)


def _bare() -> RetryPolicy:
    return RetryPolicy(max_attempts=1)


# -- dropped connections -------------------------------------------------------

def test_client_retry_heals_a_dropped_response(chaos):
    chaos(Fault("disconnect", match="POST /v1/verify", times=1))
    with ServerThread(VerificationServerApp()) as server, \
            closing(VerificationClient(port=server.port,
                                       retry_policy=_fast_retries())) as client:
        report = client.verify(DOCUMENT)
        assert report.verdict == "verified"


def test_truncated_body_surfaces_as_server_error_without_retries(chaos):
    chaos(Fault("disconnect", match="GET /metrics", times=5))
    with ServerThread(VerificationServerApp()) as server:
        client = VerificationClient(port=server.port, retry_policy=_bare())
        with pytest.raises(ServerError) as caught:
            client.metrics()
        assert caught.value.code == "truncated_response"
        assert caught.value.status == 0


def test_connect_error_surfaces_after_bounded_retries():
    # Nothing listens on this port: every attempt fails to connect.
    client = VerificationClient(port=1, timeout_s=1.0,
                                retry_policy=_fast_retries())
    with pytest.raises(ServerError) as caught:
        client.healthz()
    assert caught.value.code == "connection_error"


def test_transport_errors_distinguish_timeouts_from_connect_failures():
    """``request_timeout`` vs ``connection_error`` — the fleet dispatcher
    marks workers down only for the latter, so the codes must differ."""
    client = VerificationClient(retry_policy=_bare())

    def time_out(method, path, document):
        raise TimeoutError("timed out")

    client._exchange = time_out
    with pytest.raises(ServerError) as caught:
        client.request_raw("GET", "/healthz")
    assert caught.value.status == 0
    assert caught.value.code == "request_timeout"

    def refuse(method, path, document):
        raise ConnectionRefusedError("refused")

    client._exchange = refuse
    with pytest.raises(ServerError) as caught:
        client.request_raw("GET", "/healthz")
    assert caught.value.status == 0
    assert caught.value.code == "connection_error"


# -- backpressure --------------------------------------------------------------

def test_saturated_server_answers_429_with_retry_after():
    app = VerificationServerApp(max_inflight=0, retry_after_s=3)
    with ServerThread(app) as server, \
            closing(VerificationClient(port=server.port,
                                       retry_policy=_bare())) as client:
        status, body = client.request_raw("POST", "/v1/verify", DOCUMENT)
        assert status == 429
        assert json.loads(body)["error"]["code"] == "too_many_requests"
        _, _, retry_after = client._exchange("POST", "/v1/verify", DOCUMENT)
        assert retry_after == 3.0
        # Ungated introspection routes keep answering under saturation.
        assert client.healthz()["status"] == "ok"
        resilience = client.metrics()["resilience"]
        assert resilience["max_inflight"] == 0
        assert resilience["rejected_total"] >= 2


def test_streaming_batch_holds_the_inflight_slot_until_drained():
    """``"stream": true`` work runs while the body streams — the
    ``max_inflight`` slot must be held for the generator's lifetime,
    not just for the (instant) handler call."""
    app = VerificationServerApp(max_inflight=1)
    streaming = app.handle("POST", "/v1/batch", json.dumps(
        {"requests": [DOCUMENT], "stream": True}).encode("utf-8"))
    assert streaming.status == 200
    assert streaming.stream is not None
    # The stream is unconsumed, so its slot is taken: further
    # verification POSTs shed load instead of stacking without bound.
    rejected = app.handle("POST", "/v1/verify",
                          json.dumps(DOCUMENT).encode("utf-8"))
    assert rejected.status == 429
    lines = b"".join(streaming.stream).splitlines()
    assert json.loads(lines[0])["verdict"] == "verified"
    assert "trailer" in json.loads(lines[-1])
    # Exhausting the stream releases the slot.
    accepted = app.handle("POST", "/v1/verify",
                          json.dumps(DOCUMENT).encode("utf-8"))
    assert accepted.status == 200
    assert app._inflight == 0


def test_streaming_batch_releases_the_slot_on_close_before_first_chunk():
    """A client that disconnects before the body starts must not leak
    the slot — the transport closes the stream without iterating it."""
    app = VerificationServerApp(max_inflight=1)
    streaming = app.handle("POST", "/v1/batch", json.dumps(
        {"requests": [DOCUMENT], "stream": True}).encode("utf-8"))
    assert streaming.status == 200
    streaming.stream.close()
    assert app._inflight == 0
    accepted = app.handle("POST", "/v1/verify",
                          json.dumps(DOCUMENT).encode("utf-8"))
    assert accepted.status == 200


def test_backpressure_admits_when_capacity_frees_up():
    app = VerificationServerApp(max_inflight=2, retry_after_s=1)
    with ServerThread(app) as server, \
            closing(VerificationClient(port=server.port,
                                       retry_policy=_fast_retries())) as client:
        reports = [client.verify(DOCUMENT) for _ in range(4)]
        assert all(report.verdict == "verified" for report in reports)


# -- per-request deadlines -----------------------------------------------------

def test_request_deadline_clamps_to_budget_verdict():
    app = VerificationServerApp(request_deadline_s=1e-6)
    with ServerThread(app) as server, \
            closing(VerificationClient(port=server.port)) as client:
        report = client.verify({"architecture": "SP-AR-RC", "width": 8,
                                "method": "mt-lr"})
        assert report.verdict == "budget"
        assert report.exit_code == 3
        assert client.metrics()["resilience"]["request_deadline_s"] == 1e-6


# -- graceful shutdown ---------------------------------------------------------

class _SlowApp(VerificationServerApp):
    """One synthetic slow route so drain tests need no heavy verification."""

    def __init__(self) -> None:
        super().__init__()
        self.entered = threading.Event()

    def handle(self, method: str, path: str, body: bytes = b"") -> HttpResponse:
        if path == "/slow":
            self.entered.set()
            time.sleep(0.6)
            return HttpResponse(200, b'{"slow": true}')
        return super().handle(method, path, body)


def test_server_thread_shutdown_drains_in_flight_requests():
    """Stopping the server mid-request still answers that request."""
    app = _SlowApp()
    results: list = []
    with ServerThread(app) as server:
        client = VerificationClient(port=server.port, retry_policy=_bare())

        def slow_call():
            results.append(client.request("GET", "/slow"))

        caller = threading.Thread(target=slow_call)
        caller.start()
        assert app.entered.wait(timeout=5.0), "request never reached the app"
        # Exiting the context stops the server while /slow is in flight.
    caller.join(timeout=10.0)
    assert results == [{"slow": True}]


def test_stop_without_drain_budget_returns_immediately():
    """drain_s=0 means "don't wait": stop returns while /slow still runs.

    (It is not a connection killer — a handler already executing keeps
    its thread; in a real shutdown the event loop teardown right after
    ``stop`` is what drops it.  What 0 guarantees is that ``stop`` never
    blocks on in-flight work.)
    """
    import asyncio
    import contextlib

    from repro.server.http import VerificationHttpServer

    app = _SlowApp()

    async def scenario():
        server = VerificationHttpServer(app, port=0)
        await server.start()
        client = VerificationClient(port=server.port, retry_policy=_bare())
        loop = asyncio.get_running_loop()
        call = loop.run_in_executor(
            None, lambda: client.request("GET", "/slow"))
        await loop.run_in_executor(
            None, lambda: app.entered.wait(timeout=5.0))
        start = time.perf_counter()
        await server.stop(drain_s=0)
        elapsed = time.perf_counter() - start
        # The handler sleeps 0.6s; an undrained stop must not ride it out.
        assert elapsed < 0.4, f"stop(drain_s=0) blocked for {elapsed:.2f}s"
        with contextlib.suppress(ServerError):
            await asyncio.wait_for(call, timeout=10.0)

    asyncio.run(scenario())
