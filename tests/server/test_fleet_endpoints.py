"""The fleet-facing server surface over real sockets.

Covers the PR 9 wire additions: the ``/v1/version`` handshake, the
``GET/PUT /v1/cache/{key}`` shared result-cache protocol, keep-alive
connection pooling in :class:`VerificationClient`, streaming
``POST /v1/batch`` NDJSON (including the first-row-before-last-dispatch
acceptance against a real fleet coordinator), and the worker-side
``--shared-cache`` read-through.
"""

from __future__ import annotations

import itertools
import time

import pytest

from repro import __version__
from repro.api.report import REPORT_SCHEMA, VerificationReport
from repro.api.request import VerificationRequest
from repro.api.service import VerificationService, request_cache_key
from repro.certify.certificate import CERTIFICATE_VERSION
from repro.experiments.runner import ResultCache, expected_cost_key
from repro.fleet import FleetTopology
from repro.server import (ServerError, ServerThread, VerificationClient,
                          VerificationServerApp)

DOCUMENT = {"architecture": "SP-AR-RC", "width": 3, "method": "mt-lr",
            "find_counterexample": False}


@pytest.fixture(scope="module")
def cached_server(tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("server-cache")
    with ServerThread(VerificationServerApp(cache_dir=cache_dir)) as thread:
        yield thread


@pytest.fixture(scope="module")
def client(cached_server):
    client = VerificationClient(port=cached_server.port)
    yield client
    client.close()


# -- /v1/version ---------------------------------------------------------------

def test_version_handshake_document(client):
    document = client.version()
    assert document == {
        "version": __version__,
        "report_schema": REPORT_SCHEMA,
        "certificate_version": CERTIFICATE_VERSION,
        "cache_schema": ResultCache.SCHEMA,
    }


# -- /v1/cache/{key} -----------------------------------------------------------

def test_cache_put_then_get_round_trips(client):
    report = client.verify(DOCUMENT)
    key = request_cache_key(VerificationRequest.from_architecture(
        "SP-AR-RC", 3, "mt-lr", find_counterexample=False))
    assert key is not None
    assert client.cache_put(key, report) is True
    served = client.cache_get(key)
    assert served is not None
    assert served.to_json() == report.to_json()
    metrics = client.metrics()["shared_cache"]
    assert metrics["gets_served_total"] >= 1
    assert metrics["puts_served_total"] >= 1


def test_cache_miss_is_none_and_bad_keys_are_400(client):
    assert client.cache_get("00" * 32) is None
    with pytest.raises(ServerError) as info:
        client.cache_get("not-a-digest")
    assert info.value.status == 400
    assert info.value.code == "invalid_cache_key"
    status, _ = client.request_raw("POST", "/v1/cache/" + "00" * 32, {})
    assert status == 405


def test_cache_put_refuses_uncacheable_reports(client):
    # Infrastructure failures never enter the shared cache: a confused
    # worker must not be able to poison the fleet with error rows.
    report = VerificationReport.from_row({
        "architecture": "SP-AR-RC", "width": 3, "method": "mt-lr",
        "status": "error", "time": "-", "time_s": None, "verified": None,
        "reason": "injected"})
    assert client.cache_put("11" * 32, report) is False
    assert client.cache_get("11" * 32) is None


def test_cache_routes_404_when_server_has_no_cache():
    with ServerThread(VerificationServerApp()) as thread:
        bare = VerificationClient(port=thread.port, keep_alive=False)
        with pytest.raises(ServerError) as info:
            bare.request("GET", "/v1/cache/" + "00" * 32)
        assert info.value.code == "cache_disabled"
        report = VerificationReport.from_row({
            "architecture": "SP-AR-RC", "width": 3, "method": "mt-lr",
            "status": "ok", "time": "0.1", "time_s": 0.1, "verified": True,
            "reason": None})
        assert bare.cache_put("00" * 32, report) is False


# -- keep-alive ----------------------------------------------------------------

def test_keep_alive_pools_one_connection_across_requests(cached_server):
    pooled = VerificationClient(port=cached_server.port)
    pooled.healthz()
    pooled.version()
    pooled.healthz()
    assert pooled._local.served == 3        # one connection, reused
    pooled.close()
    assert getattr(pooled._local, "connection") is None

    fresh = VerificationClient(port=cached_server.port, keep_alive=False)
    fresh.healthz()
    assert getattr(fresh._local, "connection", None) is None


# -- streaming /v1/batch -------------------------------------------------------

def test_batch_stream_matches_sync_batch_and_carries_a_trailer(client):
    documents = [dict(DOCUMENT, method=method)
                 for method in ("mt-lr", "mt-fo", "sat-cec")]
    streamed = []
    for report in client.batch_stream(documents):
        assert client.last_trailer is None  # trailer only after the rows
        streamed.append(report)
    assert [report.to_json() for report in streamed] == \
        [report.to_json() for report in client.batch(documents)]
    trailer = client.last_trailer
    assert trailer["reports"] == 3
    assert trailer["cache_hits"] + trailer["executed"] == 3
    assert set(trailer) == {"reports", "cache_hits", "executed",
                            "retries", "fallbacks", "steals"}


def test_batch_stream_surfaces_failures_as_an_error_line(client,
                                                         monkeypatch):
    documents = [dict(DOCUMENT), {"architecture": "XX-YY-ZZ", "width": 3}]
    # An entry that cannot run answers an error report in its slot, in a
    # synchronous and a streamed batch alike.
    for reports in (client.batch(documents),
                    list(client.batch_stream(documents))):
        assert [report.verdict for report in reports] == ["verified", "error"]
        assert reports[1].circuit == "XX-YY-ZZ"
        assert reports[1].reason.startswith("CircuitError: unknown")
    # A batch that fails as a whole ends its stream with an error line.
    iter_batch = VerificationService.iter_batch

    def failing_iter_batch(self, requests, jobs=None):
        yield from itertools.islice(iter_batch(self, requests, jobs), 1)
        raise RuntimeError("injected batch failure")

    monkeypatch.setattr(VerificationService, "iter_batch", failing_iter_batch)
    received = []
    with pytest.raises(ServerError, match="batch_failed.*injected"):
        for report in client.batch_stream(documents):
            received.append(report)
    # The good row still arrived before the failure line.
    assert [report.verdict for report in received] == ["verified"]


def test_streamed_batch_reads_and_publishes_the_shared_cache(cached_server,
                                                             client):
    """A ``--shared-cache`` worker's streamed batch takes the synchronous
    batch's path: it serves a cell another worker published without
    executing it, and publishes the cell it executes."""
    published = dict(DOCUMENT, architecture="SP-CT-BK", width=2)
    fresh = dict(published, method="mt-fo")
    keys = [request_cache_key(VerificationRequest.from_architecture(
        "SP-CT-BK", 2, method, find_counterexample=False))
        for method in ("mt-lr", "mt-fo")]
    report = client.verify(published)
    assert client.cache_put(keys[0], report) is True
    assert client.cache_get(keys[1]) is None
    worker_app = VerificationServerApp(
        shared_cache_url=f"http://127.0.0.1:{cached_server.port}")
    with ServerThread(worker_app) as worker:
        worker_client = VerificationClient(port=worker.port, timeout_s=30.0)
        try:
            [hit] = list(worker_client.batch_stream([published]))
            assert worker_client.last_trailer["executed"] == 0
            assert worker_client.last_trailer["cache_hits"] == 1
            [executed] = list(worker_client.batch_stream([fresh]))
            assert worker_client.last_trailer["executed"] == 1
            assert worker_client.last_trailer["cache_hits"] == 0
            shared = worker_client.metrics()["shared_cache"]
        finally:
            worker_client.close()
    assert hit.to_json() == report.to_json()
    assert shared["remote_hits_total"] == 1
    assert shared["remote_puts_total"] == 1
    assert client.cache_get(keys[1]).to_json() == executed.to_json()


def test_synchronous_batch_counts_shared_cache_hits(cached_server, client):
    """The synchronous envelope and ``/metrics`` count a cell the
    coordinator served as a cache hit, as ``/v1/verify`` does."""
    published = dict(DOCUMENT, architecture="SP-DT-HC", width=2)
    fresh = dict(published, method="mt-fo")
    key = request_cache_key(VerificationRequest.from_architecture(
        "SP-DT-HC", 2, "mt-lr", find_counterexample=False))
    report = client.verify(published)
    assert client.cache_put(key, report) is True
    worker_app = VerificationServerApp(
        shared_cache_url=f"http://127.0.0.1:{cached_server.port}")
    with ServerThread(worker_app) as worker:
        worker_client = VerificationClient(port=worker.port, timeout_s=30.0)
        try:
            envelope = worker_client.batch_envelope([published, fresh])
            metrics = worker_client.metrics()
        finally:
            worker_client.close()
    assert envelope["cache_hits"] == 1
    assert envelope["executed"] == 1
    assert (VerificationReport.from_dict(envelope["reports"][0]).to_json()
            == report.to_json())
    assert metrics["cache"] == {"hits_total": 1, "executed_total": 1}
    assert metrics["shared_cache"]["remote_hits_total"] == 1


def test_stream_and_async_are_mutually_exclusive(client):
    status, _ = client.request_raw(
        "POST", "/v1/batch",
        {"requests": [DOCUMENT], "stream": True, "async": True})
    assert status == 400


# -- fleet coordinator: stream while dispatching -------------------------------

class _RecordingFleetApp(VerificationServerApp):
    """Coordinator app that keeps a handle on its batch dispatchers."""

    def _batch_runner(self):
        runner = super()._batch_runner()
        self.runners = getattr(self, "runners", [])
        self.runners.append(runner)
        return runner


def test_fleet_stream_yields_first_row_before_last_dispatch():
    """The ISSUE 9 streaming acceptance.

    One worker with capacity 1 serializes the dispatches; requests are
    ordered longest-expected-first, so row 0 resolves (and streams) while
    the tail of the grid is still waiting to be dispatched.
    """
    grid = [("BP-CT-BK", 4, "sat-cec"), ("SP-WT-CL", 4, "mt-lr"),
            ("SP-AR-RC", 4, "mt-lr"), ("SP-AR-RC", 3, "mt-lr"),
            ("SP-AR-RC", 2, "mt-lr")]
    documents = [{"architecture": architecture, "width": width,
                  "method": method, "find_counterexample": False}
                 for architecture, width, method in grid]
    requests = [VerificationRequest.from_architecture(
        architecture, width, method, find_counterexample=False)
        for architecture, width, method in grid]
    assert [expected_cost_key(request) for request in requests] == \
        sorted((expected_cost_key(request) for request in requests),
               reverse=True), "grid must be ordered longest-first"

    with ServerThread(VerificationServerApp()) as worker:
        topology = FleetTopology.from_document({"workers": [
            {"name": "solo", "port": worker.port, "capacity": 1}]})
        coordinator_app = _RecordingFleetApp(fleet_topology=topology)
        with ServerThread(coordinator_app) as coordinator:
            client = VerificationClient(port=coordinator.port)
            first_row_at = None
            streamed = []
            for report in client.batch_stream(documents):
                if first_row_at is None:
                    first_row_at = time.monotonic()
                streamed.append(report)
    assert [report.verdict for report in streamed] == ["verified"] * len(grid)
    assert client.last_trailer["executed"] == len(grid)

    (dispatcher,) = coordinator_app.runners
    dispatch_times = [moment for moment, _, _ in dispatcher.dispatch_log]
    assert len(dispatch_times) == len(grid)
    assert first_row_at < max(dispatch_times), \
        "first NDJSON row must stream before the last job is dispatched"
    # And the dispatch order is the longest-expected-first request order.
    assert [index for _, index, _ in dispatcher.dispatch_log] == \
        list(range(len(grid)))
