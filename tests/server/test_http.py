"""End-to-end tests of the asyncio HTTP front end over real sockets.

One module-scoped server thread on an ephemeral port backs every test;
the thin :class:`VerificationClient` drives it exactly like an external
consumer would.  Covers the ISSUE 5 acceptance tests: endpoint round
trips against the catalog with report parity to the in-process service
(byte-identical through a shared result cache), per-request budget
groups in ``/v1/batch``, async job polling and eviction, structured 4xx
bodies over the wire, and a concurrent-client smoke.
"""

from __future__ import annotations

import json
import socket
import threading
from contextlib import closing

import pytest

from repro.api.report import VerificationReport
from repro.api.request import Budgets, VerificationRequest
from repro.api.service import VerificationService
from repro.circuit.mutate import apply_mutation, list_mutations
from repro.circuit.simulate import simulate_words
from repro.circuit.verilog import write_verilog
from repro.generators.multipliers import generate_multiplier
from repro.server import (
    ServerError,
    ServerThread,
    VerificationClient,
    VerificationServerApp,
)

CATALOG = ("SP-AR-RC", "SP-WT-CL", "BP-CT-BK")


def observable_bug(netlist):
    """A mutated copy that provably computes a wrong product somewhere."""
    for mutation in list_mutations(netlist):
        buggy = apply_mutation(netlist, mutation)
        for a in range(8):
            for b in range(8):
                if simulate_words(buggy, {"a": a, "b": b}) != a * b:
                    return buggy
    raise AssertionError("no observable mutation found")


@pytest.fixture(scope="module")
def server():
    with ServerThread(VerificationServerApp(job_store_limit=4)) as thread:
        yield thread


@pytest.fixture(scope="module")
def client(server):
    with closing(VerificationClient(port=server.port)) as client:
        yield client


_TIMING_KEYS = ("time", "time_s", "reduction_time_s", "rewrite_time_s",
                "conflicts", "decisions")


def _stable(document: dict) -> dict:
    masked = {key: ("*" if key in _TIMING_KEYS else value)
              for key, value in document.items()}
    masked["counters"] = {key: ("*" if key in _TIMING_KEYS else value)
                          for key, value in document.get("counters",
                                                         {}).items()}
    return masked


# -- endpoint round trips ------------------------------------------------------

@pytest.mark.parametrize("architecture", CATALOG)
def test_verify_round_trip_matches_in_process_submit(client, architecture):
    document = {"architecture": architecture, "width": 4, "method": "mt-lr"}
    raw = client.verify_raw(document)
    report = VerificationReport.from_json(raw.decode("utf-8"))
    assert raw == report.to_json().encode("utf-8")
    direct = VerificationService().submit(
        VerificationRequest.from_architecture(architecture, 4,
                                              method="mt-lr"))
    assert _stable(report.to_dict()) == _stable(direct.to_dict())
    assert report.verdict == "verified"


def test_verilog_text_source_round_trips(client):
    netlist = generate_multiplier("SP-AR-RC", 3)
    report = client.verify({"verilog_text": write_verilog(netlist)})
    assert report.verdict == "verified"
    # Verilog module identifiers replace the dashes of the netlist name.
    assert report.circuit == netlist.name.replace("-", "_")


def test_healthz_metrics_backends_over_the_wire(client):
    assert client.healthz()["status"] == "ok"
    assert [entry["name"] for entry in client.backends()][0] == "mt-lr"
    metrics = client.metrics()
    assert metrics["http"]["requests_total"] >= 1


# -- batches with per-request budget groups ------------------------------------

def test_batch_with_per_request_budget_groups(client):
    documents = [
        {"architecture": "SP-AR-RC", "width": 3, "method": "mt-lr",
         "find_counterexample": False},
        # Its own budget group: a 50-monomial budget that provably trips.
        {"architecture": "SP-WT-CL", "width": 3, "method": "mt-naive",
         "budgets": {"monomial_budget": 50}, "find_counterexample": False},
        {"architecture": "SP-CT-BK", "width": 3, "method": "mt-fo",
         "budgets": {"monomial_budget": 100000, "time_budget_s": 60.0},
         "find_counterexample": False},
    ]
    reports = client.batch(documents)
    assert [report.verdict for report in reports] == \
        ["verified", "budget", "verified"]
    # Each report agrees with an in-process submit under the same budgets.
    service = VerificationService()
    for document, report in zip(documents, reports):
        budgets = Budgets(**document.get("budgets", {}))
        direct = service.submit(VerificationRequest.from_architecture(
            document["architecture"], 3, method=document["method"],
            budgets=budgets, find_counterexample=False))
        assert direct.verdict == report.verdict
        assert direct.reason == report.reason


def test_50_row_batch_byte_identical_to_service_through_shared_cache(
        tmp_path):
    """The ISSUE 5 acceptance gate.

    Wall-clock timings make two *executions* of one job differ, so true
    byte identity is established the same way the runner's cache contract
    is: the server executes the 50-row batch into a result cache, and the
    in-process service replays the identical batch from that cache — every
    report pair must then serialize byte-identically.
    """
    architectures = [f"SP-{acc}-{add}" for acc in ("AR", "WT", "DT", "CT")
                     for add in ("RC", "CL", "BK")] + ["BP-AR-RC"]
    budget_groups = (None, {"monomial_budget": 500000},
                     {"monomial_budget": 250000, "time_budget_s": 120.0},
                     None)
    documents = []
    for index, architecture in enumerate(architectures):
        for method in ("mt-lr", "mt-fo", "sat-cec", "bdd-cec"):
            document = {"architecture": architecture, "width": 3,
                        "method": method, "find_counterexample": False}
            budgets = budget_groups[index % len(budget_groups)]
            if budgets is not None and method.startswith("mt"):
                document["budgets"] = dict(budgets)
            documents.append(document)
    assert len(documents) >= 50

    cache_dir = tmp_path / "server-cache"
    with ServerThread(VerificationServerApp(cache_dir=cache_dir)) as thread, \
            closing(VerificationClient(port=thread.port)) as local:
        served = local.batch(documents)
        executed = local.metrics()["cache"]["executed_total"]
    assert [report.verdict for report in served] == ["verified"] * len(served)
    assert executed > 0

    service = VerificationService(cache_dir=cache_dir)
    requests = []
    for document in documents:
        budgets = Budgets(**document.get("budgets", {}))
        requests.append(VerificationRequest.from_architecture(
            document["architecture"], document["width"],
            method=document["method"], budgets=budgets,
            find_counterexample=False))
    replayed = service.run_batch(requests)
    assert service.last_executed == 0          # everything replays cached
    assert [report.to_json() for report in replayed] == \
        [report.to_json() for report in served]


# -- asynchronous jobs ---------------------------------------------------------

def test_async_job_submit_poll_and_result_parity(client):
    documents = [{"architecture": "SP-AR-RC", "width": 3, "method": method,
                  "find_counterexample": False}
                 for method in ("mt-lr", "sat-cec")]
    job_id = client.submit_batch(documents)
    document = client.job(job_id)
    assert document["state"] in ("pending", "running", "done")
    reports = client.wait(job_id, timeout_s=120.0)
    assert [report.verdict for report in reports] == ["verified", "verified"]
    # Terminal job documents replay stably.
    final = client.job(job_id)
    assert final["state"] == "done"
    assert [VerificationReport.from_dict(entry).to_json()
            for entry in final["reports"]] == \
        [report.to_json() for report in reports]


def test_async_job_failure_is_reported_not_silent(client, monkeypatch):
    # An unknown architecture passes wire validation and fails inside the
    # batch run: that entry answers an error report naming it ...
    job_id = client.submit_batch([{"architecture": "XX-YY-ZZ", "width": 3}])
    [report] = client.wait(job_id, timeout_s=60.0)
    assert (report.verdict, report.circuit) == ("error", "XX-YY-ZZ")
    assert report.reason.startswith("CircuitError: unknown")

    # ... while a batch that fails as a whole fails its job.
    def failing_run_batch(self, requests, jobs=None):
        raise RuntimeError("injected batch failure")

    monkeypatch.setattr(VerificationService, "run_batch", failing_run_batch)
    job_id = client.submit_batch([{"architecture": "SP-AR-RC", "width": 3}])
    with pytest.raises(ServerError, match="job_failed.*injected"):
        client.wait(job_id, timeout_s=60.0)


def test_job_store_eviction_over_http(client):
    quick = [{"architecture": "SP-AR-RC", "width": 2, "method": "mt-lr",
              "find_counterexample": False}]
    ids = []
    for _ in range(5):                       # store limit is 4
        job_id = client.submit_batch(quick)
        client.wait(job_id, timeout_s=60.0)
        ids.append(job_id)
    with pytest.raises(ServerError) as info:
        client.job(ids[0])
    assert info.value.status == 404
    assert info.value.code == "job_not_found"
    assert client.job(ids[-1])["state"] == "done"


# -- errors over the wire ------------------------------------------------------

def test_malformed_request_is_a_structured_4xx_over_http(client):
    status, body = client.request_raw("POST", "/v1/verify",
                                      {"architecture": "SP-AR-RC"})
    assert status == 400
    error = json.loads(body.decode("utf-8"))["error"]
    assert error["code"] == "verification_error"
    assert "width" in error["message"]


def test_protocol_garbage_gets_a_400_not_a_hang(server):
    with socket.create_connection(("127.0.0.1", server.port),
                                  timeout=10.0) as raw:
        raw.sendall(b"NONSENSE\r\n\r\n")
        response = raw.recv(65536)
    assert response.startswith(b"HTTP/1.1 400")
    assert b"bad_request" in response


def test_oversized_request_line_is_a_431(server):
    """A header line beyond the stream limit answers 431, not a dead socket."""
    with socket.create_connection(("127.0.0.1", server.port),
                                  timeout=10.0) as raw:
        raw.sendall(b"GET /" + b"a" * 20_000 + b" HTTP/1.1\r\n\r\n")
        response = raw.recv(65536)
    assert response.startswith(b"HTTP/1.1 431")
    assert b"header_too_large" in response


def test_exactly_max_header_count_is_accepted(server):
    from repro.server.http import MAX_HEADER_COUNT
    headers = b"".join(b"X-Pad-%d: v\r\n" % i
                       for i in range(MAX_HEADER_COUNT - 1))
    with socket.create_connection(("127.0.0.1", server.port),
                                  timeout=10.0) as raw:
        raw.sendall(b"GET /healthz HTTP/1.1\r\n" + headers +
                    b"Content-Length: 0\r\n\r\n")
        response = raw.recv(65536)
    assert response.startswith(b"HTTP/1.1 200")
    with socket.create_connection(("127.0.0.1", server.port),
                                  timeout=10.0) as raw:
        raw.sendall(b"GET /healthz HTTP/1.1\r\n" + headers +
                    b"X-Pad-Last: v\r\nX-Over: v\r\n\r\n")
        response = raw.recv(65536)
    assert response.startswith(b"HTTP/1.1 431")


def test_oversized_content_length_is_a_413(server):
    with socket.create_connection(("127.0.0.1", server.port),
                                  timeout=10.0) as raw:
        raw.sendall(b"POST /v1/verify HTTP/1.1\r\n"
                    b"Content-Length: 999999999999\r\n\r\n")
        response = raw.recv(65536)
    assert response.startswith(b"HTTP/1.1 413")


# -- concurrency ---------------------------------------------------------------

def test_concurrent_clients_agree_with_serial_verdicts(server):
    documents = [{"architecture": architecture, "width": 3,
                  "method": method, "find_counterexample": False}
                 for architecture in CATALOG
                 for method in ("mt-lr", "mt-fo")]
    serial = [VerificationService().submit(
        VerificationRequest.from_architecture(
            document["architecture"], 3, method=document["method"],
            find_counterexample=False)).verdict for document in documents]

    results: list = [None] * len(documents)

    def fetch(index: int) -> None:
        # A client closes the connection of the thread that calls close().
        with closing(VerificationClient(port=server.port)) as client:
            try:
                results[index] = client.verify(documents[index]).verdict
            except Exception as error:  # noqa: BLE001 - surfaced via assert
                results[index] = error

    threads = [threading.Thread(target=fetch, args=(index,))
               for index in range(len(documents))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120.0)
    assert results == serial
