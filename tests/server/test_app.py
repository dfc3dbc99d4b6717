"""Transport-free tests of the server application (no sockets involved).

Routing, wire-schema validation (structured 4xx bodies), report identity
against the in-process service, and the metrics counters are all pinned
here against :meth:`VerificationServerApp.handle` directly.
"""

from __future__ import annotations

import json
import multiprocessing
import time

import pytest

from repro.api.registry import backend_names
from repro.api.report import VerificationReport
from repro.api.request import Budgets, VerificationRequest
from repro.api.service import VerificationService
from repro.server.app import (
    BUDGET_KEYS,
    REQUEST_KEYS,
    VerificationServerApp,
    parse_request_document,
)


@pytest.fixture()
def app():
    app = VerificationServerApp()
    yield app
    app.close()


def _post(app, path, document):
    return app.handle("POST", path, json.dumps(document).encode("utf-8"))


def _body(response) -> dict:
    return json.loads(response.body.decode("utf-8"))


# -- request-document parsing --------------------------------------------------

def test_parse_request_document_builds_equivalent_requests():
    document = {"architecture": "SP-AR-RC", "width": 4, "method": "mt-fo",
                "budgets": {"monomial_budget": 12345},
                "find_counterexample": False, "seed": 3}
    request = parse_request_document(document)
    assert request == VerificationRequest.from_architecture(
        "SP-AR-RC", 4, method="mt-fo",
        budgets=Budgets(monomial_budget=12345),
        find_counterexample=False, seed=3)


def test_wire_keys_track_the_request_and_budget_dataclasses():
    import dataclasses
    request_fields = {field.name for field in
                      dataclasses.fields(VerificationRequest)}
    assert set(REQUEST_KEYS) == request_fields - {"netlist", "verilog_path"}
    assert set(BUDGET_KEYS) == {field.name
                                for field in dataclasses.fields(Budgets)}


@pytest.mark.parametrize("document,code", [
    ("not an object", "bad_request"),
    ({"netlist": "x", "architecture": "SP-AR-RC", "width": 4},
     "unsupported_field"),
    ({"verilog_path": "/etc/passwd"}, "unsupported_field"),
    ({"architecture": "SP-AR-RC", "width": 4, "bogus": 1}, "unknown_field"),
    ({"architecture": "SP-AR-RC", "width": 4, "incremental": True},
     "unknown_field"),
    ({"architecture": "SP-AR-RC", "width": 4, "budgets": 7}, "bad_request"),
    ({"architecture": "SP-AR-RC", "width": 4,
      "budgets": {"nope": 1}}, "unknown_field"),
    ({"architecture": "SP-AR-RC", "width": 4,
      "budgets": {"monomial_budget": "1000"}}, "bad_request"),
    ({"architecture": "SP-AR-RC", "width": 4,
      "budgets": {"time_budget_s": True}}, "bad_request"),
    ({"architecture": "SP-AR-RC", "width": "4"}, "bad_request"),
    ({"architecture": "SP-AR-RC", "width": True}, "bad_request"),
    ({"architecture": 7, "width": 4}, "bad_request"),
    ({"architecture": "SP-AR-RC", "width": 4,
      "find_counterexample": "yes"}, "bad_request"),
    ({"architecture": "SP-AR-RC", "width": 4, "seed": "0"}, "bad_request"),
    ({"architecture": "SP-AR-RC", "width": 4,
      "specification": {"kind": "multiplier"}}, "bad_request"),
])
def test_malformed_documents_are_structured_400s(app, document, code):
    response = _post(app, "/v1/verify", document)
    assert response.status == 400
    assert _body(response)["error"]["code"] == code


def test_invalid_json_body_is_a_400(app):
    response = app.handle("POST", "/v1/verify", b"{not json")
    assert response.status == 400
    assert _body(response)["error"]["code"] == "invalid_json"


def test_unknown_architecture_and_method_are_400s(app):
    response = _post(app, "/v1/verify", {"architecture": "XX-YY-ZZ",
                                         "width": 4})
    assert response.status == 400
    assert _body(response)["error"]["code"] == "verification_error"
    response = _post(app, "/v1/verify", {"architecture": "SP-AR-RC",
                                         "width": 4, "method": "no-such"})
    assert response.status == 400


def test_oversized_vector_declaration_is_a_400(app):
    """43 bytes that would declare 10^8 inputs are refused before expansion."""
    response = _post(app, "/v1/verify", {
        "verilog_text": "module m(); input [99999999:0] a; endmodule"})
    assert response.status == 400
    error = _body(response)["error"]
    assert error["code"] == "verification_error"
    assert error["message"].startswith("CircuitError")


# -- routing -------------------------------------------------------------------

def test_unknown_route_is_404(app):
    response = app.handle("GET", "/v2/verify")
    assert response.status == 404
    assert _body(response)["error"]["code"] == "not_found"


def test_wrong_method_is_405(app):
    response = app.handle("PUT", "/v1/verify")
    assert response.status == 405
    assert _body(response)["error"]["code"] == "method_not_allowed"
    response = app.handle("POST", "/healthz")
    assert response.status == 405
    response = app.handle("DELETE", "/v1/jobs/xyz")
    assert response.status == 405


def test_unknown_job_is_404(app):
    response = app.handle("GET", "/v1/jobs/no-such-job")
    assert response.status == 404
    assert _body(response)["error"]["code"] == "job_not_found"


# -- introspection endpoints ---------------------------------------------------

def test_healthz_reports_ok_and_job_store(app):
    response = app.handle("GET", "/healthz")
    assert response.status == 200
    document = _body(response)
    assert document["status"] == "ok"
    assert document["jobs"]["stored"] == 0
    assert document["uptime_s"] >= 0


def test_backends_mirror_the_registry(app):
    document = _body(app.handle("GET", "/v1/backends"))
    assert [entry["name"] for entry in document["backends"]] == \
        list(backend_names())
    by_name = {entry["name"]: entry for entry in document["backends"]}
    assert by_name["mt-lr"]["kind"] == "algebraic"
    assert by_name["mt-lr"]["supports_counterexample"] is True
    assert "monomial_budget" in by_name["mt-lr"]["budget_keys"]
    assert by_name["bdd-cec"]["budget_keys"] == ["bdd_node_budget"]
    assert all(entry["description"] for entry in document["backends"])


# -- verify / batch ------------------------------------------------------------

_TIMING_KEYS = ("time", "time_s", "reduction_time_s", "rewrite_time_s",
                "conflicts", "decisions")


def _stable(document: dict) -> dict:
    masked = {key: ("*" if key in _TIMING_KEYS else value)
              for key, value in document.items()}
    masked["counters"] = {key: ("*" if key in _TIMING_KEYS else value)
                          for key, value in document.get("counters", {}).items()}
    return masked


def test_verify_body_is_the_canonical_report_json(app):
    document = {"architecture": "SP-AR-RC", "width": 4, "method": "mt-lr"}
    response = _post(app, "/v1/verify", document)
    assert response.status == 200
    report = VerificationReport.from_json(response.body.decode("utf-8"))
    # Canonical serialization: the body is exactly to_json() of the report.
    assert response.body == report.to_json().encode("utf-8")
    direct = VerificationService().submit(parse_request_document(document))
    assert _stable(report.to_dict()) == _stable(direct.to_dict())


def test_verify_reports_refutation_with_counterexample(app):
    from repro.circuit.verilog import write_verilog
    from repro.generators.multipliers import generate_multiplier
    from tests.server.test_http import observable_bug

    buggy = observable_bug(generate_multiplier("SP-AR-RC", 3))
    response = _post(app, "/v1/verify", {"verilog_text": write_verilog(buggy),
                                         "method": "mt-lr"})
    assert response.status == 200          # transport ok; verdict in the body
    report = VerificationReport.from_json(response.body.decode("utf-8"))
    assert report.verdict == "refuted"
    assert report.counterexample is not None


def test_batch_envelope_reports_serialize_byte_identically(app):
    documents = [{"architecture": arch, "width": 3, "method": "mt-lr",
                  "find_counterexample": False}
                 for arch in ("SP-AR-RC", "SP-WT-CL")]
    response = _post(app, "/v1/batch", {"requests": documents})
    assert response.status == 200
    envelope = _body(response)
    assert {"reports", "cache_hits", "executed"} <= set(envelope)
    for entry in envelope["reports"]:
        report = VerificationReport.from_dict(entry)
        assert json.dumps(entry, ensure_ascii=False,
                          separators=(",", ":")) == report.to_json()
        assert report.verdict == "verified"


@pytest.mark.parametrize("document,code", [
    ({"requests": []}, "bad_request"),
    ({"requests": "SP-AR-RC"}, "bad_request"),
    ({}, "bad_request"),
    ({"requests": [{"architecture": "SP-AR-RC", "width": 3}], "jobs": 0},
     "bad_request"),
    ({"requests": [{"architecture": "SP-AR-RC", "width": 3}], "jobs": True},
     "bad_request"),
    ({"requests": [{"architecture": "SP-AR-RC", "width": 3}], "extra": 1},
     "unknown_field"),
    ({"requests": [{"architecture": "SP-AR-RC", "width": 3,
                    "incremental": True}]}, "unknown_field"),
])
def test_malformed_batches_are_structured_400s(app, document, code):
    response = _post(app, "/v1/batch", document)
    assert response.status == 400
    assert _body(response)["error"]["code"] == code


def test_metrics_count_requests_reports_and_errors(app):
    _post(app, "/v1/verify", {"architecture": "SP-AR-RC", "width": 3,
                              "method": "mt-lr"})
    _post(app, "/v1/verify", {"bogus": True})
    app.handle("GET", "/nowhere")
    metrics = _body(app.handle("GET", "/metrics"))
    assert metrics["http"]["requests_total"] == 4
    assert metrics["http"]["errors_total"] == 2
    assert metrics["reports"]["total"] == 1
    assert metrics["reports"]["verdicts"]["verified"] == 1
    assert metrics["jobs"]["stored"] == 0
    assert metrics["pool"]["jobs"] == 1


def test_metrics_show_the_batch_pool_reusing_its_workers():
    """Three multi-job batches fork the pool's two workers once."""
    app = VerificationServerApp(jobs=2)
    try:
        pool = _body(app.handle("GET", "/metrics"))["pool"]
        assert pool["workers_started_total"] == 0
        assert pool["workers_idle"] == 0
        for architectures in (("SP-AR-RC", "SP-WT-CL", "SP-DT-HC", "BP-WT-CL"),
                              ("SP-CT-BK", "SP-AR-KS", "BP-AR-RC", "SP-WT-RC"),
                              ("SP-RT-KS", "BP-CT-BK", "BP-DT-HC", "SP-AR-CL")):
            response = _post(app, "/v1/batch", {"requests": [
                {"architecture": architecture, "width": 4, "method": "mt-lr",
                 "find_counterexample": False}
                for architecture in architectures]})
            assert response.status == 200
            assert _body(response)["executed"] == 4
        pool = _body(app.handle("GET", "/metrics"))["pool"]
    finally:
        app.close()
    assert pool["workers_started_total"] == 2
    assert pool["workers_idle"] == 2


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="pool workers inherit a patched run_request only when forked")
def test_the_request_deadline_hard_kills_every_batch_entry(monkeypatch):
    """An entry that omits ``find_counterexample`` runs in the pool like
    any other, so the deadline's hard kill (twice the deadline) binds it."""
    from repro.experiments import runner as runner_module

    monkeypatch.setattr(runner_module, "run_request",
                        lambda request: time.sleep(60))
    app = VerificationServerApp(request_deadline_s=0.5, jobs=2)
    try:
        start = time.monotonic()
        response = _post(app, "/v1/batch", {"requests": [
            {"architecture": "SP-AR-RC", "width": 3, "method": "mt-lr"}]})
        elapsed = time.monotonic() - start
    finally:
        app.close()
    assert response.status == 200
    envelope = _body(response)
    [report] = envelope["reports"]
    assert (report["verdict"], report["reason"], report["circuit"]) == (
        "budget", "hard task timeout", "SP-AR-RC")
    assert envelope["executed"] == 1
    assert elapsed < 30


def test_verify_never_creates_the_batch_pool(app):
    _post(app, "/v1/verify", {"architecture": "SP-AR-RC", "width": 3,
                              "method": "mt-lr"})
    assert app._pool is None


def test_metrics_document_has_exactly_the_documented_blocks(app):
    """No per-path block survives: one execution path, one set of counters."""
    metrics = _body(app.handle("GET", "/metrics"))
    assert set(metrics) == {"uptime_s", "http", "reports", "batches",
                            "cache", "pool", "resilience", "fleet",
                            "shared_cache", "jobs"}
