"""Every entry point hands the backend exactly the budgets it was asked for.

A spy on :meth:`VerificationService._submit_once` — the one method that
calls a backend, in-process and in every forked pool worker — records the
:class:`~repro.api.request.Budgets` it receives and echoes them as the
report's ``reason``, which travels through rows, the result cache, wire
documents and CLI ``--json`` lines.  Each test then compares the budgets
that reached the backend with the budgets the entry point was given:

* the CLI resolves its flags over one base (``Budgets()``, or the
  ``REPRO_BENCH_*`` environment for ``batch``);
* the server fills only the budget fields a wire document omits, a sent
  field wins (``null`` included), and the request deadline clamps last;
* the service and the fleet read only the request's budgets.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import random
import time

import pytest

from repro.api.report import VerificationReport
from repro.api.request import Budgets, VerificationRequest
from repro.api.service import VerificationService
from repro.circuit.verilog import save_verilog
from repro.cli import main
from repro.experiments.runner import ResultCache
from repro.fleet import FleetDispatcher, FleetTopology
from repro.generators.catalog import architecture_names
from repro.generators.multipliers import generate_multiplier
from repro.server.app import VerificationServerApp

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="pool workers inherit the spy only when forked")

#: Budgets no default produces, loose enough for every 3-bit cell.
ASKED = Budgets(monomial_budget=777_777, time_budget_s=30.0,
                vanishing_cache_limit=99)

#: A server's flags: a task timeout makes its batches use the pool.
SERVED = Budgets(monomial_budget=888_888, time_budget_s=45.0,
                 task_timeout_s=40.0)

_REPRO_BENCH = ("REPRO_BENCH_TIMEOUT", "REPRO_BENCH_MONOMIAL_BUDGET",
                "REPRO_BENCH_SAT_CONFLICTS", "REPRO_BENCH_BDD_NODES",
                "REPRO_BENCH_BITS", "REPRO_BENCH_JOBS", "REPRO_BENCH_CACHE")


@pytest.fixture(autouse=True)
def clean_environment(monkeypatch):
    for name in _REPRO_BENCH:
        monkeypatch.delenv(name, raising=False)


@pytest.fixture()
def seen(monkeypatch) -> list[Budgets]:
    """Budgets that reached a backend in this process, in call order."""
    calls: list[Budgets] = []
    original = VerificationService._submit_once

    def spy(self, request):
        calls.append(request.budgets)
        report = original(self, request)
        report.reason = json.dumps(dataclasses.asdict(request.budgets),
                                   sort_keys=True)
        return report

    monkeypatch.setattr(VerificationService, "_submit_once", spy)
    return calls


def echoed(report) -> Budgets:
    """The budgets a spied backend run echoed into ``report``."""
    reason = report.reason if isinstance(report, VerificationReport) \
        else report["reason"]
    return Budgets(**json.loads(reason))


def _json_lines(text: str) -> list[dict]:
    return [json.loads(line) for line in text.splitlines()
            if line.startswith("{")]


# -- CLI -------------------------------------------------------------------------

_VERIFY_FLAGS = ["--monomial-budget", "777777", "--time-budget", "30",
                 "--vanishing-cache-limit", "99"]


@pytest.mark.parametrize("flags, expected", [
    ([], Budgets()),
    (_VERIFY_FLAGS, ASKED),
    (["--time-budget", "30"], Budgets(time_budget_s=30.0)),
], ids=["defaults", "every-flag", "one-flag"])
def test_cli_verify_hands_its_flags_to_the_backend(seen, capsys, flags,
                                                   expected):
    assert main(["verify", "-a", "SP-AR-RC", "-w", "3", "--json",
                 *flags]) == 0
    assert seen == [expected]
    assert echoed(json.loads(capsys.readouterr().out)) == expected


@pytest.mark.parametrize("flags, expected", [
    ([], Budgets()), (_VERIFY_FLAGS, ASKED)], ids=["defaults", "every-flag"])
def test_cli_verify_verilog_hands_its_flags_to_the_backend(
        seen, capsys, tmp_path, flags, expected):
    path = tmp_path / "mult.v"
    save_verilog(generate_multiplier("SP-AR-RC", 3), str(path))
    assert main(["verify-verilog", str(path), "--json", *flags]) == 0
    assert seen == [expected]
    assert echoed(json.loads(capsys.readouterr().out)) == expected


@pytest.mark.parametrize("flags, environment, expected", [
    ([], {}, Budgets(time_budget_s=60.0)),
    (["--monomial-budget", "777777", "--time-budget", "30"], {},
     Budgets(monomial_budget=777_777, time_budget_s=30.0)),
    ([], {"REPRO_BENCH_MONOMIAL_BUDGET": "654321"},
     Budgets(monomial_budget=654_321, time_budget_s=60.0)),
    (["--time-budget", "30"], {"REPRO_BENCH_TIMEOUT": "7"},
     Budgets(time_budget_s=30.0)),
], ids=["environment-defaults", "flags", "environment", "flag-over-environment"])
def test_cli_batch_in_process_lays_flags_over_the_environment(
        seen, capsys, monkeypatch, flags, environment, expected):
    for name, value in environment.items():
        monkeypatch.setenv(name, value)
    assert main(["batch", "-a", "SP-AR-RC,SP-WT-CL", "-w", "3", "--json",
                 *flags]) == 0
    lines = _json_lines(capsys.readouterr().out)
    assert seen == [expected, expected]
    assert [echoed(line) for line in lines] == [expected, expected]


@needs_fork
def test_cli_batch_through_the_pool_keeps_the_task_timeout(seen, capsys):
    assert main(["batch", "-a", "SP-AR-RC,SP-WT-CL", "-w", "3", "--json",
                 "--task-timeout", "30", "--monomial-budget", "777777"]) == 0
    expected = Budgets(monomial_budget=777_777, time_budget_s=60.0,
                       task_timeout_s=30.0)
    lines = _json_lines(capsys.readouterr().out)
    assert seen == []                       # both ran in forked workers
    assert [echoed(line) for line in lines] == [expected, expected]


@pytest.mark.parametrize("flags, expected", [
    ([], Budgets()),
    (["--monomial-budget", "777777", "--time-budget", "30"],
     Budgets(monomial_budget=777_777, time_budget_s=30.0)),
], ids=["defaults", "flags"])
def test_cli_campaign_hands_its_flags_to_every_mutant(seen, capsys, flags,
                                                      expected):
    assert main(["campaign", "-a", "SP-AR-RC", "-w", "3", "--limit", "2",
                 *flags]) == 0
    assert seen == [expected, expected]


@pytest.mark.parametrize("flags, expected", [
    ([], Budgets()),
    (["--monomial-budget", "888888", "--time-budget", "45",
      "--task-timeout", "40"], SERVED),
], ids=["defaults", "flags"])
def test_cli_serve_hands_its_flags_to_the_app(monkeypatch, flags, expected):
    import repro.server

    captured = {}
    monkeypatch.setattr(repro.server, "serve",
                        lambda **kwargs: captured.update(kwargs))
    assert main(["serve", "--port", "0", *flags]) == 0
    assert captured["budgets"] == expected
    assert "task_timeout_s" not in captured


# -- server ----------------------------------------------------------------------

CELL = {"architecture": "SP-AR-RC", "width": 3, "find_counterexample": False}

#: (wire budgets object or None, the budgets a SERVED app runs).
DOCUMENT_CASES = [
    (None, SERVED),
    ({}, SERVED),
    ({"monomial_budget": 2_000_000},
     SERVED.replace(monomial_budget=2_000_000)),
    ({"task_timeout_s": None}, SERVED.replace(task_timeout_s=None)),
    ({field.name: getattr(Budgets(), field.name)
      for field in dataclasses.fields(Budgets)}, Budgets()),
]
DOCUMENT_IDS = ["omitted", "empty", "one-field", "explicit-null",
                "every-field"]


def _document(budgets) -> dict:
    return dict(CELL) if budgets is None else {**CELL, "budgets": budgets}


def _post(app, path: str, document: dict):
    return app.handle("POST", path, json.dumps(document).encode("utf-8"))


@pytest.fixture()
def served_app():
    app = VerificationServerApp(budgets=SERVED, jobs=2)
    yield app
    app.close()


@pytest.mark.parametrize("budgets, expected", DOCUMENT_CASES,
                         ids=DOCUMENT_IDS)
def test_verify_route_fills_only_omitted_fields(seen, served_app, budgets,
                                                expected):
    response = _post(served_app, "/v1/verify", _document(budgets))
    assert response.status == 200
    assert seen == [expected]
    assert echoed(VerificationReport.from_json(response.body)) == expected


def test_the_request_deadline_clamps_after_resolution(seen):
    app = VerificationServerApp(budgets=SERVED, request_deadline_s=10.0)
    try:
        _post(app, "/v1/verify", _document({"time_budget_s": 60.0,
                                            "task_timeout_s": None}))
    finally:
        app.close()
    assert seen == [SERVED.replace(time_budget_s=10.0, task_timeout_s=20.0)]


def _batch_reports(app, documents, mode: str) -> list[dict]:
    body = {"requests": documents}
    if mode != "sync":
        body[mode] = True
    response = _post(app, "/v1/batch", body)
    if mode == "stream":
        lines = b"".join(response.stream).decode("utf-8").splitlines()
        return [json.loads(line) for line in lines[:-1]]
    document = json.loads(response.body)
    if mode == "async":
        deadline = time.monotonic() + 60.0
        while document.get("state") not in ("done", "failed"):
            assert time.monotonic() < deadline, "async batch never finished"
            time.sleep(0.02)
            document = json.loads(app.handle(
                "GET", f"/v1/jobs/{json.loads(response.body)['job']}").body)
    return document["reports"]


@needs_fork
@pytest.mark.parametrize("mode", ["sync", "stream", "async"])
def test_batch_route_fills_only_omitted_fields(seen, served_app, mode):
    documents = [_document(budgets) for budgets, _ in DOCUMENT_CASES]
    reports = _batch_reports(served_app, documents, mode)
    assert [echoed(report) for report in reports] == [
        expected for _, expected in DOCUMENT_CASES]


def test_acceptance_monomial_budget_5_is_served():
    """A server started with ``--monomial-budget 5`` trips requests that
    send no budgets, and not those that send their own."""
    app = VerificationServerApp(budgets=Budgets(monomial_budget=5))
    try:
        for budgets, verdict in ((None, "budget"),
                                 ({"monomial_budget": 2_000_000},
                                  "verified")):
            document = {**_document(budgets), "width": 4}
            report = json.loads(_post(app, "/v1/verify", document).body)
            assert report["verdict"] == verdict
            [report] = json.loads(_post(app, "/v1/batch", {
                "requests": [document]}).body)["reports"]
            assert report["verdict"] == verdict
    finally:
        app.close()


@needs_fork
def test_a_shared_cache_worker_publishes_under_its_local_key(monkeypatch,
                                                             tmp_path):
    app = VerificationServerApp(budgets=SERVED, cache_dir=tmp_path,
                                shared_cache_url="http://127.0.0.1:9")
    published: list[str] = []
    monkeypatch.setattr(app, "_shared_cache_get", lambda key: None)
    monkeypatch.setattr(app, "_shared_cache_put",
                        lambda key, report: published.append(key))
    try:
        response = _post(app, "/v1/batch", {"requests": [dict(CELL)]})
    finally:
        app.close()
    assert response.status == 200
    [key] = published
    assert key == ResultCache(tmp_path).key(VerificationRequest.from_architecture(
        "SP-AR-RC", 3, budgets=SERVED, find_counterexample=False))
    assert ResultCache(tmp_path).get(key) is not None


# -- service ---------------------------------------------------------------------

def _requests() -> list[VerificationRequest]:
    """Pooled, pooled with a hard limit, and in-process requests."""
    netlist = generate_multiplier("SP-WT-CL", 3)
    return [
        VerificationRequest.from_architecture(
            "SP-AR-RC", 3, budgets=ASKED, find_counterexample=False),
        VerificationRequest.from_architecture(
            "SP-WT-CL", 3, budgets=ASKED.replace(task_timeout_s=30.0),
            find_counterexample=False),
        VerificationRequest.from_architecture("SP-CT-BK", 3,
                                              find_counterexample=False),
        VerificationRequest.from_netlist(netlist, budgets=ASKED),
    ]


def test_submit_hands_the_request_budgets_to_the_backend(seen):
    for request in _requests():
        report = VerificationService().submit(request)
        assert echoed(report) == request.budgets
    assert seen == [request.budgets for request in _requests()]


@needs_fork
@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("entry", ["run_batch", "iter_batch"])
def test_batches_hand_each_request_its_own_budgets(seen, entry, jobs):
    requests = _requests()
    reports = list(getattr(VerificationService(), entry)(requests, jobs=jobs))
    assert [echoed(report) for report in reports] == [
        request.budgets for request in requests]


def test_run_grid_puts_its_budgets_on_every_request(seen):
    reports = VerificationService().run_grid(["SP-AR-RC", "SP-WT-CL"], [3],
                                             ["mt-lr", "mt-fo"], ASKED)
    assert [echoed(report) for report in reports] == [ASKED] * 4
    assert VerificationService.grid(["SP-AR-RC"], [3], ["mt-lr"])[0].budgets \
        == Budgets()


# -- fleet -----------------------------------------------------------------------

class _AppClient:
    """A fleet worker client answering through an in-process app."""

    def __init__(self, app: VerificationServerApp) -> None:
        self.app = app
        self.documents: list[dict] = []

    def version(self) -> dict:
        return json.loads(self.app.handle("GET", "/v1/version").body)

    def request_raw(self, method: str, path: str, document=None):
        self.documents.append(document)
        response = self.app.handle(method, path,
                                   json.dumps(document).encode("utf-8"))
        return response.status, response.body


@needs_fork
def test_fleet_workers_never_apply_their_own_defaults(seen):
    """The coordinator spells out every budget field, so a worker served
    with tight defaults (which would trip every request) runs each job
    under exactly the coordinator's budgets — ``null`` included."""
    worker = VerificationServerApp(budgets=Budgets(
        monomial_budget=5, time_budget_s=0.5, task_timeout_s=1.0))
    client = _AppClient(worker)
    requests = [VerificationRequest.from_architecture(
        architecture, 3, budgets=budgets, find_counterexample=False)
        for architecture, budgets in (
            ("SP-AR-RC", Budgets()), ("SP-WT-CL", ASKED),
            ("SP-CT-BK", ASKED.replace(task_timeout_s=30.0)))]
    topology = FleetTopology.from_document(
        {"workers": [{"name": "w0", "port": 1}]})
    try:
        reports = FleetDispatcher(topology, client_factory=lambda spec: client
                                  ).run_batch(requests)
    finally:
        worker.close()
    assert [report.verdict for report in reports] == ["verified"] * 3
    assert [echoed(report) for report in reports] == [
        request.budgets for request in requests]
    fields = {field.name for field in dataclasses.fields(Budgets)}
    assert all(set(document["requests"][0]["budgets"]) == fields
               for document in client.documents)


# -- time budgets ----------------------------------------------------------------

#: A fixed seeded sample of catalog cells at 16-32 bits.
_RANDOM = random.Random(22)
TIMED_CELLS = [(_RANDOM.choice(architecture_names()), _RANDOM.randint(16, 32))
               for _ in range(6)]


@pytest.mark.parametrize("time_budget_s", [0.01, 0.05, 0.2])
def test_submit_answers_within_its_time_budget(time_budget_s):
    """A request answers within its time budget plus 2 s, whether it is
    decided or trips; the model build before the first clock read and the
    step that crosses the deadline are the slack."""
    service = VerificationService()
    for architecture, width in TIMED_CELLS:
        request = VerificationRequest.from_architecture(
            architecture, width, budgets=Budgets(time_budget_s=time_budget_s))
        start = time.perf_counter()
        report = service.submit(request)
        elapsed = time.perf_counter() - start
        assert report.verdict in ("verified", "budget"), (architecture, width)
        assert elapsed <= time_budget_s + 2.0, (architecture, width, elapsed)
