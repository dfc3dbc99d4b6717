"""FleetDispatcher against real in-process worker servers.

Two :class:`ServerThread` workers on ephemeral ports back these tests;
the dispatcher drives them over real sockets.  Pins the subsystem's
core contracts: report byte-parity with the in-process service (modulo
timings and ``attempts``), longest-expected-first placement over both
workers, backend-allowlist routing, the coordinator-side shared result
cache, tolerance of workers that are down at start, retry failover with
an honest ``attempts`` history, and the ``/v1/version`` mixed-schema
refusal.
"""

from __future__ import annotations

import json
import sys
import threading
import time

import pytest

from repro.api.request import VerificationRequest
from repro.api.service import VerificationService
from repro.errors import VerificationError
from repro.fleet import FleetDispatcher, FleetTopology, wire_document
from repro.generators.multipliers import generate_multiplier
from repro.server import ServerThread, VerificationClient, \
    VerificationServerApp
from repro.server.app import _json_response
from repro.server.client import ServerError

GRID = [("SP-AR-RC", 4, "mt-lr"), ("SP-AR-RC", 4, "sat-cec"),
        ("SP-WT-CL", 4, "mt-lr"), ("SP-WT-CL", 4, "sat-cec"),
        ("BP-CT-BK", 4, "mt-lr"), ("BP-CT-BK", 4, "sat-cec"),
        ("SP-DT-KS", 3, "mt-fo"), ("SP-AR-RC", 3, "bdd-cec")]

_TIMING_KEYS = ("time", "time_s", "attempts")
_TIMING_COUNTERS = ("conflicts", "decisions")


def stable(report) -> dict:
    """A report dict with the run-to-run-varying fields masked."""
    document = report.to_dict()
    for key in _TIMING_KEYS:
        document[key] = "*"
    document["counters"] = {
        key: ("*" if key.endswith("time_s") or key in _TIMING_COUNTERS
              else value)
        for key, value in (document.get("counters") or {}).items()}
    return document


def requests_for(grid):
    return [VerificationRequest.from_architecture(
        architecture, width, method, find_counterexample=False)
        for architecture, width, method in grid]


@pytest.fixture(scope="module")
def workers():
    with ServerThread(VerificationServerApp()) as one:
        with ServerThread(VerificationServerApp()) as two:
            yield one, two


def topology_for(workers, **extra) -> FleetTopology:
    return FleetTopology.from_document({
        "workers": [{"name": f"w{index}", "port": worker.port}
                    for index, worker in enumerate(workers)],
        **extra})


# -- parity --------------------------------------------------------------------

def test_fleet_batch_matches_local_run_batch(workers):
    requests = requests_for(GRID)
    dispatcher = FleetDispatcher(topology_for(workers))
    fleet = dispatcher.run_batch(requests)
    local = VerificationService().run_batch(requests_for(GRID))
    assert [stable(report) for report in fleet] == \
        [stable(report) for report in local]
    # Every row executed remotely, and both workers took dispatches.
    assert dispatcher.last_executed == len(GRID)
    assert dispatcher.last_cache_hits == 0
    assert {name for _, _, name in dispatcher.dispatch_log} == {"w0", "w1"}


def test_many_attempts_in_flight_are_each_booked_once(workers):
    """Eight attempt threads at a time, switching every microsecond.

    Each attempt only posts its answer; the consumer's loop books them
    all.  A lost or doubled answer would hang the batch, repeat a
    dispatch or break parity with the local run.
    """
    grid = GRID * 2
    topology = FleetTopology.from_document({"workers": [
        {"name": f"w{index}", "port": worker.port, "capacity": 4}
        for index, worker in enumerate(workers)]})
    dispatcher = FleetDispatcher(topology)
    reports: list = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        consumer = threading.Thread(
            target=lambda: reports.extend(
                dispatcher.run_batch(requests_for(grid))),
            daemon=True)
        consumer.start()
        consumer.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not consumer.is_alive(), "consumer hung on a lost answer"
    local = VerificationService().run_batch(requests_for(grid))
    assert [stable(report) for report in reports] == \
        [stable(report) for report in local]
    assert sorted(index for _, index, _ in dispatcher.dispatch_log) == \
        list(range(len(grid)))
    assert dispatcher.last_executed == len(grid)


def test_placement_is_longest_expected_first(workers):
    from repro.experiments.runner import expected_cost_key

    requests = requests_for(GRID)
    dispatcher = FleetDispatcher(topology_for(workers))
    dispatcher.run_batch(requests)
    dispatched = [index for _, index, _ in dispatcher.dispatch_log]
    expected = sorted(range(len(requests)),
                      key=lambda i: expected_cost_key(requests[i]),
                      reverse=True)
    assert dispatched == expected


def test_untransportable_requests_run_on_the_local_service(workers):
    netlist = generate_multiplier("SP-AR-RC", 3)
    request = VerificationRequest(netlist=netlist, method="mt-lr",
                                  find_counterexample=False)
    assert wire_document(request) is None
    dispatcher = FleetDispatcher(topology_for(workers))
    report = dispatcher.run_batch([request])[0]
    local = VerificationService().run_batch(
        [VerificationRequest(netlist=netlist, method="mt-lr",
                             find_counterexample=False)])[0]
    assert stable(report) == stable(local)
    assert dispatcher.dispatch_log == []        # nothing went over the wire


# -- allowlists ----------------------------------------------------------------

def test_backend_allowlists_route_dispatch(workers):
    topology = FleetTopology.from_document({"workers": [
        {"name": "mt-only", "port": workers[0].port,
         "backends": ["mt-lr", "mt-fo"]},
        {"name": "sat-only", "port": workers[1].port,
         "backends": ["sat-cec", "bdd-cec"]},
    ]})
    requests = requests_for(GRID)
    dispatcher = FleetDispatcher(topology)
    reports = dispatcher.run_batch(requests)
    assert [report.verdict for report in reports] == \
        ["verified"] * len(requests)
    for _, index, worker in dispatcher.dispatch_log:
        method = requests[index].method
        assert worker == ("mt-only" if method.startswith("mt") else "sat-only")


# -- shared result cache -------------------------------------------------------

def test_coordinator_cache_replays_without_executing(workers, tmp_path):
    topology = topology_for(workers, cache_dir=str(tmp_path / "cache"))
    first = FleetDispatcher(topology)
    originals = first.run_batch(requests_for(GRID))
    assert first.last_executed == len(GRID)

    replay = FleetDispatcher(topology)
    replayed = replay.run_batch(requests_for(GRID))
    assert replay.last_executed == 0
    assert replay.last_cache_hits == len(GRID)
    assert replay.dispatch_log == []
    # Replays are byte-identical to the executed originals — timings too,
    # because they are the *same* cached documents.
    assert [report.to_json() for report in replayed] == \
        [report.to_json() for report in originals]


# -- failure handling ----------------------------------------------------------

def _closed_port() -> int:
    import socket

    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def test_worker_down_at_start_is_tolerated(workers):
    topology = FleetTopology.from_document({"workers": [
        {"name": "alive", "port": workers[0].port},
        {"name": "dead", "port": _closed_port()},
    ]})
    dispatcher = FleetDispatcher(topology)
    reports = dispatcher.run_batch(requests_for(GRID[:4]))
    assert [report.verdict for report in reports] == ["verified"] * 4
    assert {name for _, _, name in dispatcher.dispatch_log} == {"alive"}
    assert "dead" not in dispatcher.worker_versions


def test_no_reachable_worker_is_an_error():
    topology = FleetTopology.from_document(
        {"workers": [{"name": "dead", "port": _closed_port()}]})
    with pytest.raises(VerificationError, match="no fleet worker is reachable"):
        FleetDispatcher(topology).run_batch(requests_for(GRID[:1]))


class _FlakyOnce:
    """Delegates to a real client, failing the first batch POST with a 503."""

    def __init__(self, client: VerificationClient) -> None:
        self.client = client
        self.failures = 0

    def version(self) -> dict:
        return self.client.version()

    def request_raw(self, method: str, path: str, document=None):
        if self.failures == 0:
            self.failures += 1
            return 503, json.dumps({"error": {
                "code": "worker_overloaded",
                "message": "injected transient failure"}}).encode("utf-8")
        return self.client.request_raw(method, path, document)


def test_transient_5xx_is_retried_and_recorded_in_attempts(workers):
    flaky: dict[str, _FlakyOnce] = {}

    def factory(worker):
        flaky[worker.name] = _FlakyOnce(
            VerificationClient(port=worker.port, keep_alive=False))
        return flaky[worker.name]

    dispatcher = FleetDispatcher(topology_for(workers[:1]),
                                 client_factory=factory)
    report = dispatcher.run_batch(requests_for(GRID[:1]))[0]
    assert report.verdict == "verified"
    assert dispatcher.last_retries == 1
    crash, final = report.attempts
    assert crash["outcome"] == "crash"
    assert "HTTP 503" in crash["reason"]
    assert final["kind"] == "retry"
    assert final["outcome"] == "verified"
    # The annotated report still matches a local run once attempts are masked.
    local = VerificationService().run_batch(requests_for(GRID[:1]))[0]
    assert stable(report) == stable(local)


def test_exhausted_retries_yield_an_honest_error_report(workers):
    class _AlwaysBusy(_FlakyOnce):
        def request_raw(self, method, path, document=None):
            self.failures += 1
            return 503, b'{"error":{"code":"busy","message":"always"}}'

    busy: dict[str, _AlwaysBusy] = {}

    def factory(worker):
        busy[worker.name] = _AlwaysBusy(
            VerificationClient(port=worker.port, keep_alive=False))
        return busy[worker.name]

    topology = topology_for(workers[:1], max_attempts=2)
    dispatcher = FleetDispatcher(topology, client_factory=factory)
    report = dispatcher.run_batch(requests_for(GRID[:1]))[0]
    # The job answers with its last failure, as a pool job's does.
    assert report.status == "crash"
    assert report.verdict == "error"
    assert "HTTP 503" in report.reason
    assert busy["w0"].failures == 2             # max_attempts, then give up
    assert [entry["outcome"] for entry in report.attempts] == \
        ["crash", "crash"]


def test_queued_jobs_resolve_when_every_worker_goes_down(workers):
    """A job dropped because its workers died must wake the consumer.

    One worker, capacity 1, two requests: the first dispatch marks the
    worker down (connection error), so the second — still queued — is
    resolved by the batch loop itself, not by any worker attempt.  The
    loop must yield that resolution instead of waiting forever for an
    attempt answer that will never come.
    """
    class _Dead:
        def __init__(self, client: VerificationClient) -> None:
            self.client = client

        def version(self) -> dict:
            return self.client.version()

        def request_raw(self, method, path, document=None):
            raise ServerError(0, "connection_error", "injected dead worker")

    dispatcher = FleetDispatcher(
        topology_for(workers[:1]),
        client_factory=lambda worker: _Dead(
            VerificationClient(port=worker.port, keep_alive=False)))
    reports: list = []
    consumer = threading.Thread(
        target=lambda: reports.extend(
            dispatcher.run_batch(requests_for(GRID[:2]))),
        daemon=True)
    consumer.start()
    consumer.join(timeout=30.0)
    assert not consumer.is_alive(), "consumer hung on a dropped queued job"
    assert [report.verdict for report in reports] == ["error", "error"]
    assert any("connection_error" in (report.reason or "")
               for report in reports)
    assert any("are down" in (report.reason or "") for report in reports)


def test_a_bookkeeping_error_reaches_the_consumer(workers, tmp_path,
                                                 monkeypatch):
    """An exception in the batch's own bookkeeping raises in its consumer.

    Publishing the worker's verdict to the coordinator cache fails; the
    consumer must see that error instead of waiting for a report that
    will never be booked.
    """
    from repro.experiments.runner import ResultCache

    def broken_put(self, key, report, job=None):
        raise RuntimeError("injected cache publish failure")

    monkeypatch.setattr(ResultCache, "put", broken_put)
    dispatcher = FleetDispatcher(
        topology_for(workers, cache_dir=str(tmp_path / "cache")))
    errors: list = []

    def consume() -> None:
        try:
            dispatcher.run_batch(requests_for([("SP-AR-RC", 3, "mt-lr")]))
        except RuntimeError as error:
            errors.append(error)

    consumer = threading.Thread(target=consume, daemon=True)
    consumer.start()
    consumer.join(timeout=30.0)
    assert not consumer.is_alive(), "consumer hung on a failed batch"
    assert [str(error) for error in errors] == \
        ["injected cache publish failure"]


def test_request_timeout_is_retried_without_marking_worker_down(workers):
    """One slow job must not remove a healthy worker from the fleet."""
    class _TimesOutOnce(_FlakyOnce):
        def request_raw(self, method, path, document=None):
            if self.failures == 0:
                self.failures += 1
                raise ServerError(0, "request_timeout",
                                  "POST /v1/batch: timed out")
            return self.client.request_raw(method, path, document)

    dispatcher = FleetDispatcher(
        topology_for(workers[:1]),
        client_factory=lambda worker: _TimesOutOnce(
            VerificationClient(port=worker.port, keep_alive=False)))
    report = dispatcher.run_batch(requests_for(GRID[:1]))[0]
    assert report.verdict == "verified"
    assert dispatcher.last_retries == 1
    # The worker stayed up: the retry was dispatched back to it.
    assert [name for _, _, name in dispatcher.dispatch_log] == ["w0", "w0"]
    crash, final = report.attempts
    assert crash["outcome"] == "crash"
    assert "request_timeout" in crash["reason"]
    assert final["outcome"] == "verified"


# -- work-stealing -------------------------------------------------------------

class _Gated:
    """Real client whose batch POSTs can block on an event or dawdle."""

    def __init__(self, client: VerificationClient,
                 gate: "threading.Event | None" = None,
                 delay: float = 0.0) -> None:
        self.client = client
        self.gate = gate
        self.delay = delay

    def version(self) -> dict:
        return self.client.version()

    def request_raw(self, method, path, document=None):
        if self.gate is not None:
            self.gate.wait(timeout=30.0)
        if self.delay:
            time.sleep(self.delay)
        return self.client.request_raw(method, path, document)


def test_steal_annotation_recorded_when_stolen_attempt_wins(workers):
    gate = threading.Event()

    def factory(worker):
        client = VerificationClient(port=worker.port, keep_alive=False)
        # w0 blocks until released; the steal to w1 runs through and wins.
        return _Gated(client, gate=gate if worker.name == "w0" else None)

    topology = topology_for(workers, straggler_grace_s=0.05)
    dispatcher = FleetDispatcher(topology, client_factory=factory)
    iterator = dispatcher.iter_batch(requests_for(GRID[:1]))
    report = next(iterator)
    gate.set()          # release the original; the epoch guard drops it
    assert list(iterator) == []
    assert report.verdict == "verified"
    assert dispatcher.last_steals == 1
    assert len(dispatcher.dispatch_log) == 2
    superseded, final = report.attempts
    assert superseded["attempt"] == 1
    assert superseded["outcome"] == "hard_timeout"
    assert "straggler re-dispatch" in superseded["reason"]
    assert final["attempt"] == 2
    assert final["outcome"] == "verified"


def test_no_steal_annotation_when_original_attempt_wins(workers):
    gate = threading.Event()

    def factory(worker):
        client = VerificationClient(port=worker.port, keep_alive=False)
        if worker.name == "w0":
            # Slow enough to trip the grace and trigger a steal, but the
            # steal target blocks — the original finishes first and wins.
            return _Gated(client, delay=0.5)
        return _Gated(client, gate=gate)

    topology = topology_for(workers, straggler_grace_s=0.05)
    dispatcher = FleetDispatcher(topology, client_factory=factory)
    iterator = dispatcher.iter_batch(requests_for(GRID[:1]))
    report = next(iterator)
    gate.set()          # release the losing stolen attempt
    assert list(iterator) == []
    assert report.verdict == "verified"
    assert dispatcher.last_steals == 1          # a steal was dispatched...
    assert len(dispatcher.dispatch_log) == 2
    # ...but the winner was never superseded, so its history stays clean.
    assert not report.attempts


class _Dawdling(_Gated):
    """A ``_Gated`` client that dawdles only on one architecture's jobs."""

    def __init__(self, client: VerificationClient, architecture: str,
                 delay: float) -> None:
        super().__init__(client, delay=delay)
        self.architecture = architecture

    def request_raw(self, method, path, document=None):
        if document["requests"][0]["architecture"] != self.architecture:
            return self.client.request_raw(method, path, document)
        return super().request_raw(method, path, document)


def test_a_resolved_job_is_not_stolen_again(workers):
    """The loser of a won steal race is still in flight, but no straggler.

    w0 (capacity 1) holds job 0 until its report is out; w1 (capacity 2)
    runs jobs 1 and 2 and dawdles 1 s on job 1.  Job 0 is stolen to w1
    once, and job 1 to w0 once w0 frees up; w0's stale attempt on the
    resolved job 0 is never re-dispatched.
    """
    gate = threading.Event()

    def factory(worker):
        client = VerificationClient(port=worker.port, keep_alive=False)
        if worker.name == "w0":
            return _Gated(client, gate=gate)
        return _Dawdling(client, "SP-WT-CL", delay=1.0)

    topology = FleetTopology.from_document({
        "workers": [
            {"name": "w0", "port": workers[0].port, "capacity": 1},
            {"name": "w1", "port": workers[1].port, "capacity": 2}],
        "straggler_grace_s": 0.05})
    dispatcher = FleetDispatcher(topology, client_factory=factory)
    iterator = dispatcher.iter_batch(requests_for(
        [("BP-CT-BK", 4, "mt-lr"), ("SP-WT-CL", 4, "mt-lr"),
         ("SP-AR-RC", 2, "mt-lr")]))
    try:
        first = next(iterator)
        gate.set()
        reports = [first, *iterator]
    finally:
        gate.set()
    assert [report.verdict for report in reports] == ["verified"] * 3
    assert [(index, name) for _, index, name in dispatcher.dispatch_log] \
        == [(0, "w0"), (1, "w1"), (2, "w1"), (0, "w1"), (1, "w0")]
    assert dispatcher.last_steals == 2
    for report in reports[:2]:
        superseded, final = report.attempts
        assert "straggler re-dispatch" in superseded["reason"]
        assert final["outcome"] == "verified"


# -- version handshake ---------------------------------------------------------

class _AncientSchemaApp(VerificationServerApp):
    def handle_version(self, body: bytes = b"") -> object:
        document = json.loads(
            super().handle_version(body).body.decode("utf-8"))
        document["report_schema"] = 1
        return _json_response(document)


def test_mixed_schema_fleet_is_refused(workers):
    with ServerThread(_AncientSchemaApp()) as ancient:
        topology = FleetTopology.from_document({"workers": [
            {"name": "modern", "port": workers[0].port},
            {"name": "ancient", "port": ancient.port},
        ]})
        with pytest.raises(VerificationError,
                           match="refusing mixed-schema") as info:
            FleetDispatcher(topology).run_batch(requests_for(GRID[:1]))
        assert "ancient" in str(info.value)
        assert "report_schema=1" in str(info.value)
