"""One retry rule for pool jobs and fleet jobs.

A pool job whose worker process crashes once and a fleet job whose
worker answers 503 once are retried by the same loop under the same
:class:`RetryPolicy`, so their reports carry the same ``attempts``
history: the failed attempt with its backoff, then the verdict.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.api.request import VerificationRequest
from repro.api.service import VerificationService
from repro.fleet import FleetDispatcher, FleetTopology
from repro.resilience.faults import Fault
from repro.resilience.policy import RetryPolicy
from repro.server import ServerThread, VerificationClient, \
    VerificationServerApp

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fault plans piggyback on inherited environment")


class _BusyOnce:
    """A worker's client whose first batch POST answers 503."""

    def __init__(self, port: int) -> None:
        self.client = VerificationClient(port=port, keep_alive=False)
        self.busy = True

    def version(self) -> dict:
        return self.client.version()

    def request_raw(self, method: str, path: str, document=None):
        if self.busy:
            self.busy = False
            return 503, b'{"error": {"code": "busy", "message": "once"}}'
        return self.client.request_raw(method, path, document)


@needs_fork
def test_pool_and_fleet_jobs_retry_under_one_rule(chaos):
    chaos(Fault("worker-crash", match="SP-WT-CL/4/mt-lr", times=1))
    requests = [VerificationRequest.from_architecture(
        architecture, 4, "mt-lr", find_counterexample=False)
        for architecture in ("SP-WT-CL", "SP-AR-RC")]
    policy = RetryPolicy(max_attempts=2)
    service = VerificationService(jobs=2, retry_policy=policy)
    pooled = service.run_batch(requests)[0]
    with ServerThread(VerificationServerApp()) as worker:
        topology = FleetTopology.from_document({
            "workers": [{"name": "w0", "port": worker.port}],
            "max_attempts": 2})
        dispatcher = FleetDispatcher(
            topology, client_factory=lambda spec: _BusyOnce(spec.port))
        fleet = dispatcher.run_batch(requests[1:])[0]

    assert dispatcher.retry_policy == policy
    assert "exited" in pooled.attempts[0]["reason"]
    assert "HTTP 503" in fleet.attempts[0]["reason"]
    for report in (pooled, fleet):
        assert report.verdict == "verified"
        failed, final = report.attempts
        assert (failed["attempt"], failed["kind"], failed["outcome"]) == \
            (1, "initial", "crash")
        assert failed["next_delay_s"] > 0
        assert (final["attempt"], final["kind"], final["outcome"]) == \
            (2, "retry", "verified")
    assert [list(entry) for entry in pooled.attempts] == \
        [list(entry) for entry in fleet.attempts]
    assert service.last_retries == dispatcher.last_retries == 1
