"""Fleet chaos: kill a worker process mid-batch, the grid still lands.

The ISSUE 9 fleet-survival gate: two real ``repro-verify serve`` worker
*processes* (not threads — a SIGKILL must take the whole worker down the
way a crashed host would), a dispatcher scattering a 4-bit grid over
both, and one worker killed while the grid is in flight.  Every row must
still complete with the same verdicts as a local run, and the rows that
failed over must say so in their ``attempts`` history.  A second gate
stalls one job on real workers with a scripted ``worker-latency`` fault:
the fleet steals it, and the batch does not wait for the stalled loser.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from repro.api.request import Budgets, VerificationRequest
from repro.api.service import VerificationService
from repro.fleet import FleetDispatcher, FleetTopology
from repro.resilience.faults import Fault, FaultPlan

from .test_dispatcher import stable

REPO_ROOT = Path(__file__).resolve().parents[2]

ARCHITECTURES = ("SP-AR-RC", "SP-AR-CL", "SP-WT-RC", "SP-WT-CL",
                 "SP-DT-KS", "BP-AR-RC", "BP-CT-BK")
METHODS = ("mt-lr", "sat-cec")


def _grid_requests(**options) -> list[VerificationRequest]:
    return [VerificationRequest.from_architecture(
        architecture, 4, method, find_counterexample=False, **options)
        for architecture in ARCHITECTURES for method in METHODS]


def _spawn_worker(plan: "FaultPlan | None" = None
                  ) -> tuple[subprocess.Popen, int]:
    """A real worker process on an ephemeral port, announced on stderr."""
    environment = dict(os.environ)
    environment["PYTHONPATH"] = str(REPO_ROOT / "src")
    if plan is not None:
        environment.update(plan.environment())
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0"],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        cwd=REPO_ROOT, env=environment, text=True)
    announce = process.stderr.readline()
    match = re.search(r"http://[\d.]+:(\d+)", announce)
    if match is None:       # pragma: no cover - diagnostics on boot failure
        process.kill()
        raise AssertionError(f"worker did not announce a port: {announce!r}")
    return process, int(match.group(1))


def test_worker_killed_mid_batch_grid_still_completes():
    victim, victim_port = _spawn_worker()
    survivor, survivor_port = _spawn_worker()
    try:
        topology = FleetTopology.from_document({
            "workers": [
                {"name": "victim", "port": victim_port, "capacity": 2},
                {"name": "survivor", "port": survivor_port, "capacity": 2},
            ],
            "straggler_grace_s": 30.0,
            "max_attempts": 3,
        })
        requests = _grid_requests()
        dispatcher = FleetDispatcher(topology, request_timeout_s=60.0)
        reports: list = []

        def consume() -> None:
            reports.extend(dispatcher.run_batch(requests))

        consumer = threading.Thread(target=consume)
        consumer.start()
        # Wait until both workers are saturated (capacity 2 each), then
        # kill the victim while its requests are in flight — a hard
        # SIGKILL, as a crashed host would be.
        deadline = time.monotonic() + 60.0
        while len(dispatcher.dispatch_log) < 4:
            assert time.monotonic() < deadline, "fleet never saturated"
            time.sleep(0.001)
        os.kill(victim.pid, signal.SIGKILL)
        victim.wait(timeout=30)
        consumer.join(timeout=120.0)
        assert not consumer.is_alive()
        assert len(reports) == len(requests)

        # Every row landed with the local verdicts — no silent gaps.
        local = VerificationService().run_batch(_grid_requests())
        assert [stable(report) for report in reports] == \
            [stable(report) for report in local]
        assert all(report.verdict == "verified" for report in reports)

        # The victim took dispatches before dying, and at least one of
        # its rows failed over with an honest attempts history.
        dispatched_to = {name for _, _, name in dispatcher.dispatch_log}
        assert dispatched_to == {"victim", "survivor"}
        failed_over = [report for report in reports if report.attempts]
        assert failed_over, "no re-dispatch was recorded in attempts"
        for report in failed_over:
            crashes = [entry for entry in report.attempts
                       if entry["outcome"] == "crash"]
            assert crashes
            assert any("victim" in (entry["reason"] or "")
                       for entry in crashes)
            assert report.attempts[-1]["outcome"] == "verified"
        assert dispatcher.last_retries >= len(failed_over)
    finally:
        for process in (victim, survivor):
            if process.poll() is None:
                process.terminate()
                process.wait(timeout=30)
            process.stderr.close()


def test_a_stalled_job_is_stolen_and_the_batch_does_not_wait(tmp_path):
    """Both workers stall SP-AR-RC/4/mt-lr for 10 s, once fleet-wide.

    The fault fires in a worker's pool, which a job reaches only with
    its own hard limit (a coordinator spells out every budget field), so
    every request carries ``task_timeout_s``.  The fleet steals the
    stalled job to the other worker, and ``run_batch`` returns as soon as
    the stolen attempt answers, without waiting for the stalled one.
    """
    plan = FaultPlan(faults=(Fault("worker-latency", match="SP-AR-RC/4/mt-lr",
                                   times=1, delay_s=10.0),),
                     state_dir=str(tmp_path / "fault-state"))
    spawned = [_spawn_worker(plan) for _ in range(2)]
    try:
        topology = FleetTopology.from_document({
            "workers": [{"name": f"w{index}", "port": port}
                        for index, (_, port) in enumerate(spawned)],
            "straggler_grace_s": 0.5,
        })
        budgets = Budgets(task_timeout_s=60.0)
        dispatcher = FleetDispatcher(topology, request_timeout_s=60.0)
        started = time.monotonic()
        reports = dispatcher.run_batch(_grid_requests(budgets=budgets))
        elapsed = time.monotonic() - started
        assert elapsed < 5.0, f"batch waited for the stalled job: {elapsed:.2f}s"
        assert dispatcher.last_steals >= 1

        local = VerificationService().run_batch(
            _grid_requests(budgets=budgets))
        assert [stable(report) for report in reports] == \
            [stable(report) for report in local]
        (stolen,) = [report for report, request
                     in zip(reports, _grid_requests())
                     if (request.architecture, request.method)
                     == ("SP-AR-RC", "mt-lr")]
        superseded, final = stolen.attempts
        assert superseded["attempt"] == 1
        assert superseded["outcome"] == "hard_timeout"
        assert superseded["reason"].startswith(
            "straggler re-dispatch after 0.5s grace to w")
        assert final["attempt"] == 2
        assert final["outcome"] == "verified"
    finally:
        # SIGKILL: a SIGTERM'd worker would first finish the stalled job.
        for process, _ in spawned:
            process.kill()
            process.wait(timeout=30)
            process.stderr.close()
