"""Tests of the persistent batch worker pool (``WorkerPool``).

A pool outlives the runs that lease from it: the server's batches reuse
its workers, concurrent runs never share one, a dead or killed worker is
replaced and never reused, and no worker outlives its pool's ``close()``
or its parent process.
"""

from __future__ import annotations

import json
import multiprocessing
import multiprocessing.connection
import os
import select
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.api.report import VerificationReport
from repro.api.request import VerificationRequest
from repro.api.service import VerificationService
from repro.experiments import runner as runner_module
from repro.experiments.runner import (
    ExperimentConfig,
    ParallelRunner,
    VerificationJob,
    WorkerPool,
)
from repro.resilience.policy import RetryPolicy
from repro.server import ServerThread, VerificationClient, VerificationServerApp

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method required to inherit monkeypatched workers")

SRC = Path(__file__).resolve().parents[2] / "src"

#: Report keys that hold wall-clock readings.
TIMING_KEYS = ("time", "time_s", "reduction_time_s", "rewrite_time_s")


def _timeless(report: VerificationReport) -> str:
    """A report's canonical JSON with its wall-clock readings zeroed."""
    document = report.to_dict()
    for block in (document, document["counters"]):
        for key in TIMING_KEYS:
            if key in block:
                block[key] = 0
    return json.dumps(document, sort_keys=True)


def _requests(*architectures: str, width: int = 4) -> list[VerificationRequest]:
    return [VerificationRequest.from_architecture(
        architecture, width, "mt-lr", find_counterexample=False)
        for architecture in architectures]


def _documents(requests) -> bytes:
    return json.dumps({"requests": [
        {"architecture": request.architecture, "width": request.width,
         "method": request.method, "find_counterexample": False}
        for request in requests]}).encode("utf-8")


def _post_batch(app, requests) -> list[VerificationReport]:
    response = app.handle("POST", "/v1/batch", _documents(requests))
    assert response.status == 200, response.body
    return [VerificationReport.from_dict(entry)
            for entry in json.loads(response.body)["reports"]]


@pytest.fixture
def assigned(monkeypatch):
    """The worker processes every dispatch went to, in dispatch order."""
    processes = []
    original = runner_module._PoolWorker.assign

    def spy(self, index, job, task_timeout_s):
        processes.append(self.process)
        return original(self, index, job, task_timeout_s)

    monkeypatch.setattr(runner_module._PoolWorker, "assign", spy)
    return processes


def _running(pid: int) -> bool:
    """Whether ``pid`` is a live process (a zombie counts as gone)."""
    stat = Path(f"/proc/{pid}/stat")
    if stat.parent.parent.is_dir():
        try:
            state = stat.read_text().rsplit(")", 1)[1].split()[0]
        except (FileNotFoundError, ProcessLookupError):
            return False
        return state not in ("Z", "X")
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def _child_words(child: subprocess.Popen, lines: int,
                 timeout_s: float = 60.0) -> list[str]:
    """The words of a child's first ``lines`` stdout lines, within a deadline.

    The pool's workers inherit the child's stdout, so the pipe may stay
    open after the child exits: read lines, never to EOF.
    """
    data = b""
    deadline = time.monotonic() + timeout_s
    while data.count(b"\n") < lines:
        remaining = deadline - time.monotonic()
        assert remaining > 0, data
        if select.select([child.stdout], [], [], remaining)[0]:
            chunk = os.read(child.stdout.fileno(), 4096)
            assert chunk, data
            data += chunk
    return data.decode().split()


def test_consecutive_batches_reuse_the_same_workers(assigned):
    first = _requests("SP-AR-RC", "SP-WT-CL", "SP-DT-HC", "BP-WT-CL")
    second = _requests("SP-CT-BK", "SP-AR-KS", "BP-AR-RC", "SP-WT-RC")
    app = VerificationServerApp(jobs=2)
    try:
        reports = _post_batch(app, first)
        first_pids = {process.pid for process in assigned}
        del assigned[:]
        reports += _post_batch(app, second)
        second_pids = {process.pid for process in assigned}
        assert len(first_pids) == 2
        assert second_pids == first_pids
        assert app.pool.started_total == 2
    finally:
        app.close()
    expected = VerificationService().run_batch(first + second)
    assert [_timeless(report) for report in reports] == [
        _timeless(report) for report in expected]


def test_concurrent_batches_never_share_a_worker(monkeypatch):
    owners: dict[int, int] = {}
    leased: set[int] = set()
    violations: list[str] = []
    lock = threading.Lock()
    original_lease = WorkerPool.lease
    original_give_back = WorkerPool.give_back
    original_assign = runner_module._PoolWorker.assign

    def lease(self, count):
        workers = original_lease(self, count)
        with lock:
            for worker in workers:
                if worker.process.pid in owners:
                    violations.append(f"{worker.process.pid} leased twice")
                owners[worker.process.pid] = threading.get_ident()
                leased.add(worker.process.pid)
        return workers

    def give_back(self, workers):
        workers = list(workers)
        with lock:
            for worker in workers:
                owners.pop(worker.process.pid, None)
        return original_give_back(self, workers)

    def assign(self, index, job, task_timeout_s):
        with lock:
            if owners.get(self.process.pid) != threading.get_ident():
                violations.append(f"{self.process.pid} outside its lease")
        return original_assign(self, index, job, task_timeout_s)

    monkeypatch.setattr(WorkerPool, "lease", lease)
    monkeypatch.setattr(WorkerPool, "give_back", give_back)
    monkeypatch.setattr(runner_module._PoolWorker, "assign", assign)
    batches = [_requests("SP-AR-RC", "SP-WT-CL", "SP-DT-HC", "BP-WT-CL"),
               _requests("SP-CT-BK", "SP-AR-KS", "BP-AR-RC", "SP-WT-RC"),
               _requests("SP-AR-RC", "SP-WT-CL", "SP-DT-HC", "BP-WT-CL",
                         width=3)]
    app = VerificationServerApp(jobs=2)
    # Two idle workers up front, so the concurrent leases compete for them.
    _post_batch(app, _requests("SP-RT-KS", "BP-RT-KS", "SP-AR-CL"))
    assert app.pool.idle == 2
    results: dict[int, list] = {}
    start = threading.Barrier(len(batches))

    def post(position: int) -> None:
        start.wait(timeout=10)
        results[position] = _post_batch(app, batches[position])

    threads = [threading.Thread(target=post, args=(position,))
               for position in range(len(batches))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
        app.close()
    assert violations == []
    # Every worker ever leased was counted once when it started.
    assert app.pool.started_total == len(leased)
    assert app.pool.idle == 0
    for position, requests in enumerate(batches):
        serial = VerificationService().run_batch(requests)
        assert [_timeless(report) for report in results[position]] == [
            _timeless(report) for report in serial]


def test_a_worker_killed_between_batches_is_replaced_not_used():
    app = VerificationServerApp(jobs=2, retry_policy=RetryPolicy(
        max_attempts=3, base_delay_s=0.01, max_delay_s=0.05))
    try:
        _post_batch(app, _requests("SP-AR-RC", "SP-WT-CL", "SP-DT-HC"))
        assert app.pool.started_total == 2
        victim = app.pool._idle[0].process
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=5)
        assert not victim.is_alive()
        reports = _post_batch(app, _requests("SP-CT-BK", "SP-AR-KS",
                                             "BP-WT-CL"))
        metrics = json.loads(app.handle("GET", "/metrics").body)
    finally:
        app.close()
    assert [report.verdict for report in reports] == ["verified"] * 3
    assert all(report.attempts is None for report in reports)
    assert metrics["resilience"]["retries_total"] == 0
    assert metrics["pool"]["workers_started_total"] == 3


def test_a_hard_timeout_kill_never_leaks_a_row_into_the_next_run(monkeypatch):
    real_run_job = runner_module.run_job

    def run_job(job, config):
        if job.architecture == "SP-WT-CL":
            time.sleep(1.0)
            return {**real_run_job(job, config), "reason": "late row"}
        if job.architecture == "SP-CT-BK":
            time.sleep(1.2)   # keeps the next run open past the late row
        return real_run_job(job, config)

    monkeypatch.setattr(runner_module, "run_job", run_job)
    config = ExperimentConfig(widths=(3,), time_budget_s=60.0)
    pool = WorkerPool(max_idle=2)
    try:
        first = ParallelRunner(config, workers=2, task_timeout_s=0.3,
                               pool=pool)
        rows = first.run([VerificationJob("SP-WT-CL", 3, "mt-lr"),
                          VerificationJob("SP-AR-RC", 3, "mt-lr")])
        assert [row["status"] for row in rows] == ["TO", "ok"]
        assert pool.started_total == 3 and pool.idle == 2
        jobs = [VerificationJob("SP-CT-BK", 3, "mt-lr"),
                VerificationJob("SP-DT-HC", 3, "mt-lr"),
                VerificationJob("SP-AR-RC", 3, "mt-lr")]
        rows = ParallelRunner(config, workers=2, pool=pool).run(jobs)
    finally:
        pool.close()
    assert [(row["architecture"], row["status"]) for row in rows] == [
        (job.architecture, "ok") for job in jobs]
    assert all(row.get("reason") != "late row" for row in rows)
    assert pool.started_total == 3


def test_a_due_retry_waits_for_a_busy_worker_without_spinning(monkeypatch,
                                                            tmp_path):
    real_run_job = runner_module.run_job
    crashed = tmp_path / "crashed"

    def run_job(job, config):
        if job.width == 4 and not crashed.exists():
            crashed.touch()
            os._exit(137)
        if job.width == 3:
            time.sleep(1.0)   # both workers stay busy past the backoff
        return real_run_job(job, config)

    timeouts = []
    real_wait = multiprocessing.connection.wait

    def wait(handles, timeout=None):
        timeouts.append(timeout)
        return real_wait(handles, timeout)

    monkeypatch.setattr(runner_module, "run_job", run_job)
    monkeypatch.setattr(multiprocessing.connection, "wait", wait)
    runner = ParallelRunner(
        ExperimentConfig(), workers=2, retry_policy=RetryPolicy(
            max_attempts=2, base_delay_s=0.01, max_delay_s=0.01))
    # Widest first: the 4-bit job crashes at once, its replacement takes a
    # 3-bit job, and the retry comes due while both workers sleep.
    rows = runner.run([VerificationJob("SP-AR-RC", 4, "mt-lr"),
                       VerificationJob("SP-WT-CL", 3, "mt-lr"),
                       VerificationJob("SP-DT-HC", 3, "mt-lr")])
    assert [row["status"] for row in rows] == ["ok"] * 3
    assert runner.last_retries == 1
    assert len(timeouts) < 20, timeouts


def test_workers_exit_when_their_parent_dies():
    script = (
        "import os\n"
        "from repro.experiments.runner import (ExperimentConfig,\n"
        "    ParallelRunner, VerificationJob, WorkerPool)\n"
        "pool = WorkerPool(max_idle=2)\n"
        "runner = ParallelRunner(ExperimentConfig(), workers=2, pool=pool)\n"
        "rows = runner.run([VerificationJob('SP-AR-RC', 3, 'mt-lr'),\n"
        "                   VerificationJob('SP-WT-CL', 3, 'mt-lr')])\n"
        "assert all(row['verified'] for row in rows), rows\n"
        "print(' '.join(str(w.process.pid) for w in pool._idle), flush=True)\n"
        "os._exit(0)\n")
    environment = {**os.environ, "PYTHONPATH": str(SRC)}
    with subprocess.Popen([sys.executable, "-c", script], env=environment,
                          stdout=subprocess.PIPE) as child:
        try:
            pids = [int(pid) for pid in _child_words(child, 1)]
            assert child.wait(timeout=60) == 0
        finally:
            child.kill()
            child.wait(timeout=10)
    assert len(pids) == 2
    deadline = time.monotonic() + 5.0
    while any(_running(pid) for pid in pids) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not any(_running(pid) for pid in pids)


def test_busy_workers_exit_when_their_parent_dies():
    script = (
        "import os, time\n"
        "from repro.experiments import runner\n"
        "def run_job(job, config):\n"
        "    print(os.getpid(), flush=True)\n"
        "    time.sleep(60)\n"
        "runner.run_job = run_job\n"
        "runner.ParallelRunner(runner.ExperimentConfig(), workers=2).run(\n"
        "    [runner.VerificationJob('SP-AR-RC', 3, 'mt-lr'),\n"
        "     runner.VerificationJob('SP-WT-CL', 3, 'mt-lr')])\n")
    environment = {**os.environ, "PYTHONPATH": str(SRC)}
    with subprocess.Popen([sys.executable, "-c", script], env=environment,
                          stdout=subprocess.PIPE) as child:
        try:
            # Each worker prints its pid once it is inside its job.
            pids = [int(pid) for pid in _child_words(child, 2)]
        finally:
            child.kill()
            child.wait(timeout=10)
    deadline = time.monotonic() + 5.0
    while any(_running(pid) for pid in pids) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not any(_running(pid) for pid in pids)


def _read_response(connection: socket.socket) -> bytes:
    """One ``Content-Length`` response from a raw socket."""
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = connection.recv(65536)
        assert chunk, data
        data += chunk
    head, body = data.split(b"\r\n\r\n", 1)
    length = int(next(line.split(b":", 1)[1] for line in head.split(b"\r\n")
                      if line.lower().startswith(b"content-length:")))
    while len(body) < length:
        chunk = connection.recv(65536)
        assert chunk, data
        body += chunk
    return head


def test_a_stream_through_a_pooled_server_ends():
    # The batch forks the pool's workers while the stream's connection is
    # open; the server's close must still end the stream.
    app = VerificationServerApp(jobs=2)
    with ServerThread(app) as server:
        client = VerificationClient(port=server.port, timeout_s=10.0)
        documents = json.loads(_documents(
            _requests("SP-AR-RC", "SP-WT-CL", "SP-DT-HC")))["requests"]
        try:
            reports = list(client.batch_stream(documents))
        finally:
            client.close()
        assert app.pool.started_total == 2
    assert [report.verdict for report in reports] == ["verified"] * 3
    assert client.last_trailer["executed"] == 3


def test_a_connection_retired_after_the_pool_forked_reads_eof():
    app = VerificationServerApp(jobs=2)
    with ServerThread(app) as server:
        with socket.create_connection(("127.0.0.1", server.port),
                                      timeout=10.0) as kept:
            kept.sendall(b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n")
            assert _read_response(kept).startswith(b"HTTP/1.1 200")
            # This batch forks the pool's workers while ``kept`` is open.
            client = VerificationClient(port=server.port, timeout_s=10.0)
            documents = json.loads(_documents(
                _requests("SP-AR-RC", "SP-WT-CL", "SP-DT-HC")))["requests"]
            try:
                client.batch(documents)
            finally:
                client.close()
            assert app.pool.started_total == 2
            kept.sendall(b"GET /healthz HTTP/1.1\r\nHost: test\r\n"
                         b"Connection: close\r\n\r\n")
            assert _read_response(kept).startswith(b"HTTP/1.1 200")
            assert kept.recv(65536) == b""   # EOF, not a timeout


def test_close_leaves_no_live_worker(assigned):
    app = VerificationServerApp(jobs=2)
    with ServerThread(app) as server:
        client = VerificationClient(port=server.port)
        documents = json.loads(_documents(
            _requests("SP-AR-RC", "SP-WT-CL", "SP-DT-HC")))["requests"]
        try:
            reports = client.batch(documents)
        finally:
            client.close()
        assert [report.verdict for report in reports] == ["verified"] * 3
        assert app.pool.idle == 2
    assert assigned
    assert not any(process.is_alive() for process in assigned)
    assert app.pool.idle == 0


def test_close_stops_the_workers_of_a_batch_still_running(assigned,
                                                          monkeypatch):
    real_run_job = runner_module.run_job

    def slow_run_job(job, config):
        time.sleep(0.5)
        return real_run_job(job, config)

    monkeypatch.setattr(runner_module, "run_job", slow_run_job)
    app = VerificationServerApp(jobs=2)
    requests = _requests("SP-AR-RC", "SP-WT-CL", "SP-DT-HC")
    reports = []
    batch = threading.Thread(
        target=lambda: reports.extend(_post_batch(app, requests)))
    batch.start()
    deadline = time.monotonic() + 10
    while not assigned and time.monotonic() < deadline:
        time.sleep(0.01)
    app.close()
    batch.join(timeout=30)
    assert not batch.is_alive()
    assert [report.verdict for report in reports] == ["verified"] * 3
    assert not any(process.is_alive() for process in assigned)
    assert app.pool.idle == 0
