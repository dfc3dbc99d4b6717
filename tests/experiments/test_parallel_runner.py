"""Tests for the parallel batch runner (parity, crash isolation, timeouts)."""

from __future__ import annotations

import multiprocessing
import os
import time

import pytest

from repro.api.registry import (
    BackendSpec,
    backends,
    register,
    scheduling_rank,
    unregister,
)
from repro.api.request import Budgets, VerificationRequest
from repro.api.service import VerificationService
from repro.errors import ReproError
from repro.experiments import runner as runner_module
from repro.experiments.runner import (
    ExperimentConfig,
    ParallelRunner,
    expected_cost_key,
    run_request,
)

#: Row keys that must be bit-identical between serial and parallel execution
#: (timings are excluded — they legitimately differ between runs).
DETERMINISTIC_KEYS = (
    "architecture", "width", "method", "status", "verified",
    "cancelled_vanishing_monomials", "num_polynomials", "num_monomials",
    "max_polynomial_terms", "max_monomial_variables", "peak_remainder",
)

#: Row fields that vary from run to run (wall-clock or solver timing).
TIMING_KEYS = ("time", "time_s", "reduction_time_s", "rewrite_time_s")

BUDGETS = Budgets(time_budget_s=60.0, monomial_budget=200_000)

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method required to inherit monkeypatched workers")


def job(architecture: str, width: int = 3, method: str = "mt-lr",
        **budget_changes) -> VerificationRequest:
    """One pooled batch cell, as the service hands it to the runner."""
    return VerificationRequest.from_architecture(
        architecture, width, method, budgets=BUDGETS.replace(**budget_changes),
        find_counterexample=False)


def grid(architectures, widths, methods) -> list[VerificationRequest]:
    return VerificationService.grid(architectures, widths, methods, BUDGETS)


def _deterministic(rows):
    return [tuple(row.get(key) for key in DETERMINISTIC_KEYS) for row in rows]


def _masked(row: dict) -> dict:
    return {key: ("*" if key in TIMING_KEYS else value)
            for key, value in row.items()}


def test_service_grid_order():
    cells = grid(["A", "B"], [2, 4], ["mt-lr", "mt-fo"])
    assert [(r.architecture, r.width, r.method) for r in cells[:3]] == [
        ("A", 2, "mt-lr"), ("A", 2, "mt-fo"), ("B", 2, "mt-lr")]
    assert len(cells) == 8


def test_parallel_results_match_serial():
    runner = ParallelRunner(workers=2)
    jobs = grid(["SP-AR-RC", "SP-WT-CL", "SP-CT-BK"], [3], ["mt-lr", "mt-fo"])
    parallel_rows = runner.run(jobs)
    serial_rows = ParallelRunner(workers=1).run(jobs)
    assert _deterministic(parallel_rows) == _deterministic(serial_rows)
    assert all(row["verified"] for row in parallel_rows)


def test_pool_rows_equal_service_submit_rows():
    """The pool is the service: every worker row is ``submit(request).to_row()``.

    Every registered backend, under default and tight budgets (``ok`` and
    ``TO`` rows), with certificates where the backend is certifiable, plus
    an unknown architecture whose ``CircuitError`` becomes an ``error`` row
    under the isolation boundary.
    """
    tight = Budgets(time_budget_s=60.0, monomial_budget=50,
                    sat_conflict_budget=5, bdd_node_budget=50)
    jobs = []
    for spec in backends():
        for budgets in (BUDGETS, tight):
            for certificate in ((False, True) if spec.certifiable
                                else (False,)):
                for architecture in ("SP-AR-RC", "BP-WT-CL", "SP-DT-HC"):
                    jobs.append(VerificationRequest.from_architecture(
                        architecture, 3, spec.name, budgets=budgets,
                        certificate=certificate, find_counterexample=False))
        jobs.append(VerificationRequest.from_architecture(
            "XX-YY-ZZ", 3, spec.name, budgets=BUDGETS,
            find_counterexample=False))
    rows = ParallelRunner(workers=2).run(jobs)
    service = VerificationService()
    expected = []
    for request in jobs:
        try:
            expected.append(service.submit(request).to_row())
        except ReproError:
            expected.append(None)
    assert len(jobs) >= 60
    statuses = {row["status"] for row in rows}
    assert {"ok", "TO", "error"} <= statuses
    for request, row, reference in zip(jobs, rows, expected):
        if reference is None:
            assert row["status"] == "error", request
            assert "CircuitError" in row["reason"]
        else:
            assert _masked(row) == _masked(reference), request
    assert any("certificate" in row for row in rows)


def test_streaming_callback_sees_every_job():
    seen = []
    runner = ParallelRunner(workers=2)
    jobs = grid(["SP-AR-RC", "SP-DT-HC"], [3], ["mt-lr"])
    rows = runner.run(jobs, on_result=lambda job, row: seen.append(
        (job.architecture, job.width, job.method)))
    assert sorted(seen) == sorted((job.architecture, job.width, job.method)
                                  for job in jobs)
    assert len(rows) == len(jobs)


def test_bad_job_is_isolated_not_fatal():
    """A generator error on one circuit must not abort the batch."""
    jobs = [job("SP-AR-RC"), job("XX-YY-ZZ"),   # unknown architecture
            job("SP-WT-CL")]
    for workers in (1, 2):
        rows = ParallelRunner(workers=workers).run(jobs)
        assert [row["status"] for row in rows] == ["ok", "error", "ok"]
        assert "CircuitError" in rows[1]["reason"]


def test_unknown_method_is_reported_as_error_row():
    """A backend unregistered after the request was built is an error row."""
    register(BackendSpec(name="mt-gone", kind="algebraic",
                         description="test plug-in"))
    try:
        request = job("SP-AR-RC", method="mt-gone")
    finally:
        unregister("mt-gone")
    rows = ParallelRunner(workers=1).run([request])
    assert rows[0]["status"] == "error"
    assert "mt-gone" in rows[0]["reason"]
    with pytest.raises(ReproError):
        run_request(request)


@needs_fork
def test_worker_crash_is_reported_per_job(monkeypatch):
    """A worker dying without a result yields a crash row, not a hang."""

    real_run_request = runner_module.run_request

    def crashing_run_request(request):
        if request.architecture == "SP-WT-CL":
            os._exit(17)  # simulate a segfault/OOM kill
        return real_run_request(request)

    monkeypatch.setattr(runner_module, "run_request", crashing_run_request)
    jobs = [job("SP-AR-RC"), job("SP-WT-CL"), job("SP-DT-HC")]
    rows = ParallelRunner(workers=2).run(jobs)
    assert [row["status"] for row in rows] == ["ok", "crash", "ok"]
    assert "17" in rows[1]["reason"]


@needs_fork
def test_hard_task_timeout_kills_the_worker(monkeypatch):
    real_run_request = runner_module.run_request

    def sleeping_run_request(request):
        if request.architecture == "SP-WT-CL":
            time.sleep(60)
        return real_run_request(request)

    monkeypatch.setattr(runner_module, "run_request", sleeping_run_request)
    jobs = [job("SP-WT-CL", task_timeout_s=1.0),
            job("SP-AR-RC", task_timeout_s=1.0)]
    start = time.monotonic()
    rows = ParallelRunner(workers=2).run(jobs)
    assert time.monotonic() - start < 30
    assert rows[0]["status"] == "TO"
    assert rows[0]["reason"] == "hard task timeout"
    assert rows[1]["status"] == "ok"


@needs_fork
def test_workers_are_reused_across_jobs(monkeypatch):
    """The pool must not fork one process per job."""

    real_run_request = runner_module.run_request

    def pid_stamping_run_request(request):
        row = real_run_request(request)
        row["worker_pid"] = os.getpid()
        return row

    monkeypatch.setattr(runner_module, "run_request", pid_stamping_run_request)
    jobs = grid(["SP-AR-RC", "SP-WT-CL", "SP-CT-BK", "SP-DT-HC"], [3],
                ["mt-lr"])
    rows = ParallelRunner(workers=2).run(jobs)
    pids = {row["worker_pid"] for row in rows}
    assert len(pids) <= 2, "jobs must share the persistent workers"
    assert all(row["verified"] for row in rows)


@needs_fork
def test_pool_survives_timeout_then_finishes_remaining_jobs(monkeypatch):
    """A killed worker is replaced and the queue keeps draining."""

    real_run_request = runner_module.run_request

    def sleeping_run_request(request):
        if request.architecture == "SP-WT-CL":
            time.sleep(60)
        return real_run_request(request)

    monkeypatch.setattr(runner_module, "run_request", sleeping_run_request)
    jobs = [job(architecture, task_timeout_s=1.0) for architecture in
            ("SP-WT-CL", "SP-AR-RC", "SP-DT-HC", "SP-CT-BK")]
    rows = ParallelRunner(workers=1).run(jobs)
    assert [row["status"] for row in rows] == ["TO", "ok", "ok", "ok"]


def test_config_jobs_from_environment(monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_JOBS", "3")
    assert ExperimentConfig.from_environment().jobs == 3


def test_runner_takes_no_budgets_of_its_own():
    """Budgets and hard timeouts ride on each request, not on the runner."""
    import inspect

    parameters = inspect.signature(ParallelRunner).parameters
    assert "config" not in parameters
    assert "task_timeout_s" not in parameters


# ---------------------------------------------------------------------------
# Longest-expected-first scheduling
# ---------------------------------------------------------------------------

def test_expected_cost_key_orders_width_then_method_then_architecture():
    light = job("SP-AR-RC", 4)
    wide = job("SP-AR-RC", 16)
    heavy_method = job("SP-AR-RC", 16, "mt-naive")
    booth_tree = job("BP-WT-CL", 16, "mt-naive")
    assert expected_cost_key(light) < expected_cost_key(wide)
    assert expected_cost_key(wide) < expected_cost_key(heavy_method)
    assert expected_cost_key(heavy_method) < expected_cost_key(booth_tree)


def test_expected_cost_key_scores_no_architecture_zero():
    inline = VerificationRequest.from_verilog(text="module m; endmodule",
                                              method="mt-naive", width=8)
    assert expected_cost_key(inline) == (8, scheduling_rank("mt-naive"), 0)
    assert expected_cost_key(VerificationRequest.from_verilog(
        text="module m; endmodule"))[0] == 0


def test_parallel_assignment_prefers_expensive_jobs_first(monkeypatch):
    """The widest/heaviest job must be assigned before the light tail."""
    assigned = []
    original_assign = runner_module._PoolWorker.assign

    def spy(self, index, job, task_timeout_s):
        assigned.append(job)
        return original_assign(self, index, job, task_timeout_s)

    monkeypatch.setattr(runner_module._PoolWorker, "assign", spy)
    jobs = [job("SP-AR-RC", 3, "mt-lr"), job("SP-AR-RC", 3, "mt-fo"),
            job("SP-WT-RC", 4, "mt-lr"), job("BP-WT-RC", 4, "mt-fo")]
    runner = ParallelRunner(workers=2)
    rows = runner.run(jobs)
    # Results keep grid order regardless of the schedule.
    assert [row["architecture"] for row in rows] == [
        request.architecture for request in jobs]
    # The first assignment is the heaviest job by the cost heuristic.
    heaviest = max(jobs, key=expected_cost_key)
    assert assigned[0] == heaviest


def test_parallel_schedule_matches_serial_rows():
    """Scheduling order never leaks into the result rows."""
    jobs = [job(arch, width) for width in (2, 3)
            for arch in ("SP-AR-RC", "SP-WT-RC")]
    runner = ParallelRunner(workers=2)
    serial = ParallelRunner(workers=1).run(jobs)
    parallel = runner.run(jobs)
    assert _deterministic(serial) == _deterministic(parallel)


def test_each_job_runs_under_its_own_budgets():
    """Per-request budget groups: the request's budgets win everywhere."""
    jobs = [job("SP-WT-CL", 3, "mt-naive"),
            job("SP-WT-CL", 3, "mt-naive", monomial_budget=50)]
    for workers in (1, 2):
        rows = ParallelRunner(workers=workers).run(jobs)
        assert [row["status"] for row in rows] == ["ok", "TO"], workers
        assert "monomial budget" in rows[1]["reason"]


def test_job_budgets_key_the_cache_separately(tmp_path):
    """One cell under two budget groups must occupy two cache entries."""
    runner = ParallelRunner(workers=1, cache_dir=tmp_path)
    [tripped] = runner.run([job("SP-WT-CL", 3, "mt-naive",
                                monomial_budget=50)])
    assert tripped["status"] == "TO"
    [verified] = runner.run([job("SP-WT-CL", 3, "mt-naive")])
    assert runner.last_executed == 1           # distinct key: no stale hit
    assert verified["status"] == "ok"
    [replayed] = runner.run([job("SP-WT-CL", 3, "mt-naive",
                                 monomial_budget=50)])
    assert runner.last_cache_hits == 1
    assert replayed == tripped


@needs_fork
def test_job_task_timeout_is_enforced_per_job(monkeypatch):
    real_run_request = runner_module.run_request

    def sleeping_run_request(request):
        if request.architecture == "SP-WT-CL":
            time.sleep(60)
        return real_run_request(request)

    monkeypatch.setattr(runner_module, "run_request", sleeping_run_request)
    jobs = [job("SP-WT-CL", task_timeout_s=1.0), job("SP-AR-RC")]
    start = time.monotonic()
    rows = ParallelRunner(workers=2).run(jobs)
    assert time.monotonic() - start < 30
    assert rows[0]["status"] == "TO"
    assert rows[0]["time_s"] == 1.0
    assert rows[1]["status"] == "ok"
