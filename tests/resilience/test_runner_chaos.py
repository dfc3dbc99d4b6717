"""Chaos tests for the worker pool: crash retries, latency, parity.

Every test drives a real multi-process :class:`ParallelRunner` with a
seeded :class:`FaultPlan` active and asserts the verdict rows are
identical (modulo timing and the ``attempts`` history) to a fault-free
baseline run of the same grid.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.api.request import Budgets
from repro.api.service import VerificationService
from repro.experiments.runner import ParallelRunner
from repro.resilience.faults import Fault
from repro.resilience.policy import RetryPolicy

from .conftest import CHAOS_SEED, stable

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fault plans piggyback on inherited environment")

ARCHITECTURES = ["SP-AR-RC", "BP-WT-CL"]
CRASH_KEY = "BP-WT-CL/4/mt-lr"


def _grid():
    return VerificationService.grid(
        ARCHITECTURES, [4], ["mt-lr"],
        Budgets(time_budget_s=60.0, monomial_budget=200_000))


def _policy(**overrides):
    settings = dict(seed=CHAOS_SEED, base_delay_s=0.01, max_delay_s=0.05)
    settings.update(overrides)
    return RetryPolicy(**settings)


@needs_fork
def test_crashed_worker_is_retried_to_verdict_parity(chaos):
    baseline = ParallelRunner(workers=2).run(_grid())
    chaos(Fault("worker-crash", match=CRASH_KEY, times=1))
    runner = ParallelRunner(workers=2, retry_policy=_policy())
    rows = runner.run(_grid())

    assert stable(rows) == stable(baseline)
    assert all(row["verified"] for row in rows)
    assert runner.last_retries == 1
    [retried] = [row for row in rows if row.get("attempts")]
    assert f"{retried['architecture']}/4/{retried['method']}" == CRASH_KEY
    kinds = [entry["kind"] for entry in retried["attempts"]]
    outcomes = [entry["outcome"] for entry in retried["attempts"]]
    assert kinds == ["initial", "retry"]
    assert outcomes == ["crash", "verified"]
    assert retried["attempts"][0]["next_delay_s"] > 0


@needs_fork
def test_attempts_are_bounded_when_the_crash_is_persistent(chaos):
    chaos(Fault("worker-crash", match=CRASH_KEY, times=99))
    policy = _policy(max_attempts=2)
    runner = ParallelRunner(workers=2, retry_policy=policy)
    rows = runner.run(_grid())

    [crashed] = [row for row in rows if row["status"] == "crash"]
    assert crashed["architecture"] == "BP-WT-CL"
    assert len(crashed["attempts"]) == policy.max_attempts
    assert [e["outcome"] for e in crashed["attempts"]] == ["crash", "crash"]
    assert runner.last_retries == policy.max_attempts - 1
    # The healthy job is untouched: verified, no history.
    [healthy] = [row for row in rows if row["architecture"] == "SP-AR-RC"]
    assert healthy["verified"] and "attempts" not in healthy


@needs_fork
def test_without_a_policy_the_crash_row_surfaces_unretried(chaos):
    chaos(Fault("worker-crash", match=CRASH_KEY, times=1))
    runner = ParallelRunner(workers=2)
    rows = runner.run(_grid())
    [crashed] = [row for row in rows if row["status"] == "crash"]
    assert "attempts" not in crashed
    assert runner.last_retries == 0


@needs_fork
def test_latency_fault_is_benign_without_straggler_grace(chaos):
    baseline = ParallelRunner(workers=2).run(_grid())
    chaos(Fault("worker-latency", match=CRASH_KEY, delay_s=0.3, times=1))
    rows = ParallelRunner(workers=2,
                          retry_policy=_policy()).run(_grid())
    assert stable(rows) == stable(baseline)
    assert all("attempts" not in row for row in rows)
