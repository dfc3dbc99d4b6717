"""Service-level resilience: fallback chains and batch verdict parity."""

from __future__ import annotations

import pytest

from repro.api.report import VerificationReport
from repro.api.request import Budgets, VerificationRequest
from repro.api.service import VerificationService
from repro.circuit.mutate import apply_mutation, list_mutations
from repro.generators.multipliers import generate_multiplier
from repro.resilience.faults import Fault
from repro.resilience.policy import FallbackPolicy, RetryPolicy

from .conftest import CHAOS_SEED, stable

#: SP-AR-RC/4 under mt-naive peaks at 88 remainder monomials, so budget 5
#: trips even after one x4 escalation (20 < 88) while budget 30 recovers
#: on it (120 >= 88).
TIGHT, RESCUABLE = 5, 30


def _request(monomial_budget: int) -> VerificationRequest:
    return VerificationRequest.from_architecture(
        "SP-AR-RC", 4, method="mt-naive",
        budgets=Budgets(monomial_budget=monomial_budget),
        find_counterexample=False)


def test_submit_degrades_through_escalation_to_sat_baseline():
    service = VerificationService(fallback_policy=FallbackPolicy())
    report = service.submit(_request(TIGHT))
    assert report.verdict == "verified"
    assert report.method == "sat-cec"
    kinds = [entry["kind"] for entry in report.attempts]
    assert kinds == ["initial", "escalate", "fallback"]
    outcomes = [entry["outcome"] for entry in report.attempts]
    assert outcomes == ["budget", "budget", "verified"]
    assert report.attempts[1]["budget_scale"] == 4.0
    assert service.last_fallbacks == 2


def test_escalation_alone_can_rescue():
    service = VerificationService(fallback_policy=FallbackPolicy())
    report = service.submit(_request(RESCUABLE))
    assert report.verdict == "verified"
    assert report.method == "mt-naive"
    assert [e["kind"] for e in report.attempts] == ["initial", "escalate"]
    assert service.last_fallbacks == 1


def test_without_a_policy_the_budget_verdict_stands():
    report = VerificationService().submit(_request(TIGHT))
    assert report.verdict == "budget"
    assert report.attempts is None


def test_degraded_report_round_trips_schema_4():
    service = VerificationService(fallback_policy=FallbackPolicy())
    report = service.submit(_request(TIGHT))
    clone = VerificationReport.from_json(report.to_json())
    assert clone.attempts == report.attempts
    assert clone.to_json() == report.to_json()


def test_refutations_are_final_not_degraded():
    """A proven mismatch must never be retried or escalated away."""
    netlist = generate_multiplier("SP-AR-RC", 4)
    buggy = apply_mutation(netlist, list_mutations(netlist)[5])
    request = VerificationRequest.from_netlist(buggy, method="mt-lr")
    service = VerificationService(
        fallback_policy=FallbackPolicy(),
        retry_policy=RetryPolicy(seed=CHAOS_SEED))
    report = service.submit(request)
    assert report.verdict == "refuted"
    assert report.attempts is None
    assert service.last_fallbacks == 0


@pytest.mark.parametrize("jobs", [2])
def test_batch_with_faults_matches_fault_free_baseline(chaos, tmp_path,
                                                       jobs):
    """Crash + cache corruption together: verdict parity with clean run.

    The scaled-down acceptance check: one worker killed mid-job, one
    cache entry garbled at publish — the batch's reports must be
    identical to a fault-free run modulo timings and the ``attempts``
    history, with the recovery visible in the counters.
    """
    architectures = ["SP-AR-RC", "BP-WT-CL", "SP-WT-CL"]
    baseline = VerificationService(jobs=jobs).run_grid(
        architectures, [4], ["mt-lr"])

    chaos(Fault("worker-crash", match="BP-WT-CL/4/mt-lr", times=1),
          Fault("cache-corrupt", match="*", times=1))
    service = VerificationService(
        jobs=jobs, cache_dir=tmp_path / "cache",
        retry_policy=RetryPolicy(seed=CHAOS_SEED, base_delay_s=0.01),
        fallback_policy=FallbackPolicy())
    reports = service.run_grid(architectures, [4], ["mt-lr"])

    assert [stable(r.to_row()) for r in reports] == \
        [stable(r.to_row()) for r in baseline]
    assert all(report.verdict == "verified" for report in reports)
    assert service.last_retries == 1
    histories = [r.attempts for r in reports if r.attempts]
    assert len(histories) == 1
    assert [e["outcome"] for e in histories[0]] == ["crash", "verified"]

    # Second pass over the same (once-corrupted) cache still agrees.
    again = VerificationService(
        jobs=jobs, cache_dir=tmp_path / "cache",
        retry_policy=RetryPolicy(seed=CHAOS_SEED, base_delay_s=0.01))
    reports = again.run_grid(architectures, [4], ["mt-lr"])
    assert [stable(r.to_row()) for r in reports] == \
        [stable(r.to_row()) for r in baseline]
    assert again.last_cache_hits + again.last_executed == len(architectures)
    assert again.last_executed >= 1, "the corrupted entry must re-execute"


@pytest.mark.parametrize("jobs", [1, 2])
def test_streamed_rungs_run_as_batch_jobs_with_run_batchs_reports(
        jobs, monkeypatch):
    """``iter_batch`` hands each fallback rung to its runner as a
    follow-up job: on the batch's workers at two jobs, inline at one.  Its
    reports equal ``run_batch``'s in-process chains, and a rung drops its
    entry's hard limit on a worker too."""
    from repro.experiments import runner as runner_module

    dispatched = []
    assign = runner_module._PoolWorker.assign

    def spy(self, index, job, task_timeout_s):
        dispatched.append(job)
        return assign(self, index, job, task_timeout_s)

    monkeypatch.setattr(runner_module._PoolWorker, "assign", spy)
    # A hard limit needs a worker, so only the two-job batch sets one.
    timeout = None if jobs == 1 else 60.0
    requests = [VerificationRequest.from_architecture(
        "SP-AR-RC", 4, method="mt-naive", find_counterexample=False,
        budgets=Budgets(monomial_budget=budget, task_timeout_s=timeout))
        for budget in (TIGHT, 2_000_000, RESCUABLE)]
    service = VerificationService(jobs=jobs,
                                  fallback_policy=FallbackPolicy())
    expected = service.run_batch(requests)
    del dispatched[:]
    reports = list(service.iter_batch(requests))
    assert [stable(report.to_dict()) for report in reports] == \
        [stable(report.to_dict()) for report in expected]
    assert [report.method for report in reports] == [
        "sat-cec", "mt-naive", "mt-naive"]
    assert service.last_fallbacks == 3
    assert service.last_executed == 3
    rungs = dispatched[3:]
    if jobs == 1:
        assert dispatched == []
    else:
        assert sorted((job.method, job.budgets.monomial_budget)
                      for job in rungs) == [
            ("mt-naive", 4 * TIGHT), ("mt-naive", 4 * RESCUABLE),
            ("sat-cec", TIGHT)]
        assert all(job.budgets.task_timeout_s is None for job in rungs)
