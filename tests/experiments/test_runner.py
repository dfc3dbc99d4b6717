"""Tests for the experiment runners (table-row generation)."""

import pytest

from repro.api.request import Budgets, VerificationRequest
from repro.experiments.runner import ExperimentConfig, run_request


@pytest.fixture
def small_budgets():
    return Budgets(time_budget_s=30.0, monomial_budget=200_000,
                   sat_conflict_budget=50_000, bdd_node_budget=200_000)


def _row(architecture, width, method, budgets):
    return run_request(VerificationRequest.from_architecture(
        architecture, width, method, budgets=budgets,
        find_counterexample=False))


def test_config_from_environment(monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_BITS", "4,8,16")
    monkeypatch.setenv("REPRO_BENCH_TIMEOUT", "12.5")
    monkeypatch.setenv("REPRO_BENCH_MONOMIAL_BUDGET", "4321")
    monkeypatch.setenv("REPRO_BENCH_SAT_CONFLICTS", "777")
    monkeypatch.setenv("REPRO_BENCH_BDD_NODES", "999")
    config = ExperimentConfig.from_environment()
    assert config.widths == (4, 8, 16)
    assert config.budgets == Budgets(time_budget_s=12.5, monomial_budget=4321,
                                     sat_conflict_budget=777,
                                     bdd_node_budget=999)


def test_config_defaults(monkeypatch):
    for variable in ("BITS", "TIMEOUT", "MONOMIAL_BUDGET", "SAT_CONFLICTS",
                     "BDD_NODES", "JOBS", "CACHE"):
        monkeypatch.delenv(f"REPRO_BENCH_{variable}", raising=False)
    config = ExperimentConfig.from_environment()
    assert config == ExperimentConfig()
    assert config.widths == (4, 8)
    assert config.budgets == Budgets(time_budget_s=60.0,
                                     monomial_budget=2_000_000,
                                     sat_conflict_budget=200_000,
                                     bdd_node_budget=1_000_000)
    assert (config.jobs, config.cache_dir) == (1, None)
    assert len(ExperimentConfig.__dataclass_fields__) == 4


def test_membership_testing_row_for_mt_lr(small_budgets):
    row = _row("SP-WT-CL", 3, "mt-lr", small_budgets)
    assert row["status"] == "ok"
    assert row["verified"] is True
    assert row["time"] != "TO"
    assert row["num_polynomials"] > 0
    assert row["cancelled_vanishing_monomials"] > 0


def test_membership_testing_row_reports_timeout():
    row = _row("BP-RT-KS", 6, "mt-fo",
               Budgets(time_budget_s=2.0, monomial_budget=500))
    assert row["status"] == "TO"
    assert row["time"] == "TO"
    assert row["verified"] is None


def test_sat_cec_rows(small_budgets):
    row = _row("SP-WT-CL", 3, "sat-cec", small_budgets)
    assert row["status"] == "ok"
    assert row["conflicts"] >= 0


def test_bdd_cec_row(small_budgets):
    row = _row("SP-AR-RC", 3, "bdd-cec", small_budgets)
    assert row["status"] == "ok"
    assert row["bdd_nodes"] > 0
