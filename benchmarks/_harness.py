"""Shared helpers of the benchmark harness (budgets, runs and row collection)."""

from __future__ import annotations

import os
from collections import defaultdict

from repro.api.request import VerificationRequest
from repro.api.service import VerificationService
from repro.experiments.runner import ExperimentConfig

#: Rows collected by the individual benchmarks, keyed by table name.
COLLECTED: dict[str, list[dict]] = defaultdict(list)


def bench_config() -> ExperimentConfig:
    """Benchmark-wide budgets (environment-overridable, see conftest docstring)."""
    config = ExperimentConfig.from_environment()
    if "REPRO_BENCH_TIMEOUT" not in os.environ:
        config.budgets = config.budgets.replace(time_budget_s=20.0)
    if "REPRO_BENCH_SAT_CONFLICTS" not in os.environ:
        config.budgets = config.budgets.replace(sat_conflict_budget=20_000)
    if "REPRO_BENCH_MONOMIAL_BUDGET" not in os.environ:
        config.budgets = config.budgets.replace(monomial_budget=400_000)
    return config


def run_cell(architecture: str, width: int, method: str,
             config: ExperimentConfig) -> dict:
    """One fresh in-process table cell through the service, as a table row."""
    return VerificationService().submit(VerificationRequest.from_architecture(
        architecture, width, method, budgets=config.budgets,
        find_counterexample=False)).to_row()


def record_row(table: str, row: dict) -> None:
    """Collect a result row and echo it immediately."""
    COLLECTED[table].append(row)
    cells = " ".join(f"{key}={value}" for key, value in row.items())
    print(f"[{table}] {cells}")
