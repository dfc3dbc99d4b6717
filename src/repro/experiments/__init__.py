"""Experiment harness regenerating the paper's evaluation tables.

Every table cell is a :class:`~repro.api.request.VerificationRequest` run
through :class:`~repro.api.service.VerificationService`; whole table grids
are fanned across worker processes by :class:`ParallelRunner`, which
isolates crashes and hard timeouts per circuit and returns rows in
deterministic job order.  :class:`ExperimentConfig` reads the table
widths, budgets and batch settings from the ``REPRO_BENCH_*`` environment
variables.  The CLI exposes the parallel path as ``repro-verify batch
--jobs N`` and ``repro-verify table <name> --jobs N``; the benchmark
harness picks the worker count up from ``REPRO_BENCH_JOBS``.
"""

from repro.experiments.runner import (
    ExperimentConfig,
    ParallelRunner,
    run_request,
)
from repro.experiments.tables import (
    format_table,
    table1_rows,
    table2_rows,
    table3_rows,
    adder_blowup_rows,
    ablation_rows,
)

__all__ = [
    "ExperimentConfig",
    "ParallelRunner",
    "ablation_rows",
    "adder_blowup_rows",
    "format_table",
    "run_request",
    "table1_rows",
    "table2_rows",
    "table3_rows",
]
