#!/usr/bin/env python3
"""Sweep the paper's multiplier architectures and compare verification methods.

For every architecture of the benchmark tables this script runs MT-LR and
MT-FO (and optionally the SAT/BDD baselines) at a configurable width
through the :class:`repro.api.VerificationService` batch façade — the
persistent worker pool, result cache, and longest-expected-first
scheduling come for free — and prints a paper-style results table.

Run with::

    python examples/verify_architectures.py [width] [--baselines] [--jobs N]
"""

import sys

from repro.api import Budgets, VerificationService
from repro.api.registry import COMPARISON_METHODS, TABLE1_BASELINES
from repro.experiments.tables import format_table
from repro.generators.catalog import TABLE1_ARCHITECTURES, TABLE2_ARCHITECTURES


def main() -> None:
    width = int(sys.argv[1]) if len(sys.argv) > 1 and sys.argv[1].isdigit() else 8
    include_baselines = "--baselines" in sys.argv
    jobs = 1
    if "--jobs" in sys.argv:
        position = sys.argv.index("--jobs") + 1
        if position >= len(sys.argv) or not sys.argv[position].isdigit():
            raise SystemExit("usage: verify_architectures.py [width] "
                             "[--baselines] [--jobs N]")
        jobs = int(sys.argv[position])

    architectures = TABLE1_ARCHITECTURES + TABLE2_ARCHITECTURES
    methods = (list(TABLE1_BASELINES) if include_baselines else [])
    methods += list(COMPARISON_METHODS)
    reports = VerificationService().run_grid(
        architectures, [width], methods,
        budgets=Budgets(time_budget_s=30.0, sat_conflict_budget=30_000),
        jobs=jobs)
    grid = {(report.circuit, report.method): report for report in reports}

    rows = []
    for architecture in architectures:
        row = {"benchmark": architecture, "bits": f"{width}/{2 * width}"}
        for method in methods:
            row[method] = grid[architecture, method].time
        primary = grid[architecture, COMPARISON_METHODS[-1]]
        row["#CVM"] = primary.counters.get("cancelled_vanishing_monomials", "-")
        row["verified"] = primary.verified
        rows.append(row)
        print(f"  finished {architecture}: " +
              " ".join(f"{m}={row[m]}" for m in COMPARISON_METHODS))

    print()
    print(format_table(rows, title=f"Verification results for {width}-bit multipliers"))


if __name__ == "__main__":
    main()
