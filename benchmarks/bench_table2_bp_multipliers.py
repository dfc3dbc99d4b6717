"""Table II — verification of Booth-partial-product multipliers.

Paper shape: only MT-LR verifies the Booth designs once they reach relevant
sizes; the CPP approach is not applicable to Booth recoding at all (reported
as "-"), and MT-FO times out everywhere.
"""

from __future__ import annotations

import pytest

import dataclasses

from _harness import bench_config, record_row, run_cell
from repro.experiments.tables import table2_rows
from repro.generators.catalog import TABLE2_ARCHITECTURES

CONFIG = bench_config()
GRID = [(arch, width) for width in CONFIG.widths for arch in TABLE2_ARCHITECTURES]


def _ids(grid):
    return [f"{arch}-{width}x{width}" for arch, width in grid]


@pytest.mark.parametrize("architecture,width", GRID, ids=_ids(GRID))
def test_table2_mt_lr(benchmark, architecture, width):
    """MT-LR column of Table II (must verify every Booth architecture)."""
    row = benchmark.pedantic(
        run_cell, args=(architecture, width, "mt-lr", CONFIG),
        rounds=1, iterations=1)
    record_row("Table II (MT-LR)", {
        "benchmark": architecture, "bits": f"{width}/{2 * width}",
        "time": row["time"], "#CVM": row.get("cancelled_vanishing_monomials", "-")})
    assert row["status"] == "ok" and row["verified"] is True


@pytest.mark.parametrize("architecture,width", GRID, ids=_ids(GRID))
def test_table2_mt_fo(benchmark, architecture, width):
    """MT-FO column of Table II (the paper reports TO on every Booth design)."""
    row = benchmark.pedantic(
        run_cell, args=(architecture, width, "mt-fo", CONFIG),
        rounds=1, iterations=1)
    record_row("Table II (MT-FO)", {
        "benchmark": architecture, "bits": f"{width}/{2 * width}",
        "time": row["time"]})
    assert row["status"] in ("ok", "TO")


@pytest.mark.parametrize("architecture,width",
                         [(a, w) for a, w in GRID if w <= min(CONFIG.widths)],
                         ids=_ids([(a, w) for a, w in GRID
                                   if w <= min(CONFIG.widths)]))
def test_table2_cpp_standin_not_applicable(benchmark, architecture, width):
    """CPP column: not applicable to Booth partial products (reported '-')."""
    [row] = benchmark.pedantic(
        table2_rows, args=(dataclasses.replace(CONFIG, widths=(width,)),
                           (architecture,)),
        rounds=1, iterations=1)
    record_row("Table II (CPP stand-in)", {
        "benchmark": architecture, "bits": f"{width}/{2 * width}",
        "time": row["cpp"]})
    assert row["cpp"] == "-"


@pytest.mark.parametrize("architecture,width",
                         [(a, w) for a, w in GRID if w <= min(CONFIG.widths)],
                         ids=_ids([(a, w) for a, w in GRID
                                   if w <= min(CONFIG.widths)]))
def test_table2_sat_cec(benchmark, architecture, width):
    """Conventional-CEC stand-in column for the Booth designs."""
    row = benchmark.pedantic(run_cell,
                             args=(architecture, width, "sat-cec", CONFIG),
                             rounds=1, iterations=1)
    record_row("Table II (SAT CEC)", {
        "benchmark": architecture, "bits": f"{width}/{2 * width}",
        "time": row["time"], "conflicts": row.get("conflicts", "-")})
    assert row["status"] in ("ok", "TO")
