"""Table I — verification of simple-partial-product multipliers.

Paper columns: Commercial, CPP [13], MT-FO [7], MT-LR.
Reproduction columns: SAT-miter CEC and BDD CEC (conventional-equivalence
stand-ins, see DESIGN.md §3), MT-FO and MT-LR, at the widths configured via
``REPRO_BENCH_BITS`` (default 4 and 8 bit operands).

Expected shape (matching the paper): MT-LR verifies every architecture;
MT-FO only survives the array/ripple-carry design; the conventional checkers
degrade quickly with the operand width.
"""

from __future__ import annotations

import pytest

from _harness import bench_config, record_row, run_cell
from repro.generators.catalog import TABLE1_ARCHITECTURES

CONFIG = bench_config()
GRID = [(arch, width) for width in CONFIG.widths for arch in TABLE1_ARCHITECTURES]


def _ids(grid):
    return [f"{arch}-{width}x{width}" for arch, width in grid]


@pytest.mark.parametrize("architecture,width", GRID, ids=_ids(GRID))
def test_table1_mt_lr(benchmark, architecture, width):
    """MT-LR column of Table I (must verify every architecture)."""
    row = benchmark.pedantic(
        run_cell, args=(architecture, width, "mt-lr", CONFIG),
        rounds=1, iterations=1)
    record_row("Table I (MT-LR)", {
        "benchmark": architecture, "bits": f"{width}/{2 * width}",
        "time": row["time"], "#CVM": row.get("cancelled_vanishing_monomials", "-")})
    assert row["status"] == "ok" and row["verified"] is True


@pytest.mark.parametrize("architecture,width", GRID, ids=_ids(GRID))
def test_table1_mt_fo(benchmark, architecture, width):
    """MT-FO column of Table I (expected to time out on parallel designs)."""
    row = benchmark.pedantic(
        run_cell, args=(architecture, width, "mt-fo", CONFIG),
        rounds=1, iterations=1)
    record_row("Table I (MT-FO)", {
        "benchmark": architecture, "bits": f"{width}/{2 * width}",
        "time": row["time"]})
    assert row["status"] in ("ok", "TO")
    if row["status"] == "ok":
        assert row["verified"] is True


@pytest.mark.parametrize("architecture,width",
                         [(a, w) for a, w in GRID if w <= min(CONFIG.widths)],
                         ids=_ids([(a, w) for a, w in GRID
                                   if w <= min(CONFIG.widths)]))
def test_table1_sat_cec(benchmark, architecture, width):
    """Conventional-CEC stand-in column (commercial / ABC cec)."""
    row = benchmark.pedantic(run_cell,
                             args=(architecture, width, "sat-cec", CONFIG),
                             rounds=1, iterations=1)
    record_row("Table I (SAT CEC)", {
        "benchmark": architecture, "bits": f"{width}/{2 * width}",
        "time": row["time"], "conflicts": row.get("conflicts", "-")})
    assert row["status"] in ("ok", "TO")


@pytest.mark.parametrize("architecture,width",
                         [(a, w) for a, w in GRID if w <= min(CONFIG.widths)],
                         ids=_ids([(a, w) for a, w in GRID
                                   if w <= min(CONFIG.widths)]))
def test_table1_bdd_cec(benchmark, architecture, width):
    """Decision-diagram baseline (the blow-up cited in the introduction)."""
    row = benchmark.pedantic(run_cell,
                             args=(architecture, width, "bdd-cec", CONFIG),
                             rounds=1, iterations=1)
    record_row("Table I (BDD CEC)", {
        "benchmark": architecture, "bits": f"{width}/{2 * width}",
        "time": row["time"], "nodes": row.get("bdd_nodes", "-")})
    assert row["status"] in ("ok", "TO")
