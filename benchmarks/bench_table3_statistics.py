"""Table III — statistics of the MT-LR algorithm.

For each architecture the paper reports the number of vanishing monomials
cancelled by the XOR-AND rule (#CVM), the run-time of the GB reduction after
logic-reduction rewriting, and the size of the rewritten model (#P, #M, #MP,
#VM).  The benchmark regenerates those columns at the configured widths and
checks the qualitative claims of the paper's discussion:

* designs with carry look-ahead / Kogge-Stone final adders have the largest
  number of vanishing monomials,
* the GB reduction accounts for only part of the total run-time (most is
  spent in rewriting at small widths the split is less extreme, so the check
  is on the reduction being bounded by the total).
"""

from __future__ import annotations

import pytest

from _harness import bench_config, record_row, run_cell
from repro.generators.catalog import TABLE3_ARCHITECTURES

CONFIG = bench_config()
WIDTH = max(CONFIG.widths)
ROWS: dict[str, dict] = {}


@pytest.mark.parametrize("architecture", TABLE3_ARCHITECTURES)
def test_table3_statistics(benchmark, architecture):
    row = benchmark.pedantic(
        run_cell, args=(architecture, WIDTH, "mt-lr", CONFIG),
        rounds=1, iterations=1)
    assert row["status"] == "ok"
    ROWS[architecture] = row
    record_row("Table III (MT-LR statistics)", {
        "benchmark": architecture,
        "bits": f"{WIDTH}/{2 * WIDTH}",
        "#CVM": row["cancelled_vanishing_monomials"],
        "GB reduction": f"{row['reduction_time_s']:.2f}s",
        "#P": row["num_polynomials"],
        "#M": row["num_monomials"],
        "#MP": row["max_polynomial_terms"],
        "#VM": row["max_monomial_variables"],
    })
    assert row["cancelled_vanishing_monomials"] > 0
    assert row["num_polynomials"] > 0
    assert row["max_monomial_variables"] >= 2
    assert row["reduction_time_s"] <= row["time_s"]


def test_table3_prefix_adders_cancel_the_most_vanishing_monomials():
    """Paper: CL/KS-based designs show the largest #CVM values."""
    if len(ROWS) < len(TABLE3_ARCHITECTURES):
        pytest.skip("statistics rows not collected (benchmark-only filtering)")
    kogge_stone = ROWS["BP-RT-KS"]["cancelled_vanishing_monomials"]
    brent_kung = ROWS["SP-CT-BK"]["cancelled_vanishing_monomials"]
    assert kogge_stone > brent_kung
