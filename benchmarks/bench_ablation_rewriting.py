"""Ablation — the two passes of logic-reduction rewriting (Section IV-B).

The paper argues that XOR rewriting alone "makes the verification
inefficient" and that the common-rewriting pass is needed to re-enable the
cancellation of shared sub-terms.  This benchmark compares, per architecture:

* ``mt-fo``   — fanout rewriting only (no vanishing rule),
* ``mt-xor``  — XOR rewriting with the vanishing rule, no common rewriting,
* ``mt-lr``   — the full scheme,

and additionally measures the effect of restricting the vanishing rule to
the literal XOR-AND pattern of the paper (``xor_and_only``).
"""

from __future__ import annotations

import time

import pytest

from _harness import bench_config, record_row, run_cell
from repro.errors import BlowUpError
from repro.generators.multipliers import generate_multiplier
from repro.verification.engine import verify_multiplier

CONFIG = bench_config()
WIDTH = max(CONFIG.widths)
ARCHITECTURES = ("SP-CT-BK", "BP-WT-CL", "SP-RT-KS")
METHODS = ("mt-fo", "mt-xor", "mt-lr")
PEAKS: dict[tuple[str, str], int | None] = {}


@pytest.mark.parametrize("architecture", ARCHITECTURES)
@pytest.mark.parametrize("method", METHODS)
def test_rewriting_ablation(benchmark, method, architecture):
    row = benchmark.pedantic(
        run_cell, args=(architecture, WIDTH, method, CONFIG),
        rounds=1, iterations=1)
    PEAKS[(architecture, method)] = row.get("peak_remainder")
    record_row("Rewriting ablation (Section IV-B)", {
        "benchmark": architecture, "bits": f"{WIDTH}/{2 * WIDTH}",
        "method": method, "time": row["time"],
        "peak remainder": row.get("peak_remainder", "-"),
    })
    if method == "mt-lr":
        assert row["status"] == "ok" and row["verified"] is True
    else:
        assert row["status"] in ("ok", "TO")


def test_full_scheme_never_does_worse_than_partial_schemes():
    if len(PEAKS) < len(ARCHITECTURES) * len(METHODS):
        pytest.skip("ablation rows not collected (benchmark-only filtering)")
    for architecture in ARCHITECTURES:
        full = PEAKS[(architecture, "mt-lr")]
        assert full is not None, "the full scheme must not time out"


def _verify_with_rule_mode(architecture: str, xor_and_only: bool) -> dict:
    netlist = generate_multiplier(architecture, WIDTH)
    start = time.perf_counter()
    try:
        result = verify_multiplier(netlist, method="mt-lr",
                                   budgets=CONFIG.budgets,
                                   xor_and_only=xor_and_only,
                                   find_counterexample=False)
        return {"status": "ok" if result.verified else "mismatch",
                "cvm": result.cancelled_vanishing_monomials,
                "time_s": time.perf_counter() - start}
    except BlowUpError:
        return {"status": "TO", "cvm": None,
                "time_s": time.perf_counter() - start}


@pytest.mark.parametrize("xor_and_only", (False, True),
                         ids=("generalised-rule", "paper-rule-only"))
def test_vanishing_rule_variants(benchmark, xor_and_only):
    """Ablation of the implied-literal generalisation vs. the literal XOR-AND rule."""
    row = benchmark.pedantic(_verify_with_rule_mode,
                             args=("SP-CT-BK", xor_and_only),
                             rounds=1, iterations=1)
    record_row("Vanishing-rule ablation", {
        "benchmark": "SP-CT-BK", "bits": f"{WIDTH}/{2 * WIDTH}",
        "rule": "XOR-AND only" if xor_and_only else "implied literals",
        "status": row["status"], "#CVM": row["cvm"],
    })
    assert row["status"] in ("ok", "TO")
