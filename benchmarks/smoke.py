#!/usr/bin/env python
"""CI benchmark smoke run: trimmed 4-bit Table I rows with a regression gate.

Runs the Table I architectures at 4 bits with MT-LR and MT-FO as one
:meth:`~repro.api.service.VerificationService.run_grid` batch, writes the rows (with
timings and the deterministic model counters) to a ``BENCH_*.json`` file,
and — when a committed baseline exists — fails on:

* any verdict change versus the baseline,
* any change in the deterministic counters (substitution counts, peak
  remainder sizes, #CVM), or
* a wall-clock regression of more than ``--tolerance`` (default 20%).

Raw CI runner speeds vary between machines, so the time gate is
*calibrated*: the script times a fixed reference workload, stores it in the
result file, and scales the baseline timings by the ratio of the two
calibrations before applying the tolerance.

Usage::

    PYTHONPATH=src python benchmarks/smoke.py \
        --output BENCH_smoke.json \
        --baseline benchmarks/baselines/BENCH_smoke_baseline.json

    # refresh the committed baseline after an intentional perf change
    PYTHONPATH=src python benchmarks/smoke.py \
        --output benchmarks/baselines/BENCH_smoke_baseline.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

from repro.api.request import VerificationRequest
from repro.api.service import VerificationService
from repro.experiments.runner import ExperimentConfig
from repro.generators.catalog import TABLE1_ARCHITECTURES

#: Deterministic per-row counters that must not change without review.
COUNTER_KEYS = (
    "cancelled_vanishing_monomials",
    "num_polynomials",
    "num_monomials",
    "max_polynomial_terms",
    "max_monomial_variables",
    "peak_remainder",
)

SMOKE_WIDTH = 4
SMOKE_METHODS = ("mt-lr", "mt-fo")


def _calibrate(config: ExperimentConfig, repeats: int = 5) -> float:
    """Time a fixed reference workload (seconds, best of ``repeats``)."""
    service = VerificationService()
    request = VerificationRequest.from_architecture(
        "SP-AR-RC", SMOKE_WIDTH, "mt-lr", budgets=config.budgets,
        find_counterexample=False)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        service.submit(request)
        best = min(best, time.perf_counter() - start)
    return best


def _vanishing_microbench(repeats: int = 7) -> dict:
    """Micro-benchmark of ``VanishingRules.is_vanishing_mask`` itself.

    The implied-literal rule is the dominant per-monomial cost of 16-bit
    MT-LR rewriting, so the regression gate covers it directly: a
    deterministic sample of monomials (pairwise products of the 8-bit
    SP-DT-HC model's tail monomials) is classified on a cold cache, best of
    ``repeats``.  The per-sample verdict counts are returned alongside the
    timing so a semantic change to the rule fails the gate even on a fast
    machine.
    """
    from repro.generators.multipliers import generate_multiplier
    from repro.modeling.model import AlgebraicModel
    from repro.verification.vanishing import VanishingRules

    model = AlgebraicModel.from_netlist(generate_multiplier("SP-DT-HC", 8))
    masks = sorted({mask for tail in model.tails.values()
                    for mask in tail.masks() if mask})
    sample = [first | second
              for index, first in enumerate(masks[:256])
              for second in masks[index + 1:index + 9]]
    best = float("inf")
    vanishing_count = 0
    for _ in range(repeats):
        rules = VanishingRules(model)
        is_vanishing_mask = rules.is_vanishing_mask
        start = time.perf_counter()
        vanishing_count = sum(1 for mask in sample if is_vanishing_mask(mask))
        best = min(best, time.perf_counter() - start)
    return {"seconds": best, "samples": len(sample),
            "vanishing": vanishing_count}


def run_smoke(jobs: int, widths: tuple[int, ...] = (SMOKE_WIDTH,),
              task_timeout_s: float | None = None) -> dict:
    """Execute the benchmark grid and return the result document.

    The default single 4-bit width is the CI smoke gate; the scheduled wide
    run passes ``widths=(8, 16)`` to produce the ``BENCH_wide`` trend
    artifact (no committed baseline, so no gate).  ``task_timeout_s`` is
    the runner's hard per-job wall-clock limit — unlike the in-process
    ``REPRO_BENCH_TIMEOUT`` budget it preempts a job wedged inside one
    giant substitution step by killing the worker.
    """
    config = ExperimentConfig.from_environment()
    config.widths = tuple(widths)
    calibration_s = _calibrate(config)
    vanishing_bench = _vanishing_microbench()
    # No cache directory: the whole point of the benchmark is to time
    # fresh runs, and a REPRO_BENCH_CACHE exported for table work must not
    # leak stale timings into the baseline or the regression gate.
    service = VerificationService(jobs=jobs)
    budgets = config.budgets.replace(task_timeout_s=task_timeout_s)
    start = time.perf_counter()
    rows = [report.to_row() for report in service.run_grid(
        TABLE1_ARCHITECTURES, config.widths, SMOKE_METHODS, budgets)]
    total_s = time.perf_counter() - start
    # Summed per-row time is independent of the worker count, so the gate
    # compares like with like even when baseline and CI use different --jobs.
    work_s = sum(row["time_s"] for row in rows if row.get("time_s"))
    return {
        "meta": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "jobs": jobs,
            "widths": list(config.widths),
            "methods": list(SMOKE_METHODS),
            "calibration_s": calibration_s,
        },
        "total_s": total_s,
        "work_s": work_s,
        "vanishing_bench": vanishing_bench,
        "rows": rows,
    }


def _row_key(row: dict) -> str:
    return f"{row['architecture']}-{row['width']}-{row['method']}"


def compare_to_baseline(result: dict, baseline: dict,
                        tolerance: float) -> list[str]:
    """Return a list of failure messages (empty = gate passed)."""
    failures: list[str] = []
    baseline_rows = {_row_key(row): row for row in baseline["rows"]}
    result_keys = {_row_key(row) for row in result["rows"]}
    for key in baseline_rows:
        if key not in result_keys:
            failures.append(f"{key}: present in baseline but missing from "
                            "this run (grid coverage shrank)")
    for row in result["rows"]:
        key = _row_key(row)
        expected = baseline_rows.get(key)
        if expected is None:
            continue  # new grid cell: informational only
        if row["verified"] != expected["verified"]:
            failures.append(
                f"{key}: verdict changed "
                f"{expected['verified']!r} -> {row['verified']!r}")
        for counter in COUNTER_KEYS:
            if counter in expected and row.get(counter) != expected[counter]:
                failures.append(
                    f"{key}: {counter} changed "
                    f"{expected[counter]!r} -> {row.get(counter)!r}")
    if result["meta"]["jobs"] != baseline["meta"].get("jobs"):
        # Worker counts change both wall-clock and (under core
        # oversubscription) per-row times, so cross-jobs timing comparisons
        # are meaningless; verdicts and counters above are still gated.
        print(f"note: jobs mismatch (run {result['meta']['jobs']} vs "
              f"baseline {baseline['meta'].get('jobs')}); time gate skipped",
              file=sys.stderr)
        return failures
    calibration = result["meta"]["calibration_s"]
    baseline_calibration = baseline["meta"].get("calibration_s")
    scale = (calibration / baseline_calibration
             if baseline_calibration else 1.0)
    # Gate on the summed per-row time (wall-clock-scheduling independent),
    # falling back to the total for baselines predating ``work_s``.
    metric = "work_s" if "work_s" in baseline else "total_s"
    budget = baseline[metric] * scale * (1.0 + tolerance)
    if result[metric] > budget:
        failures.append(
            f"{metric} {result[metric]:.3f}s exceeds budget "
            f"{budget:.3f}s (baseline {baseline[metric]:.3f}s x "
            f"machine-speed scale {scale:.2f} x tolerance "
            f"{1.0 + tolerance:.2f})")
    base_bench = baseline.get("vanishing_bench")
    bench = result.get("vanishing_bench")
    if base_bench and bench:
        for counter in ("samples", "vanishing"):
            if bench.get(counter) != base_bench.get(counter):
                failures.append(
                    f"vanishing_bench {counter} changed "
                    f"{base_bench.get(counter)!r} -> {bench.get(counter)!r}")
        # A ~2 ms micro-benchmark is noisier than the multi-row aggregate,
        # so it gets twice the relative headroom.
        bench_budget = base_bench["seconds"] * scale * (1.0 + 2 * tolerance)
        if bench["seconds"] > bench_budget:
            failures.append(
                f"vanishing_bench {bench['seconds'] * 1000:.2f}ms exceeds "
                f"budget {bench_budget * 1000:.2f}ms (baseline "
                f"{base_bench['seconds'] * 1000:.2f}ms x scale {scale:.2f} "
                f"x tolerance {1.0 + tolerance:.2f})")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", "-o", default="BENCH_smoke.json")
    parser.add_argument("--baseline", default=None,
                        help="baseline JSON to gate against (skipped when "
                             "the file does not exist)")
    parser.add_argument("--jobs", "-j", type=int,
                        default=int(os.environ.get("REPRO_BENCH_JOBS", "1")))
    parser.add_argument("--tolerance", type=float,
                        default=float(os.environ.get(
                            "REPRO_SMOKE_TOLERANCE", "0.20")),
                        help="allowed relative time regression (default 0.20)")
    parser.add_argument("--widths", default=os.environ.get(
                            "REPRO_BENCH_BITS", str(SMOKE_WIDTH)),
                        help="comma-separated operand widths "
                             f"(default {SMOKE_WIDTH}; the scheduled wide "
                             "run uses 8,16)")
    parser.add_argument("--allow-timeouts", action="store_true",
                        help="report TO rows as data instead of failures "
                             "(the wide trend run: MT-FO legitimately blows "
                             "up at 16 bits, as in the paper's tables)")
    parser.add_argument("--task-timeout", type=float, default=None,
                        help="hard per-job wall-clock limit in seconds, "
                             "enforced by killing the worker (needed for "
                             "wide runs where a blow-up can wedge a job "
                             "inside one substitution step)")
    args = parser.parse_args(argv)

    widths = tuple(int(w) for w in str(args.widths).split(",") if w.strip())
    result = run_smoke(args.jobs, widths=widths or (SMOKE_WIDTH,),
                       task_timeout_s=args.task_timeout)
    output = Path(args.output)
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(result, indent=2, default=str) + "\n",
                      encoding="utf-8")
    print(f"wrote {output} (total {result['total_s']:.3f}s, "
          f"calibration {result['meta']['calibration_s'] * 1000:.1f}ms)")

    bad = [row for row in result["rows"] if row["verified"] is not True]
    if args.allow_timeouts:
        bad = [row for row in bad if row["status"] != "TO"]
    for row in bad:
        print(f"FAIL {_row_key(row)}: status={row['status']} "
              f"reason={row.get('reason', '-')}", file=sys.stderr)
    if bad:
        return 1

    if args.baseline and Path(args.baseline).exists():
        baseline = json.loads(Path(args.baseline).read_text(encoding="utf-8"))
        failures = compare_to_baseline(result, baseline, args.tolerance)
        for failure in failures:
            print(f"REGRESSION {failure}", file=sys.stderr)
        if failures:
            return 1
        print(f"baseline gate passed ({args.baseline})")
    elif args.baseline:
        print(f"baseline {args.baseline} not found; gate skipped")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
