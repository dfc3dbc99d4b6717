"""Regenerate ``cells.json``, the fixed cell lists the workloads draw from.

The benchmark never derives its inputs from the program at run time:
which cells decide today, which mutants trip the monomial budget, and
which certificates can be emitted are facts about one version of the
program.  This script measures them once and writes them down, so a later
change to the program (say, a fix to certificate emission) shows up as a
changed metric instead of silently changing a workload.

Run from the repository root (takes a few minutes)::

    PYTHONPATH=src python3 perfbench/make_cells.py > perfbench/cells.json
"""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import plans  # noqa: E402
from oracle import MultiplierOracle  # noqa: E402

from repro.api import VerificationService  # noqa: E402
from repro.api.request import Budgets, VerificationRequest  # noqa: E402
from repro.certify import check_certificate  # noqa: E402
from repro.circuit.mutate import apply_mutation, list_mutations  # noqa: E402
from repro.circuit.verilog import write_verilog  # noqa: E402
from repro.errors import ReproError  # noqa: E402
from repro.generators.catalog import (  # noqa: E402
    TABLE1_ARCHITECTURES,
    TABLE2_ARCHITECTURES,
    architecture_names,
)
from repro.generators.multipliers import generate_multiplier  # noqa: E402

TABLE_ARCHITECTURES = list(TABLE1_ARCHITECTURES + TABLE2_ARCHITECTURES)
#: ``wide-verify`` operand widths: ten architectures x ten widths is one
#: pass of 100 requests, about 12 s on a 2-vCPU Xeon at 2 GHz.
WIDE_WIDTHS = [16, 25]
#: Supply cells slower than this are left out, so batches cost alike.
SUPPLY_LIMIT_MS = 50.0
#: One untimed priming batch of 16 new cells plus 100 timed batches with 4
#: new cells each: every run uses the whole supply, so the cost of the
#: cells new to a run does not depend on the seed.
SUPPLY_SIZE = 16 + 100 * 4
SUPPLY_WIDTHS = range(3, 9)
SUPPLY_METHODS = ("mt-lr", "mt-fo", "mt-xor")
#: Cells per operand width in the certify list, the cheapest of those
#: that certify: 3 and 4 bits are checked exhaustively, 8 bits by sampling.
#: 3-bit cells cost a fifth of the others, so they stay under a third of
#: the list: the p50 then falls among the 4- and 8-bit cells, whose costs
#: overlap, not into the gap above the 3-bit ones.
CERTIFY_COUNTS = {3: 35, 4: 40, 8: 25}
#: Mutants sampled per architecture for the labelled mutant pool.
MUTANTS_PER_ARCHITECTURE = 48
#: Refutations slower than this (a SAT cross-check on a hard miter, up to
#: seconds) are left out, so a few outliers do not set a run's p90.
MUTANT_LIMIT_MS = 300.0
#: Mutants of each verdict in the mutant list, evenly spaced in cost rank
#: within the pool; a pass of 100 therefore decides exactly 70.
MUTANT_MIX = {"refuted": 60, "verified": 10, "budget": 30}


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def batch_supply(service: VerificationService) -> list[list]:
    """Small catalog cells that verify quickly: ``[arch, width, method, ms]``.

    ``SUPPLY_SIZE`` cells evenly spaced in cost rank among those that
    verify within ``SUPPLY_LIMIT_MS``.
    """
    cells = []
    budgets = Budgets(time_budget_s=2.0)
    for width in SUPPLY_WIDTHS:
        for architecture in architecture_names():
            for method in SUPPLY_METHODS:
                request = VerificationRequest.from_architecture(
                    architecture, width, method, budgets=budgets,
                    find_counterexample=False)
                start = time.perf_counter()
                report = service.submit(request)
                elapsed = (time.perf_counter() - start) * 1000
                if report.verdict == "verified" and elapsed <= SUPPLY_LIMIT_MS:
                    cells.append([architecture, width, method, round(elapsed, 1)])
                else:
                    log(f"supply: drop {architecture}-{width} {method}: "
                        f"{report.verdict} {elapsed:.0f} ms")
    return spread_by_cost(cells, SUPPLY_SIZE)


def spread_by_cost(items: list[list], count: int) -> list[list]:
    """``count`` items evenly spaced in cost rank, in their given order.

    An item's last field is its cost in ms; the fields before it name it.
    """
    ranked = sorted(items, key=lambda item: (item[-1], item[:-1]))
    chosen = {round(i * (len(ranked) - 1) / (count - 1)) for i in range(count)}
    if len(chosen) != count:
        raise SystemExit(f"only {len(ranked)} items for {count} slots")
    keep = {tuple(ranked[i][:-1]) for i in chosen}
    return [item for item in items if tuple(item[:-1]) in keep]


def certify_cells(service: VerificationService) -> list[list]:
    """The ``CERTIFY_COUNTS`` cheapest cells of each width that certify.

    Entries are ``[arch, width, ms]`` with the time of submit, handoff and
    check together.
    """
    cells = []
    for width, count in CERTIFY_COUNTS.items():
        certified = []
        for architecture in architecture_names():
            request = VerificationRequest.from_architecture(
                architecture, width, "mt-lr", find_counterexample=False,
                certificate=True)
            start = time.perf_counter()
            try:
                report = service.submit(request)
                check_certificate(json.loads(report.to_json())["certificate"])
            except ReproError as error:
                log(f"certify: drop {architecture}-{width}: {type(error).__name__}")
                continue
            elapsed = (time.perf_counter() - start) * 1000
            certified.append([architecture, width, round(elapsed, 1)])
        cheapest = {tuple(cell[:2]) for cell in
                    sorted(certified, key=lambda cell: cell[2])[:count]}
        if len(cheapest) != count:
            raise SystemExit(f"only {len(certified)} cells certify at {width} bits")
        cells += [cell for cell in certified if tuple(cell[:2]) in cheapest]
    return cells


def mutant_list(service: VerificationService) -> list[list]:
    """Labelled 8-bit mutants: ``[arch, signal, from, to, label, ms]``.

    The label is the verdict this version of the program reaches, and
    ``ms`` what reaching it took; the oracle check guards against
    recording a wrong verdict as a label.  ``MUTANT_MIX`` of a sampled
    pool are kept.
    """
    oracle = MultiplierOracle(8)
    rng = random.Random(20160314)
    pool = []
    for architecture in TABLE_ARCHITECTURES:
        netlist = generate_multiplier(architecture, 8)
        for mutation in rng.sample(list_mutations(netlist),
                                   MUTANTS_PER_ARCHITECTURE):
            text = write_verilog(apply_mutation(netlist, mutation))
            start = time.perf_counter()
            document = plans.mutant_document(text)
            report = service.submit(VerificationRequest(
                **{**document, "budgets": Budgets(**document["budgets"])}))
            elapsed = (time.perf_counter() - start) * 1000
            equivalent = oracle.mismatches(text) == 0
            check = report.cross_check or {}
            if report.verdict == "verified" and not equivalent:
                raise SystemExit(f"wrong verdict on {architecture} {mutation.key}")
            if report.verdict == "refuted":
                if equivalent:
                    raise SystemExit(f"wrong verdict on {architecture} {mutation.key}")
                if not (check.get("agrees") and check.get("counterexample_confirmed")):
                    log(f"mutants: drop {architecture} {mutation.key}: {check}")
                    continue
                if elapsed > MUTANT_LIMIT_MS:
                    log(f"mutants: drop {architecture} {mutation.key}: {elapsed:.0f} ms")
                    continue
            if report.verdict not in ("verified", "refuted", "budget"):
                log(f"mutants: drop {architecture} {mutation.key}: {report.verdict}")
                continue
            pool.append([architecture, mutation.signal, mutation.original.value,
                         mutation.mutated.value, report.verdict, round(elapsed, 1)])
        log(f"mutants: {architecture} done ({len(pool)} so far)")
    kept = set()
    for label, count in MUTANT_MIX.items():
        kept.update(tuple(entry) for entry in spread_by_cost(
            [entry for entry in pool if entry[4] == label], count))
    return [entry for entry in pool if tuple(entry) in kept]


def main() -> int:
    service = VerificationService()
    document = {
        "wide_verify": {"architectures": TABLE_ARCHITECTURES,
                        "widths": WIDE_WIDTHS},
        "certify": certify_cells(service),
        "batch_supply": batch_supply(service),
        "mutants": mutant_list(service),
    }
    lines = ["{"]
    for index, (key, value) in enumerate(document.items()):
        comma = "," if index < len(document) - 1 else ""
        if isinstance(value, list):
            rows = ",\n".join("  " + json.dumps(row) for row in value)
            lines.append(f" {json.dumps(key)}: [\n{rows}\n ]{comma}")
        else:
            lines.append(f" {json.dumps(key)}: {json.dumps(value)}{comma}")
    lines.append("}")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
