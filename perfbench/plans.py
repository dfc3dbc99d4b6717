"""Request plans: a pure function of (workload, seed).

Every workload draws from the fixed lists in ``cells.json`` (see
``make_cells.py``) with a ``random.Random`` seeded from the workload name
and the seed, so the same seed always yields the same requests.  The
program under test only ever sees the generated request documents.

The benchmark compares medians across seeds, so a run must not measure a
different mix of request costs for each seed.  ``wide-verify``,
``certify`` and ``mutant-refute`` are therefore made of *passes*: one pass
sends every request of the workload's fixed list once, in an order the
seed shuffles, and a run stops only between passes
(``plan["block_starts"]``).  Every run thus holds the same requests, and
its percentiles fall on the same cells whatever the seed:

* ``wide-verify``: the ten Table I/II architectures at every width of the
  stored range (10 x 10 cells);
* ``certify``: the stored certify list (100 cells);
* ``mutant-refute``: the stored mutant list (100 labelled mutants).

``batch-replay`` batches hold 12 cells answered in earlier batches and one
new cell from each quarter of the supply's cost range; a run uses the
whole supply, so its new cells do not depend on the seed either.
"""

from __future__ import annotations

import hashlib
import json
import random
from functools import lru_cache
from pathlib import Path

HERE = Path(__file__).resolve().parent

WORKLOADS = ("wide-verify", "mutant-refute", "batch-replay", "certify")

#: Passes in a plan.  A pass takes 8-20 s on a 2-vCPU Xeon at 2 GHz, so a
#: run uses one or two (see ``run.MIN_SAMPLES``); the rest let a faster
#: program still measure ``--seconds``.
PASSES = 4

#: Budgets of every ``mutant-refute`` request.  The verdict labels in
#: ``cells.json`` were recorded under them (``make_cells.py`` reads them
#: from here), so changing them means regenerating the list.
MUTANT_BUDGETS = {"monomial_budget": 20_000}
BATCH_SIZE = 16
BATCH_REPEATS = 12

#: The fixed first request of every launch; ``setup_s`` is timed to its
#: answer.  ``mutant-refute`` probes with the first refuted mutant listed.
PROBES = {
    "wide-verify": {"architecture": "SP-AR-RC", "width": 16, "method": "mt-lr",
                    "find_counterexample": False},
    "certify": {"architecture": "SP-AR-RC", "width": 4, "method": "mt-lr",
                "find_counterexample": False, "certificate": True},
    # mt-naive is never in the batch supply, so the probe's cache entry can
    # never turn a later "new" cell into a hit.
    "batch-replay": {"requests": [{"architecture": "SP-AR-RC", "width": 4,
                                   "method": "mt-naive",
                                   "find_counterexample": False}]},
}


@lru_cache(maxsize=1)
def cells() -> dict:
    """The stored cell lists (``cells.json``)."""
    return json.loads((HERE / "cells.json").read_text(encoding="utf-8"))


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _architecture_request(architecture: str, width: int, method: str = "mt-lr",
                          **extra) -> dict:
    return {"architecture": architecture, "width": width, "method": method,
            "find_counterexample": False, **extra}


def _pass_plan(workload: str, seed: int, **columns: list) -> dict:
    """``PASSES`` seeded permutations of ``requests`` (and of parallel lists)."""
    count = len(columns["requests"])
    rng = _rng(workload, seed)
    order = [index for _ in range(PASSES) for index in rng.sample(range(count), count)]
    plan = {name: [values[index] for index in order] for name, values in columns.items()}
    plan["block_starts"] = list(range(0, len(order), count))
    return plan


def wide_verify(seed: int) -> dict:
    spec = cells()["wide_verify"]
    low, high = spec["widths"]
    return _pass_plan("wide-verify", seed, requests=[
        _architecture_request(architecture, width)
        for architecture in spec["architectures"] for width in range(low, high + 1)])


def certify(seed: int) -> dict:
    return _pass_plan("certify", seed, requests=[
        _architecture_request(architecture, width, certificate=True)
        for architecture, width, _ in cells()["certify"]])


def mutant_document(text: str) -> dict:
    """The request for one mutant: mt-lr, counterexample search, ``MUTANT_BUDGETS``."""
    return {"verilog_text": text, "method": "mt-lr",
            "budgets": dict(MUTANT_BUDGETS), "find_counterexample": True}


def _mutant_request(entry: list, netlists: dict) -> dict:
    from repro.circuit.gates import GateType
    from repro.circuit.mutate import Mutation, apply_mutation
    from repro.circuit.verilog import write_verilog
    from repro.generators.multipliers import generate_multiplier

    architecture, signal, original, mutated = entry[:4]
    if architecture not in netlists:
        netlists[architecture] = generate_multiplier(architecture, 8)
    mutation = Mutation(signal, GateType(original), GateType(mutated))
    return mutant_document(write_verilog(apply_mutation(netlists[architecture], mutation)))


def mutant_refute(seed: int) -> dict:
    """Single-gate mutants of 8-bit Table I/II multipliers, as Verilog text.

    ``labels`` holds the verdict ``cells.json`` records for each request.
    """
    entries = cells()["mutants"]
    netlists: dict = {}
    return _pass_plan("mutant-refute", seed,
                      requests=[_mutant_request(entry, netlists) for entry in entries],
                      labels=[entry[4] for entry in entries])


def probe(workload: str) -> dict:
    """The request document of a workload's probe."""
    if workload == "mutant-refute":
        entry = next(entry for entry in cells()["mutants"] if entry[4] == "refuted")
        return _mutant_request(entry, {})
    return PROBES[workload]


def batch_replay(seed: int) -> dict:
    """One untimed priming batch, then batches of 12 repeats + 4 new cells."""
    rng = _rng("batch-replay", seed)
    supply = sorted(cells()["batch_supply"], key=lambda cell: (cell[3], cell[:3]))
    strata_count = BATCH_SIZE - BATCH_REPEATS
    size = len(supply) // strata_count
    strata = [supply[i * size:(i + 1) * size] for i in range(strata_count)]
    for stratum in strata:
        rng.shuffle(stratum)
    answered: list[list] = []
    priming = [stratum[k][:3] for k in range(strata_count) for stratum in strata]
    answered.extend(priming)
    batches = []
    for k in range(strata_count, size):
        new = [stratum[k][:3] for stratum in strata]
        batch = rng.sample(answered, BATCH_REPEATS) + new
        rng.shuffle(batch)
        batches.append(batch)
        answered.extend(new)

    def document(batch):
        return {"requests": [_architecture_request(*cell) for cell in batch]}

    return {"priming": document(priming),
            "requests": [document(batch) for batch in batches]}


BUILDERS = {"wide-verify": wide_verify, "mutant-refute": mutant_refute,
            "batch-replay": batch_replay, "certify": certify}


def build(workload: str, seed: int) -> dict:
    """The plan of one run: ``{"requests": [...], ...}``."""
    return BUILDERS[workload](seed)


def digest(plan: dict) -> str:
    """sha256 over the plan's canonical JSON."""
    text = json.dumps(plan, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
