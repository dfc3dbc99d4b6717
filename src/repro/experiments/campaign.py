"""Mutation campaigns: the fault-injection sweep as a first-class workload.

A campaign enumerates every single-gate mutation
(:func:`repro.circuit.mutate.list_mutations`) over an architecture×width
grid, verifies each mutant from scratch, and emits one JSON-lines row per
mutant.  Every refuted row carries the service's automatic SAT-miter
cross-check (``cross_check``); the summary counts the refutations it
decided and those it contradicted.

A grid cell's netlist and mutation list are built once for all its
pending mutants, which run as in-memory netlist requests through
:meth:`~repro.api.service.VerificationService.iter_batch`, with worker
processes leased from one pool the campaign owns, so a run that raises
becomes an ``error`` row rather than aborting the campaign.  The result
cache cannot key netlist requests
(:func:`~repro.api.service.request_cache_key`).  Rows are appended and
flushed one by one, so an interrupted campaign resumes (``resume=True``)
executing only the unfinished mutants.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

from repro.api.request import Budgets, VerificationRequest
from repro.api.service import VerificationService
from repro.experiments.runner import WorkerPool


@dataclass(frozen=True)
class CampaignTask:
    """One campaign cell: a mutant (or the unmutated baseline) to verify."""

    architecture: str
    width: int
    #: Index into ``list_mutations`` order; ``-1`` is the baseline circuit.
    index: int
    #: Stable row id (``<arch>-w<width>-<mutation key>`` / ``...-baseline``).
    id: str


def enumerate_tasks(architectures: Sequence[str], widths: Sequence[int],
                    sample: int | None = None, seed: int = 0,
                    limit: int | None = None) -> list[CampaignTask]:
    """The campaign task list: baseline + mutants per grid cell.

    ``sample`` caps the mutants *per cell* via a seeded draw (kept in
    ``list_mutations`` order), so the same (architectures, widths, sample,
    seed) always yields the same task list — resume files depend on that.
    """
    from repro.circuit.mutate import list_mutations
    from repro.generators.multipliers import generate_multiplier

    tasks: list[CampaignTask] = []
    for architecture in architectures:
        for width in widths:
            netlist = generate_multiplier(architecture, width)
            cell = f"{architecture}-w{width}"
            tasks.append(CampaignTask(architecture, width, -1,
                                      f"{cell}-baseline"))
            mutants = [
                CampaignTask(architecture, width, index,
                             f"{cell}-{mutation.key}")
                for index, mutation in enumerate(list_mutations(netlist))]
            if sample is not None and sample < len(mutants):
                rng = random.Random(f"campaign:{seed}:{cell}")
                mutants = sorted(rng.sample(mutants, sample),
                                 key=lambda task: task.index)
            tasks.extend(mutants)
    if limit is not None:
        tasks = tasks[:limit]
    return tasks


#: Mutants one ``iter_batch`` call holds in memory at most: each is a copy
#: of its cell's netlist, about 55 KB at 16 bits, where SP-AR-RC alone has
#: 4,610 mutants.
MAX_BATCH = 256


def _batches(tasks: Sequence[CampaignTask], method: str, budgets: Budgets):
    """``(tasks, mutations, requests)`` per batch of at most
    :data:`MAX_BATCH` tasks of one cell, whose netlist and mutation list
    are built once for all its tasks (a ``None`` mutation is the
    baseline)."""
    from repro.circuit.mutate import apply_mutation, list_mutations
    from repro.generators.multipliers import generate_multiplier

    for (architecture, width), cell in itertools.groupby(
            tasks, key=lambda task: (task.architecture, task.width)):
        netlist = generate_multiplier(architecture, width)
        catalog = list_mutations(netlist)
        cell = list(cell)
        for start in range(0, len(cell), MAX_BATCH):
            batch = cell[start:start + MAX_BATCH]
            mutations = [catalog[task.index] if task.index >= 0 else None
                         for task in batch]
            yield batch, mutations, [VerificationRequest.from_netlist(
                netlist if mutation is None
                else apply_mutation(netlist, mutation),
                method=method, budgets=budgets, find_counterexample=False)
                for mutation in mutations]


def _row(task: CampaignTask, mutation, report) -> dict:
    """A campaign cell's JSONL row."""
    row = {
        "id": task.id,
        "architecture": task.architecture,
        "width": task.width,
        "mutation": mutation.describe() if mutation is not None else None,
        "verdict": report.verdict,
        "status": report.status,
        "time_s": report.time_s,
    }
    if report.cross_check is not None:
        row["cross_check"] = report.cross_check
    return row


def _finished_ids(out_path: Path) -> set[str]:
    """Row ids already present in a (possibly torn) campaign output file."""
    finished: set[str] = set()
    try:
        lines = out_path.read_text(encoding="utf-8").splitlines()
    except OSError:
        return finished
    for line in lines:
        try:
            row = json.loads(line)
            finished.add(row["id"])
        except (ValueError, KeyError, TypeError):
            continue  # torn trailing line of an interrupted run
    return finished


def run_campaign(architectures: Sequence[str], widths: Sequence[int],
                 method: str = "mt-lr", *,
                 budgets: Budgets | None = None,
                 out_path: str | Path | None = None,
                 resume: bool = False,
                 sample: int | None = None,
                 seed: int = 0,
                 limit: int | None = None,
                 jobs: int = 1,
                 on_row: Callable[[dict], None] | None = None) -> dict:
    """Run a mutation campaign and return its summary.

    One JSONL row per task is appended to ``out_path`` (when given) as it
    completes; with ``resume=True`` tasks whose id already appears there
    are skipped.  ``cross_checked`` counts the rows whose SAT cross-check
    reached a decision and ``cross_check_disagreements`` those where it
    contradicted the refutation.  With ``jobs > 1`` the tasks fan across
    worker processes; rows still arrive in task order.
    """
    if budgets is None:
        budgets = Budgets()
    tasks = enumerate_tasks(architectures, widths, sample=sample, seed=seed,
                            limit=limit)
    skipped = 0
    if resume and out_path is not None:
        finished = _finished_ids(Path(out_path))
        pending = [task for task in tasks if task.id not in finished]
        skipped = len(tasks) - len(pending)
        tasks = pending

    verdicts: dict[str, int] = {}
    cross_checked = disagreements = 0
    out_file = None
    if out_path is not None:
        Path(out_path).parent.mkdir(parents=True, exist_ok=True)
        out_file = open(out_path, "a", encoding="utf-8")
        if out_file.tell():
            # An interrupted run can leave a torn trailing line with no
            # newline; appending straight after it would swallow the next
            # row.  Start on a fresh line instead.
            with open(out_path, "rb") as tail:
                tail.seek(-1, os.SEEK_END)
                if tail.read(1) != b"\n":
                    out_file.write("\n")

    def consume(row: dict) -> None:
        nonlocal cross_checked, disagreements
        verdicts[row["verdict"]] = verdicts.get(row["verdict"], 0) + 1
        agrees = (row.get("cross_check") or {}).get("agrees")
        if agrees is not None:
            cross_checked += 1
            if not agrees:
                disagreements += 1
        if out_file is not None:
            out_file.write(json.dumps(row, separators=(",", ":")) + "\n")
            out_file.flush()
        if on_row is not None:
            on_row(row)

    pool = WorkerPool(max_idle=jobs)
    service = VerificationService(jobs=jobs, pool=pool)
    try:
        for batch, mutations, requests in _batches(tasks, method, budgets):
            with contextlib.closing(service.iter_batch(requests)) as reports:
                for report, task, mutation in zip(reports, batch, mutations):
                    consume(_row(task, mutation, report))
    finally:
        pool.close()
        if out_file is not None:
            out_file.close()

    return {
        "method": method,
        "seed": seed,
        "tasks": len(tasks) + skipped,
        "executed": len(tasks),
        "skipped": skipped,
        "verdicts": verdicts,
        "cross_checked": cross_checked,
        "cross_check_disagreements": disagreements,
        "out": str(out_path) if out_path is not None else None,
    }
