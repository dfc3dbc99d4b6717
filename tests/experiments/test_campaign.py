"""The mutation-campaign runner: enumeration, rows, resume, cross-check."""

from __future__ import annotations

import json
from pathlib import Path

from repro.api.request import Budgets
from repro.api.service import VerificationService
from repro.circuit.mutate import list_mutations
from repro.experiments import campaign
from repro.experiments.campaign import _finished_ids, enumerate_tasks, run_campaign
from repro.generators.multipliers import generate_multiplier


def test_enumerate_tasks_is_deterministic_and_stably_identified():
    tasks = enumerate_tasks(["SP-AR-RC"], [4], sample=10, seed=3)
    again = enumerate_tasks(["SP-AR-RC"], [4], sample=10, seed=3)
    assert tasks == again
    assert tasks[0].id == "SP-AR-RC-w4-baseline"
    assert tasks[0].index == -1
    assert len(tasks) == 11  # baseline + sample mutants
    ids = [task.id for task in tasks]
    assert len(ids) == len(set(ids))
    for task in tasks[1:]:
        # Stable machine-readable id derived from the mutation key.
        assert task.id.startswith("SP-AR-RC-w4-") and "->" in task.id
    # A different seed draws a different sample.
    assert enumerate_tasks(["SP-AR-RC"], [4], sample=10, seed=4) != tasks
    # limit truncates the flattened grid.
    assert enumerate_tasks(["SP-AR-RC"], [4], sample=10, seed=3,
                           limit=5) == tasks[:5]


def test_run_campaign_rows_and_summary(tmp_path):
    out = tmp_path / "campaign.jsonl"
    rows = []
    summary = run_campaign(["SP-AR-RC"], [4], sample=8, seed=1,
                           out_path=out, on_row=rows.append)
    assert summary["tasks"] == summary["executed"] == 9
    assert summary["skipped"] == 0
    assert summary["verdicts"].get("verified", 0) >= 1  # the baseline
    assert sum(summary["verdicts"].values()) == 9
    assert set(summary) == {"method", "seed", "tasks", "executed", "skipped",
                            "verdicts", "cross_checked",
                            "cross_check_disagreements", "out"}
    assert summary["out"] == str(out)

    persisted = [json.loads(line) for line in
                 out.read_text(encoding="utf-8").splitlines()]
    assert persisted == rows
    baseline = persisted[0]
    assert baseline["id"] == "SP-AR-RC-w4-baseline"
    assert baseline["mutation"] is None
    assert baseline["verdict"] == "verified"
    assert "cross_check" not in baseline
    for row in persisted:
        assert set(row) - {"cross_check"} == {
            "id", "architecture", "width", "mutation", "verdict", "status",
            "time_s"}
    for row in persisted[1:]:
        assert row["mutation"] is not None
        assert row["verdict"] in ("verified", "refuted")


def test_every_refuted_row_carries_an_agreeing_sat_cross_check(tmp_path):
    """The service's automatic SAT-miter check rides on every refutation."""
    out = tmp_path / "campaign.jsonl"
    summary = run_campaign(["SP-AR-RC", "SP-WT-CL"], [4], sample=6, seed=5,
                           out_path=out)
    rows = [json.loads(line)
            for line in out.read_text(encoding="utf-8").splitlines()]
    refuted = [row for row in rows if row["verdict"] == "refuted"]
    assert refuted, "the sample must contain at least one refutation"
    for row in refuted:
        assert row["cross_check"]["backend"] == "sat-cec"
        assert row["cross_check"]["status"] == "different"
        assert row["cross_check"]["agrees"] is True, row["id"]
    for row in rows:
        if row["verdict"] != "refuted":
            assert "cross_check" not in row
    assert summary["cross_checked"] == len(refuted)
    assert summary["cross_check_disagreements"] == 0


def test_resume_executes_only_the_unfinished_tasks(tmp_path):
    out = tmp_path / "campaign.jsonl"
    partial = run_campaign(["SP-AR-RC"], [4], sample=8, seed=1, limit=4,
                           out_path=out)
    assert partial["executed"] == 4

    # Simulate the interruption tearing the last line mid-write.
    with open(out, "a", encoding="utf-8") as handle:
        handle.write('{"id": "SP-AR-RC-w4-tor')

    resumed = run_campaign(["SP-AR-RC"], [4], sample=8, seed=1, resume=True,
                           out_path=out)
    assert resumed["skipped"] == 4
    assert resumed["executed"] == 5
    assert resumed["tasks"] == 9
    ids = [json.loads(line)["id"]
           for line in out.read_text(encoding="utf-8").splitlines()
           if not line.startswith('{"id": "SP-AR-RC-w4-tor')]
    expected = [task.id for task in
                enumerate_tasks(["SP-AR-RC"], [4], sample=8, seed=1)]
    assert ids == expected

    # A third run with resume finds nothing left to do.
    done = run_campaign(["SP-AR-RC"], [4], sample=8, seed=1, resume=True,
                        out_path=out)
    assert done["executed"] == 0
    assert done["skipped"] == 9


def test_finished_ids_tolerates_torn_and_foreign_lines(tmp_path):
    out = tmp_path / "rows.jsonl"
    out.write_text('{"id": "a", "verdict": "verified"}\n'
                   '[1, 2, 3]\n'
                   'not json at all\n'
                   '{"no_id": true}\n'
                   '{"id": "b"}\n'
                   '{"id": "c", "verdi',
                   encoding="utf-8")
    assert _finished_ids(out) == {"a", "b"}
    assert _finished_ids(Path(tmp_path / "missing.jsonl")) == set()


def test_parallel_jobs_agree_with_the_serial_run(tmp_path):
    serial = run_campaign(["SP-AR-RC"], [4], sample=6, seed=2,
                          out_path=tmp_path / "serial.jsonl")
    parallel = run_campaign(["SP-AR-RC"], [4], sample=6, seed=2, jobs=2,
                            out_path=tmp_path / "parallel.jsonl")
    assert parallel["verdicts"] == serial["verdicts"]
    assert parallel["cross_checked"] == serial["cross_checked"]

    def verdict_column(path):
        return [(json.loads(line)["id"], json.loads(line)["verdict"])
                for line in path.read_text(encoding="utf-8").splitlines()]

    assert verdict_column(tmp_path / "parallel.jsonl") == \
        verdict_column(tmp_path / "serial.jsonl")


def test_grid_is_enumerated_cell_by_cell_baseline_first():
    tasks = enumerate_tasks(["SP-AR-RC", "BP-WT-CL"], [3, 4], sample=2,
                            seed=0)
    cells = [(task.architecture, task.width) for task in tasks[::3]]
    assert cells == [("SP-AR-RC", 3), ("SP-AR-RC", 4),
                     ("BP-WT-CL", 3), ("BP-WT-CL", 4)]
    for start in range(0, len(tasks), 3):
        baseline, *mutants = tasks[start:start + 3]
        assert baseline.index == -1
        assert baseline.id == (f"{baseline.architecture}-w{baseline.width}"
                               "-baseline")
        assert [task.index for task in mutants] == \
            sorted(task.index for task in mutants)
        assert all(task.index >= 0 for task in mutants)


def test_sample_at_or_above_the_catalog_keeps_every_mutant():
    catalog = list_mutations(generate_multiplier("SP-AR-RC", 3))
    full = enumerate_tasks(["SP-AR-RC"], [3])
    assert [task.index for task in full] == [-1, *range(len(catalog))]
    assert [task.id for task in full[1:]] == \
        [f"SP-AR-RC-w3-{mutation.key}" for mutation in catalog]
    for sample in (len(catalog), len(catalog) + 5):
        assert enumerate_tasks(["SP-AR-RC"], [3], sample=sample,
                               seed=7) == full


def test_sample_zero_runs_only_the_baselines():
    summary = run_campaign(["SP-AR-RC", "SP-WT-CL"], [3], sample=0)
    assert summary["tasks"] == summary["executed"] == 2
    assert summary["verdicts"] == {"verified": 2}
    assert summary["cross_checked"] == 0


def test_campaign_without_an_output_file_reports_through_on_row():
    rows = []
    summary = run_campaign(["SP-AR-RC"], [3], sample=3, seed=4, resume=True,
                           on_row=rows.append)
    assert summary["out"] is None
    assert summary["skipped"] == 0  # nothing to resume from
    assert [row["id"] for row in rows] == \
        [task.id for task in enumerate_tasks(["SP-AR-RC"], [3], sample=3,
                                             seed=4)]


def test_method_reaches_every_mutant():
    """A SAT-miter campaign decides the same verdicts without a cross-check:
    the miter is already the independent check."""
    algebraic, sat = [], []
    run_campaign(["SP-AR-RC"], [3], sample=6, seed=0, on_row=algebraic.append)
    summary = run_campaign(["SP-AR-RC"], [3], "sat-cec", sample=6, seed=0,
                           on_row=sat.append)
    assert summary["method"] == "sat-cec"
    assert [(row["id"], row["verdict"]) for row in sat] == \
        [(row["id"], row["verdict"]) for row in algebraic]
    assert any(row["verdict"] == "refuted" for row in sat)
    assert all("cross_check" not in row for row in sat)
    assert summary["cross_checked"] == 0


def test_budgets_reach_every_mutant():
    rows = []
    summary = run_campaign(["SP-AR-RC"], [4], sample=4, seed=0,
                           budgets=Budgets(monomial_budget=10),
                           on_row=rows.append)
    assert summary["verdicts"] == {"budget": 5}
    assert all(row["status"] == "TO" for row in rows)
    assert all("cross_check" not in row for row in rows)
    assert summary["cross_checked"] == 0


def test_a_fresh_run_appends_after_a_torn_line_on_a_new_line(tmp_path):
    out = tmp_path / "campaign.jsonl"
    out.write_text('{"id": "SP-AR-RC-w3-tor', encoding="utf-8")
    summary = run_campaign(["SP-AR-RC"], [3], sample=2, seed=0, out_path=out)
    assert summary["executed"] == 3
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == '{"id": "SP-AR-RC-w3-tor'
    assert [json.loads(line)["id"] for line in lines[1:]] == \
        [task.id for task in enumerate_tasks(["SP-AR-RC"], [3], sample=2,
                                             seed=0)]


def test_a_mutant_whose_run_raises_is_an_error_row(monkeypatch):
    """The campaign runs mutants behind the runner's isolation boundary:
    a run that raises answers an ``error`` row and the campaign goes on."""
    submit = VerificationService.submit

    def failing_submit(self, request):
        if request.netlist.name.endswith("_buggy"):
            raise RuntimeError("injected failure")
        return submit(self, request)

    monkeypatch.setattr(VerificationService, "submit", failing_submit)
    rows = []
    summary = run_campaign(["SP-AR-RC"], [3], sample=2, seed=0,
                           on_row=rows.append)
    assert summary["executed"] == 3
    assert summary["verdicts"] == {"verified": 1, "error": 2}
    assert [row["status"] for row in rows] == ["ok", "error", "error"]


def test_batches_split_at_max_batch_keep_rows_order_and_resume(
        tmp_path, monkeypatch):
    """A cell split over several ``iter_batch`` calls answers the rows of
    an unsplit run, in task order, at one job and two, and resumes across
    a split."""

    def timeless(rows):
        return [{key: value for key, value in row.items() if key != "time_s"}
                for row in rows]

    grid = (["SP-AR-RC", "SP-WT-CL"], [3])
    whole: list[dict] = []
    run_campaign(*grid, sample=4, seed=5, on_row=whole.append)
    assert len(whole) == 10
    monkeypatch.setattr(campaign, "MAX_BATCH", 2)
    for jobs in (1, 2):
        split: list[dict] = []
        run_campaign(*grid, sample=4, seed=5, jobs=jobs, on_row=split.append)
        assert timeless(split) == timeless(whole)

    out = tmp_path / "campaign.jsonl"
    run_campaign(*grid, sample=4, seed=5, limit=3, out_path=out)
    resumed = run_campaign(*grid, sample=4, seed=5, jobs=2, resume=True,
                           out_path=out)
    assert (resumed["skipped"], resumed["executed"]) == (3, 7)
    rows = [json.loads(line)
            for line in out.read_text(encoding="utf-8").splitlines()]
    assert timeless(rows) == timeless(whole)
