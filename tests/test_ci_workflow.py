"""Structural validation of the CI workflow (actionlint-style dry check).

The real pipeline only runs on the forge, so this test pins down the
invariants the repository relies on: the workflow parses as YAML, covers
the documented Python matrix, and contains the expected jobs (test matrix,
lint, docs, certificate gate, benchmark smoke with artifact upload) with
well-formed steps.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "ci.yml"
WIDE_WORKFLOW = WORKFLOW.parent / "bench-wide.yml"


@pytest.fixture(scope="module")
def workflow():
    assert WORKFLOW.exists(), "missing .github/workflows/ci.yml"
    return yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def wide_workflow():
    assert WIDE_WORKFLOW.exists(), "missing .github/workflows/bench-wide.yml"
    return yaml.safe_load(WIDE_WORKFLOW.read_text(encoding="utf-8"))


def test_workflow_parses_and_triggers(workflow):
    # PyYAML parses the bare `on:` key as boolean True (YAML 1.1).
    triggers = workflow.get("on", workflow.get(True))
    assert triggers is not None, "workflow must declare push/pull_request triggers"
    assert "pull_request" in triggers
    assert "push" in triggers


def test_workflow_has_expected_jobs(workflow):
    jobs = workflow["jobs"]
    assert set(jobs) >= {"test", "lint", "docs", "certify", "bench-smoke",
                         "chaos", "fleet", "campaign"}


def test_test_job_covers_python_matrix(workflow):
    matrix = workflow["jobs"]["test"]["strategy"]["matrix"]
    assert matrix["python-version"] == ["3.10", "3.11", "3.12"]
    commands = " ".join(step.get("run", "")
                        for step in workflow["jobs"]["test"]["steps"])
    assert "pytest" in commands


def test_lint_job_runs_ruff(workflow):
    commands = " ".join(step.get("run", "")
                        for step in workflow["jobs"]["lint"]["steps"])
    assert "ruff check" in commands


def test_bench_smoke_job_gates_and_uploads(workflow):
    job = workflow["jobs"]["bench-smoke"]
    commands = " ".join(step.get("run", "") for step in job["steps"])
    assert "benchmarks/smoke.py" in commands
    assert "--baseline" in commands
    uploads = [step for step in job["steps"]
               if "upload-artifact" in step.get("uses", "")]
    assert uploads, "bench-smoke must upload the BENCH_*.json artifact"
    assert "BENCH" in uploads[0]["with"]["path"]


def test_bench_smoke_job_runs_a_traced_batch_replay(workflow):
    """A traced run fails the build when a name perfbench wraps breaks."""
    steps = workflow["jobs"]["bench-smoke"]["steps"]
    [step] = [step for step in steps
              if "--workload batch-replay" in step.get("run", "")]
    command = step["run"]
    assert ("python perfbench/run.py --workload batch-replay --seed 1 \\\n"
            "  --seconds 1 --trace 1") in command
    assert 'summary["correct"] is True' in command
    assert 'summary["failed"] == 0' in command
    assert "perfbench/results/batch-replay-seed1-trace1.json" in command
    for layer in ("experiments.runner.cache_key_ms",
                  "experiments.runner.dispatch_ms",
                  "verification.rewriting.self_ms"):
        assert f'"{layer}"' in command
    assert '["value"] > 0' in command


def test_bench_smoke_job_runs_a_traced_certify(workflow):
    """A traced certify run fails the build when the generate, model-build,
    rewriting or reduction span reads zero."""
    steps = workflow["jobs"]["bench-smoke"]["steps"]
    [step] = [step for step in steps
              if "--workload certify" in step.get("run", "")]
    command = step["run"]
    assert ("python perfbench/run.py --workload certify --seed 1 \\\n"
            "  --seconds 1 --trace 1") in command
    assert 'summary["correct"] is True' in command
    assert 'summary["failed"] == 0' in command
    assert "perfbench/results/certify-seed1-trace1.json" in command
    for layer in ("generators.self_ms", "modeling.self_ms",
                  "verification.rewriting.self_ms",
                  "verification.reduction.self_ms"):
        assert f'"{layer}"' in command
    assert '["value"] > 0' in command


def test_bench_smoke_job_runs_perfbench_tests(workflow):
    """perfbench/tests lies outside `testpaths`; this job is what runs it."""
    commands = " ".join(step.get("run", "")
                        for step in workflow["jobs"]["bench-smoke"]["steps"])
    assert "python -m pytest perfbench/tests -q" in commands
    assert ".[dev]" in commands, "pytest must be installed to run it"


def test_json_report_smoke_step_validates_schema(workflow):
    """The CI must pipe `--json` output through a JSON parser and check keys."""
    commands = " ".join(step.get("run", "")
                        for step in workflow["jobs"]["bench-smoke"]["steps"])
    assert "--json" in commands
    assert "json.tool" in commands
    assert "verdict" in commands
    assert "counters" in commands
    assert "report.keys() == required" in commands
    assert 'report["schema"] == 6' in commands
    assert '"incremental"' not in commands


def test_certify_job_emits_checks_and_cross_checks(workflow):
    """Emit a catalog slice, re-check it engine-free, and prove a refutation.

    The gate must (a) run `check-certificate` over freshly emitted
    certificates, (b) drive one injected-bug refutation end to end —
    verifier exit 2, checker exit 2, SAT cross-check on the report —
    and (c) reject a tampered document.
    """
    commands = " ".join(step.get("run", "")
                        for step in workflow["jobs"]["certify"]["steps"])
    assert "--certificate" in commands
    assert "check-certificate" in commands
    assert "apply_mutation" in commands
    assert "verify-verilog" in commands
    assert commands.count('-eq 2 ') >= 2 or commands.count('-eq 2') >= 2
    assert "cross_check" in commands
    assert "counterexample_confirmed" in commands
    assert "tampered" in commands


def test_certify_job_checks_the_simulation_refutation(workflow):
    """A budget trip without a certificate is refuted by simulation.

    Right after the certified refutation, the same buggy netlist without
    ``--certificate``, under a monomial budget its reduction trips, must
    exit 2 with a simulation report (4096 vectors, no remainder) whose
    cross-check agrees, confirms the counterexample, and needs no SAT
    conflict.
    """
    steps = workflow["jobs"]["certify"]["steps"]
    names = [step.get("name") for step in steps]
    index = names.index("Budget-trip refutation by simulation")
    assert names[index - 1] == "Injected-bug refutation with SAT cross-check"
    command = steps[index]["run"]
    assert "repro-verify verify-verilog buggy.v --json --monomial-budget 20" \
        in command
    assert "--certificate" not in command
    assert '[ "$?" -eq 2 ]' in command
    assert 'report["counters"] == {"simulated_vectors": 4096}' in command
    assert 'report["remainder"] is None' in command
    assert 'cross["agrees"] is True' in command
    assert 'cross["counterexample_confirmed"] is True' in command
    assert 'cross["conflicts"] == 0' in command


def test_certify_job_checks_both_model_modes(workflow):
    """6- and 8-bit certificates exercise the exhaustive and sampled model check."""
    commands = " ".join(step.get("run", "")
                        for step in workflow["jobs"]["certify"]["steps"])
    assert "for arch in SP-AR-RC SP-WT-CL BP-WT-CL" in commands
    assert "for width in 6 8" in commands
    assert "check-certificate wide/*.json" in commands
    assert 'grep -q "model-check=exhaustive"' in commands
    assert 'grep -q "model-check=sampled"' in commands


def test_certify_job_pins_32_bit_certificates(workflow):
    """32-bit mt-lr certificates are emitted, checked, and hash-pinned."""
    steps = workflow["jobs"]["certify"]["steps"]
    names = [step.get("name") for step in steps]
    index = names.index("Emit and check 32-bit certificates with pinned hashes")
    command = steps[index]["run"]
    assert "for arch in SP-AR-RC SP-WT-CL BP-WT-CL" in command
    assert 'repro-verify verify -a "$arch" -w 32' in command
    assert '--certificate "wide32/$arch.json"' in command
    assert "repro-verify check-certificate wide32/*.json" in command
    for digest in (
            "09a392f12811bca1546ec11170c81a144b0449c1814042158ce5a994d30af83b",
            "40a4fee984978a83412881a6e4c9e6d8305cac3fc60ea3740d4fd7e8734ca553",
            "8deb3e6b638a9c06512e19eb5c5bd437fbe5084c7fd68b2490a58ea4bb64ee1d"):
        assert digest in command
    assert "assert written == digest" in command


def test_chaos_job_runs_two_seeds_and_drain_smoke(workflow):
    """Seeded fault-injection suite (two seeds) + SIGTERM drain smoke.

    The chaos gate must (a) run ``tests/resilience`` under two distinct
    ``REPRO_CHAOS_SEED`` values, and (b) SIGTERM the server while a batch
    is in flight, asserting the response still arrives and the process
    exits 0 (graceful drain, not a dropped connection).
    """
    commands = " ".join(step.get("run", "")
                        for step in workflow["jobs"]["chaos"]["steps"])
    assert "tests/resilience" in commands
    assert commands.count("REPRO_CHAOS_SEED=") >= 2
    seeds = {part.split()[0] for part in
             commands.split("REPRO_CHAOS_SEED=")[1:]}
    assert len(seeds) >= 2, f"chaos job must use two distinct seeds: {seeds}"
    assert "repro-verify serve" in commands
    assert "kill -TERM" in commands
    assert "/v1/batch" in commands
    assert "verified" in commands


def test_chaos_job_checks_pool_reuse_and_parent_death(workflow):
    """The server's batch pool forks its workers once and dies with it.

    Three batches of four fresh 4-bit cells must all verify on the two
    workers a ``--jobs 2`` server started once; after a ``kill -9`` of
    the server, no process matching its command line survives 5 s and the
    port binds again (no worker kept the inherited listening socket).
    """
    steps = workflow["jobs"]["chaos"]["steps"]
    names = [step.get("name") for step in steps]
    index = names.index("Persistent batch pool: reuse and parent death")
    command = steps[index]["run"]
    assert ('repro-verify serve --port 8586 --jobs 2 --cache "$(mktemp -d)"'
            in command)
    assert command.count('"BP-') + command.count('"SP-') == 12
    assert '"width": 4' in command
    assert 'assert verdicts == ["verified"] * 4' in command
    assert 'assert pool["workers_started_total"] == 2' in command
    assert "kill -9 $SERVER_PID" in command
    assert "sleep 5" in command
    assert 'if pgrep -f "serve --port 8586"; then' in command
    assert 'listener.bind(("127.0.0.1", 8586))' in command


def test_chaos_job_smokes_a_served_hard_timeout(workflow):
    """Every served batch entry is bound by the deadline's hard kill.

    A ``--request-deadline 1`` server whose pool jobs all sleep 30 s (an
    injected ``worker-latency`` fault) must answer two 4-bit entries that
    omit ``find_counterexample`` with ``budget`` / ``"hard task timeout"``
    in under 10 s, after the persistent-pool step.
    """
    steps = workflow["jobs"]["chaos"]["steps"]
    names = [step.get("name") for step in steps]
    index = names.index("Served hard timeout binds every batch entry")
    assert index > names.index("Persistent batch pool: reuse and parent death")
    command = steps[index]["run"]
    assert ('{"faults": [{"site": "worker-latency", "match": "*", '
            '"delay_s": 30, "times": 100}]}') in command
    assert ("repro-verify serve --port 8587 --jobs 2 --request-deadline 1"
            in command)
    assert command.count('"SP-') == 2
    assert '"width": 4' in command
    assert "find_counterexample" not in command
    assert ('assert answers == [("budget", "hard task timeout")] * 2'
            in command)
    assert "assert elapsed < 10" in command
    assert "kill $SERVER_PID" in command


def test_fleet_job_checks_parity_steals_and_cache(workflow):
    """Two real workers, byte-parity with serial, steals, cache replay.

    The fleet gate must (a) run the fleet test suite, (b) push a 4-bit
    grid through ``batch --fleet`` against two worker processes and
    byte-diff the stdout against the serial run, (c) force work-stealing
    with a tiny straggler grace and grep a non-zero ``steals`` counter,
    and (d) re-run against the shared cache asserting non-zero cache
    hits with zero executions.  The steal is made deterministic: both
    workers share one fault plan that stalls one job once, and the fleet
    runs carry a hard limit so that job reaches the workers' pools,
    where the fault fires.
    """
    commands = " ".join(step.get("run", "")
                        for step in workflow["jobs"]["fleet"]["steps"])
    assert "tests/fleet" in commands
    assert commands.count("repro-verify serve") >= 2
    assert commands.count('REPRO_FAULT_PLAN="$PLAN" repro-verify serve') == 2
    plan = re.search(r"PLAN='(.*?)'", commands, re.DOTALL)
    assert plan is not None
    assert json.loads(plan.group(1)) == {
        "faults": [{"site": "worker-latency", "match": "SP-AR-RC/4/mt-lr",
                    "delay_s": 10, "times": 1}],
        "state_dir": ".fault-state"}
    assert commands.count("--task-timeout 60 \\\n  --fleet fleet.json") == 2
    assert "--fleet" in commands
    assert "straggler_grace_s" in commands
    assert "cache_dir" in commands
    assert "diff serial" in commands
    assert "steals=[1-9]" in commands
    assert "cache-hits=[1-9]" in commands
    assert "executed=0" in commands


def test_fleet_job_fails_on_unclosed_sockets(workflow):
    """The fleet suite runs under ``-X dev``, which prints a
    ``ResourceWarning`` for every socket or file left unclosed, and the
    step fails on any such line in its output."""
    [step] = [step for step in workflow["jobs"]["fleet"]["steps"]
              if "python -X dev -m pytest tests/fleet" in step.get("run", "")]
    command = step["run"]
    assert "tests/server/test_fleet_endpoints.py" in command
    assert "|| { cat fleet-tests.txt; exit 1; }" in command
    assert 'grep -q "ResourceWarning" fleet-tests.txt' in command
    assert command.rstrip().endswith("exit 1\nfi")


def test_fleet_job_fails_on_unclosed_server_test_sockets(workflow):
    """The HTTP end-to-end and server chaos suites run under the same
    ``-X dev`` gate as the fleet suite: any ``ResourceWarning`` line in
    their output fails the step."""
    [step] = [step for step in workflow["jobs"]["fleet"]["steps"]
              if "python -X dev -m pytest tests/server/test_http.py"
              in step.get("run", "")]
    command = step["run"]
    assert "tests/resilience/test_server_chaos.py" in command
    assert "|| { cat server-tests.txt; exit 1; }" in command
    assert 'grep -q "ResourceWarning" server-tests.txt' in command
    assert command.rstrip().endswith("exit 1\nfi")


def test_campaign_job_reruns_cross_checks_and_resumes(workflow):
    """Seeded mutation campaign, twice, with cross-check, parity and resume.

    The campaign gate must (a) run ``repro-verify campaign`` twice with
    the same seed, and once more at ``--jobs 2``, (b) assert the SAT
    cross-check decided at least one refutation and contradicted none
    (the command also exits 1 itself on a disagreement), (c) byte-diff
    the extracted (id, verdict) columns of the two runs, and of the
    first run against the ``--jobs 2`` run, and (d) resume over the
    first run's output and assert nothing is executed again.
    """
    commands = " ".join(step.get("run", "")
                        for step in workflow["jobs"]["campaign"]["steps"])
    assert commands.count("repro-verify campaign") >= 4
    assert commands.count("--seed 7") >= 4
    assert "--seed 7 --jobs 2 --out run3.jsonl" in commands
    assert '["cross_checked"] >= 1' in commands
    assert '["cross_check_disagreements"] == 0' in commands
    assert "diff verdicts1.txt verdicts2.txt" in commands
    assert "diff verdicts1.txt verdicts3.txt" in commands
    assert "--resume --out run1.jsonl" in commands
    assert '["executed"] == 0' in commands
    assert "--cone-cache" not in commands
    assert "--cross-check" not in commands


def test_docs_job_runs_snippet_check(workflow):
    """The docs job must run tests/test_docs.py against the tree."""
    commands = " ".join(step.get("run", "")
                        for step in workflow["jobs"]["docs"]["steps"])
    assert "tests/test_docs.py" in commands


def test_docs_job_smokes_the_server(workflow):
    """Boot `serve`, poll /healthz, verify a 2-bit multiplier, check verdict;
    then serve with --monomial-budget 5 and check that it bounds requests
    without budgets and not those that send their own."""
    commands = " ".join(step.get("run", "")
                        for step in workflow["jobs"]["docs"]["steps"])
    assert "repro-verify serve" in commands
    assert "/healthz" in commands
    assert "/v1/verify" in commands
    assert '"width": 2' in commands
    assert "verified" in commands
    [served] = [step["run"] for step in workflow["jobs"]["docs"]["steps"]
                if "--monomial-budget 5" in step.get("run", "")]
    assert "repro-verify serve --port 8586 --monomial-budget 5" in served
    assert '"find_counterexample": false}' in served
    assert "assert r['verdict'] == 'budget'" in served
    assert '"budgets": {"monomial_budget": 2000000}' in served
    assert "assert r['verdict'] == 'verified'" in served
    assert served.index("'budget'") < served.index("2000000")


def test_wide_bench_runs_on_schedule_and_dispatch(wide_workflow):
    triggers = wide_workflow.get("on", wide_workflow.get(True))
    assert "workflow_dispatch" in triggers
    schedules = triggers["schedule"]
    assert schedules and all("cron" in entry for entry in schedules)


def test_wide_bench_covers_8_and_16_bits(wide_workflow):
    job = wide_workflow["jobs"]["bench-wide"]
    commands = " ".join(step.get("run", "") for step in job["steps"])
    assert "benchmarks/smoke.py" in commands
    assert "8,16" in commands
    env = {}
    for step in job["steps"]:
        env.update(step.get("env", {}))
    assert env.get("REPRO_BENCH_BITS") == "8,16"


def test_wide_bench_uploads_artifact(wide_workflow):
    job = wide_workflow["jobs"]["bench-wide"]
    uploads = [step for step in job["steps"]
               if "upload-artifact" in step.get("uses", "")]
    assert uploads, "bench-wide must upload the BENCH_wide.json artifact"
    assert "BENCH_wide" in uploads[0]["with"]["path"]


def test_every_step_is_well_formed(workflow, wide_workflow):
    for document in (workflow, wide_workflow):
        for name, job in document["jobs"].items():
            assert "runs-on" in job, f"job {name} missing runs-on"
            for step in job["steps"]:
                assert "uses" in step or "run" in step, (
                    f"step in job {name} has neither 'uses' nor 'run'")


def test_referenced_paths_exist():
    assert (WORKFLOW.parent.parent.parent / "benchmarks" / "smoke.py").exists()
    assert (WORKFLOW.parent.parent.parent / "benchmarks" / "baselines"
            / "BENCH_smoke_baseline.json").exists()
