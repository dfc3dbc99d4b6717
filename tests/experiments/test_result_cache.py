"""Tests for the on-disk verification result cache.

The acceptance property: a cached re-run of an already-completed table
executes zero verification jobs and reproduces byte-identical rows.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments import runner as runner_module
from repro.experiments.runner import (
    ExperimentConfig,
    ParallelRunner,
    ResultCache,
    VerificationJob,
    result_cache_key,
)


@pytest.fixture
def config():
    return ExperimentConfig(widths=(3,), time_budget_s=60.0,
                            monomial_budget=200_000)


JOBS = [VerificationJob("SP-AR-RC", 3, "mt-lr"),
        VerificationJob("SP-WT-CL", 3, "mt-lr"),
        VerificationJob("SP-AR-RC", 3, "mt-fo")]


def _run_counting(monkeypatch):
    """Patch the job executor to count real executions."""
    executed = []
    real = runner_module._guarded_run_job

    def counting(job, cfg):
        executed.append(job.key)
        return real(job, cfg)

    monkeypatch.setattr(runner_module, "_guarded_run_job", counting)
    return executed


def test_cached_rerun_executes_zero_jobs_and_is_byte_identical(
        tmp_path, config, monkeypatch):
    executed = _run_counting(monkeypatch)
    runner = ParallelRunner(config, workers=1, cache_dir=tmp_path)
    first = runner.run(JOBS)
    assert len(executed) == len(JOBS)
    first_bytes = json.dumps(first, default=str)

    executed.clear()
    rerun = ParallelRunner(config, workers=1, cache_dir=tmp_path)
    second = rerun.run(JOBS)
    assert executed == [], "cached re-run must execute zero jobs"
    assert json.dumps(second, default=str) == first_bytes


def test_cache_streams_callbacks_for_cached_rows(tmp_path, config):
    ParallelRunner(config, workers=1, cache_dir=tmp_path).run(JOBS)
    seen = []
    rows = ParallelRunner(config, workers=1, cache_dir=tmp_path).run(
        JOBS, on_result=lambda job, row: seen.append(job.key))
    assert seen == [job.key for job in JOBS]
    assert all(row["verified"] for row in rows)


def test_cache_key_depends_on_budgets_and_content(tmp_path, config):
    cache = ResultCache(tmp_path)
    job = VerificationJob("SP-AR-RC", 3, "mt-lr")
    base = cache.key(job, config)
    assert base == cache.key(job, config)
    tighter = ExperimentConfig(widths=(3,), monomial_budget=1_000)
    assert cache.key(job, tighter) != base
    capped = ExperimentConfig(widths=(3,), vanishing_cache_limit=64)
    assert cache.key(job, capped) != base
    assert cache.key(job, config, task_timeout_s=5.0) != base
    # Job-level overrides key the job like the equivalent batch-level args.
    override = VerificationJob("SP-AR-RC", 3, "mt-lr", config=tighter)
    assert cache.key(override, config) == cache.key(job, tighter)
    timed = VerificationJob("SP-AR-RC", 3, "mt-lr", task_timeout_s=5.0)
    assert cache.key(timed, config) == cache.key(job, config,
                                                 task_timeout_s=5.0)
    other_method = VerificationJob("SP-AR-RC", 3, "mt-fo")
    assert cache.key(other_method, config) != base
    unknown = VerificationJob("XX-YY-ZZ", 3, "mt-lr")
    assert cache.key(unknown, config) is None


PINNED_KEYS = [
    (VerificationJob("SP-AR-RC", 4, "mt-lr"),
     "83a351eb4d6ef6ff8a8d088ba51981388f4b2294f626f43ab668ff2b69bc166c"),
    (VerificationJob("BP-WT-CL", 8, "sat-cec"),
     "3e0688cc716b6b5eb85580a8ad3ee30f4407b59a6ee3619e3f00ce7c038a0feb"),
    (VerificationJob("SP-WT-CL", 6, "mt-fo", certificate=True),
     "a0690bbf3df0308820143080a8b3f5c707e42960ccb1d548c72ac9bc798492df"),
]


@pytest.mark.parametrize("job,digest", PINNED_KEYS,
                         ids=[job.architecture for job, _ in PINNED_KEYS])
def test_cache_key_bytes_are_pinned(job, digest):
    """Existing ``--cache`` directories and fleet shared caches keep hitting.

    The digests change only with ``repro.__version__``,
    ``ResultCache.SCHEMA`` or the generators' Verilog output, and only on
    purpose: update them in the same change, which invalidates every
    on-disk entry.  The sat-cec key also covers the golden netlist hash.
    """
    runner_module._netlist_digest.cache_clear()
    assert result_cache_key(job, ExperimentConfig()) == digest


def test_request_cache_key_bytes_are_pinned():
    """The request-level key a server or fleet batch uses (see above)."""
    from repro.api.request import VerificationRequest
    from repro.api.service import request_cache_key

    request = VerificationRequest.from_architecture(
        "SP-AR-RC", 4, "mt-lr", find_counterexample=False)
    assert request_cache_key(request) == \
        "d93284d105cf1ed9a2226fdd5a7732489181b61ba11bd2ffdd3fb61804165b70"


def test_error_rows_are_not_cached(tmp_path, config, monkeypatch):
    executed = _run_counting(monkeypatch)
    jobs = [VerificationJob("SP-AR-RC", 3, "not-a-method")]
    runner = ParallelRunner(config, workers=1, cache_dir=tmp_path)
    rows = runner.run(jobs)
    assert rows[0]["status"] == "error"
    executed.clear()
    rows = ParallelRunner(config, workers=1, cache_dir=tmp_path).run(jobs)
    assert rows[0]["status"] == "error"
    assert executed, "error rows must be re-executed, not served from cache"


def test_partial_cache_runs_only_missing_jobs(tmp_path, config, monkeypatch):
    executed = _run_counting(monkeypatch)
    ParallelRunner(config, workers=1, cache_dir=tmp_path).run(JOBS[:2])
    executed.clear()
    rows = ParallelRunner(config, workers=1, cache_dir=tmp_path).run(JOBS)
    assert executed == [JOBS[2].key]
    assert [row["architecture"] for row in rows] == [
        job.architecture for job in JOBS]


def test_cache_from_environment(tmp_path, config, monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_CACHE", str(tmp_path))
    env_config = ExperimentConfig.from_environment()
    assert env_config.cache_dir == str(tmp_path)
    env_config.widths = (3,)
    executed = _run_counting(monkeypatch)
    ParallelRunner(env_config, workers=1).run(JOBS[:1])
    executed.clear()
    ParallelRunner(env_config, workers=1).run(JOBS[:1])
    assert executed == []


def test_corrupt_cache_entry_is_a_miss(tmp_path, config):
    cache = ResultCache(tmp_path)
    job = JOBS[0]
    key = cache.key(job, config)
    (tmp_path / f"{key}.json").write_text("{not json", encoding="utf-8")
    assert cache.get(key) is None
    rows = ParallelRunner(config, workers=1, cache_dir=tmp_path).run([job])
    assert rows[0]["verified"] is True


def test_runner_reports_cache_hit_and_executed_counts(tmp_path, config):
    jobs = [VerificationJob("SP-AR-RC", 3, "mt-lr"),
            VerificationJob("SP-WT-RC", 3, "mt-lr")]
    runner = ParallelRunner(config, workers=1, cache_dir=tmp_path)
    runner.run(jobs)
    assert runner.last_cache_hits == 0
    assert runner.last_executed == len(jobs)
    rerun = ParallelRunner(config, workers=1, cache_dir=tmp_path)
    rerun.run(jobs)
    assert rerun.last_cache_hits == len(jobs)
    assert rerun.last_executed == 0


def test_batch_cli_prints_cache_footer(tmp_path, capsys):
    from repro.cli import main

    argv = ["batch", "-a", "SP-AR-RC", "-w", "3", "-m", "mt-lr",
            "--cache", str(tmp_path)]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert "cache: hits=0 executed=1" in first
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert "cache: hits=1 executed=0" in second
    # Aside from the cache footer, the cached re-run is byte-identical.
    strip = lambda text: [line for line in text.splitlines()
                          if not line.startswith("cache:")]
    assert strip(first) == strip(second)


def test_batch_cli_has_no_footer_without_cache(capsys):
    from repro.cli import main

    assert main(["batch", "-a", "SP-AR-RC", "-w", "2", "-m", "mt-lr"]) == 0
    out = capsys.readouterr().out
    assert "cache:" not in out
