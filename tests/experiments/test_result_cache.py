"""Tests for the on-disk verification result cache.

The acceptance property: a cached re-run of an already-completed table
executes zero verification jobs and reproduces byte-identical rows.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.api import service as service_module
from repro.api.request import Budgets, VerificationRequest
from repro.api.service import VerificationService
from repro.experiments import runner as runner_module
from repro.experiments.runner import ExperimentConfig, ParallelRunner, ResultCache

BUDGETS = Budgets(time_budget_s=60.0, monomial_budget=200_000)


def job(architecture: str, width: int = 3, method: str = "mt-lr",
        **budget_changes) -> VerificationRequest:
    """One pooled batch cell, as the service hands it to the runner."""
    return VerificationRequest.from_architecture(
        architecture, width, method, budgets=BUDGETS.replace(**budget_changes),
        find_counterexample=False)


def _cell(request: VerificationRequest) -> tuple[str, int, str]:
    return (request.architecture, request.width, request.method)


JOBS = [job("SP-AR-RC"), job("SP-WT-CL"), job("SP-AR-RC", method="mt-fo")]


def _run_counting(monkeypatch):
    """Patch the per-task function to count real executions."""
    executed = []
    real = runner_module.run_request

    def counting(request):
        executed.append(_cell(request))
        return real(request)

    monkeypatch.setattr(runner_module, "run_request", counting)
    return executed


def test_cached_rerun_executes_zero_jobs_and_is_byte_identical(
        tmp_path, monkeypatch):
    executed = _run_counting(monkeypatch)
    runner = ParallelRunner(workers=1, cache_dir=tmp_path)
    first = runner.run(JOBS)
    assert len(executed) == len(JOBS)
    first_bytes = json.dumps(first, default=str)

    executed.clear()
    rerun = ParallelRunner(workers=1, cache_dir=tmp_path)
    second = rerun.run(JOBS)
    assert executed == [], "cached re-run must execute zero jobs"
    assert json.dumps(second, default=str) == first_bytes


def test_cache_streams_callbacks_for_cached_rows(tmp_path):
    ParallelRunner(workers=1, cache_dir=tmp_path).run(JOBS)
    seen = []
    rows = ParallelRunner(workers=1, cache_dir=tmp_path).run(
        JOBS, on_result=lambda request, row: seen.append(_cell(request)))
    assert seen == [_cell(request) for request in JOBS]
    assert all(row["verified"] for row in rows)


def test_cache_key_depends_on_budgets_and_content(tmp_path, monkeypatch):
    cache = ResultCache(tmp_path)
    request = job("SP-AR-RC")
    base = cache.key(request)
    assert base == cache.key(job("SP-AR-RC"))
    assert cache.key(job("SP-AR-RC", monomial_budget=1_000)) != base
    assert cache.key(job("SP-AR-RC", vanishing_cache_limit=64)) != base
    assert cache.key(job("SP-AR-RC", task_timeout_s=5.0)) != base
    assert cache.key(job("SP-AR-RC", method="mt-fo")) != base
    assert cache.key(job("XX-YY-ZZ")) is None
    # Knobs the key does not cover make a request uncacheable.
    assert cache.key(dataclasses.replace(request,
                                         find_counterexample=True)) is None
    assert cache.key(dataclasses.replace(request, seed=3)) is None
    # The golden netlist is part of the sat-cec key only.
    sat = job("SP-AR-RC", method="sat-cec")
    sat_key = cache.key(sat)
    monkeypatch.setattr(service_module, "GOLDEN_ARCHITECTURE", "SP-WT-CL")
    assert cache.key(sat) != sat_key
    assert cache.key(request) == base


def _pinned(architecture: str, width: int, method: str,
            certificate: bool = False) -> VerificationRequest:
    return VerificationRequest.from_architecture(
        architecture, width, method, budgets=Budgets(time_budget_s=60.0),
        certificate=certificate, find_counterexample=False)


PINNED_KEYS = [
    (_pinned("SP-AR-RC", 4, "mt-lr"),
     "83a351eb4d6ef6ff8a8d088ba51981388f4b2294f626f43ab668ff2b69bc166c"),
    (_pinned("BP-WT-CL", 8, "sat-cec"),
     "3e0688cc716b6b5eb85580a8ad3ee30f4407b59a6ee3619e3f00ce7c038a0feb"),
    (_pinned("SP-WT-CL", 6, "mt-fo", certificate=True),
     "a0690bbf3df0308820143080a8b3f5c707e42960ccb1d548c72ac9bc798492df"),
]


@pytest.mark.parametrize("request_,digest", PINNED_KEYS,
                         ids=[request.architecture
                              for request, _ in PINNED_KEYS])
def test_cache_key_bytes_are_pinned(request_, digest, tmp_path):
    """Existing ``--cache`` directories and fleet shared caches keep hitting.

    The digests change only with ``repro.__version__``,
    ``ResultCache.SCHEMA`` or the generators' Verilog output, and only on
    purpose: update them in the same change, which invalidates every
    on-disk entry.  The sat-cec key also covers the golden netlist hash.
    """
    runner_module._netlist_digest.cache_clear()
    assert ResultCache(tmp_path).key(request_) == digest


def test_request_cache_key_bytes_are_pinned():
    """The request-level key a server or fleet batch uses (see above)."""
    from repro.api.service import request_cache_key

    request = VerificationRequest.from_architecture(
        "SP-AR-RC", 4, "mt-lr", find_counterexample=False)
    assert request_cache_key(request) == \
        "d93284d105cf1ed9a2226fdd5a7732489181b61ba11bd2ffdd3fb61804165b70"


def test_error_rows_are_not_cached(tmp_path, monkeypatch):
    executed = []

    def failing(request):
        executed.append(_cell(request))
        raise RuntimeError("injected failure")

    monkeypatch.setattr(runner_module, "run_request", failing)
    runner = ParallelRunner(workers=1, cache_dir=tmp_path)
    rows = runner.run(JOBS[:1])
    assert rows[0]["status"] == "error"
    assert runner.cache.key(JOBS[0]) is not None
    executed.clear()
    rows = ParallelRunner(workers=1, cache_dir=tmp_path).run(JOBS[:1])
    assert rows[0]["status"] == "error"
    assert executed, "error rows must be re-executed, not served from cache"


def test_partial_cache_runs_only_missing_jobs(tmp_path, monkeypatch):
    executed = _run_counting(monkeypatch)
    ParallelRunner(workers=1, cache_dir=tmp_path).run(JOBS[:2])
    executed.clear()
    rows = ParallelRunner(workers=1, cache_dir=tmp_path).run(JOBS)
    assert executed == [_cell(JOBS[2])]
    assert [row["architecture"] for row in rows] == [
        request.architecture for request in JOBS]


def test_cache_from_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_CACHE", str(tmp_path))
    env_config = ExperimentConfig.from_environment()
    assert env_config.cache_dir == str(tmp_path)
    executed = _run_counting(monkeypatch)
    ParallelRunner(workers=1, cache_dir=env_config.cache_dir).run(JOBS[:1])
    executed.clear()
    ParallelRunner(workers=1, cache_dir=env_config.cache_dir).run(JOBS[:1])
    assert executed == []


def test_service_batches_do_not_read_repro_bench_cache(tmp_path, monkeypatch):
    """Only ExperimentConfig.from_environment() reads the variable."""
    monkeypatch.setenv("REPRO_BENCH_CACHE", str(tmp_path))
    service = VerificationService(jobs=1)
    [report] = service.run_batch(JOBS[:1])
    assert report.verdict == "verified"
    assert service.last_executed == 1
    assert list(tmp_path.iterdir()) == []


def test_batch_cli_fills_repro_bench_cache(tmp_path, monkeypatch, capsys):
    from repro.cli import main

    monkeypatch.setenv("REPRO_BENCH_CACHE", str(tmp_path))
    argv = ["batch", "-a", "SP-AR-RC", "-w", "3", "-m", "mt-lr"]
    assert main(argv) == 0
    assert "cache: hits=0 executed=1" in capsys.readouterr().out
    assert len(list(tmp_path.glob("*.json"))) == 1
    assert main(argv) == 0
    assert "cache: hits=1 executed=0" in capsys.readouterr().out


def test_corrupt_cache_entry_is_a_miss(tmp_path):
    cache = ResultCache(tmp_path)
    request = JOBS[0]
    key = cache.key(request)
    (tmp_path / f"{key}.json").write_text("{not json", encoding="utf-8")
    assert cache.get(key) is None
    rows = ParallelRunner(workers=1, cache_dir=tmp_path).run([request])
    assert rows[0]["verified"] is True


def test_runner_reports_cache_hit_and_executed_counts(tmp_path):
    jobs = [job("SP-AR-RC"), job("SP-WT-RC")]
    runner = ParallelRunner(workers=1, cache_dir=tmp_path)
    runner.run(jobs)
    assert runner.last_cache_hits == 0
    assert runner.last_executed == len(jobs)
    rerun = ParallelRunner(workers=1, cache_dir=tmp_path)
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
