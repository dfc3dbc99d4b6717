"""Chaos tests for the result cache: corruption, tampering, concurrency."""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api.report import VerificationReport
from repro.api.request import Budgets, VerificationRequest
from repro.experiments.runner import ParallelRunner, ResultCache, run_request
from repro.resilience.faults import Fault

from .conftest import stable


@pytest.fixture
def job():
    return VerificationRequest.from_architecture(
        "SP-AR-RC", 4, "mt-lr", find_counterexample=False,
        budgets=Budgets(time_budget_s=60.0, monomial_budget=200_000))


def _entries(directory):
    return sorted(p.name for p in directory.iterdir()
                  if p.suffix == ".json")


def _quarantined(directory):
    return sorted(p.name for p in directory.iterdir()
                  if p.name.endswith(".quarantined"))


def test_corrupted_publish_is_quarantined_and_reexecuted(job, chaos,
                                                         tmp_path):
    """A cache entry garbled at publish time costs one re-execution only."""
    cache_dir = tmp_path / "cache"
    grid = [job]

    chaos(Fault("cache-corrupt", match="*", times=1))
    first = ParallelRunner(workers=1, cache_dir=cache_dir).run(grid)
    assert first[0]["verified"]

    # Second run: the poisoned entry must read as a miss (quarantined),
    # re-execute, and republish — not crash, not return garbage.
    runner = ParallelRunner(workers=1, cache_dir=cache_dir)
    second = runner.run(grid)
    assert stable(second) == stable(first)
    assert runner.last_cache_hits == 0
    assert runner.last_executed == 1
    assert len(_quarantined(cache_dir)) == 1

    # Third run hits the republished (clean) entry.
    runner = ParallelRunner(workers=1, cache_dir=cache_dir)
    third = runner.run(grid)
    assert stable(third) == stable(first)
    assert runner.last_cache_hits == 1


def test_tampered_verdict_fails_the_checksum(job, tmp_path):
    """Flipping a stored verdict breaks the entry checksum -> miss."""
    cache = ResultCache(tmp_path / "cache")
    report = VerificationReport.from_row(run_request(job))
    key = cache.key(job)
    assert cache.put(key, report, job) is True
    assert cache.get(key) is not None

    [entry] = [p for p in cache.directory.iterdir() if p.suffix == ".json"]
    document = json.loads(entry.read_text(encoding="utf-8"))
    document["report"]["verdict"] = "refuted"
    entry.write_text(json.dumps(document), encoding="utf-8")

    assert cache.get(key) is None
    assert len(_quarantined(cache.directory)) == 1
    assert not _entries(cache.directory)


def test_unreadable_garbage_entry_is_a_miss(job, tmp_path):
    cache = ResultCache(tmp_path / "cache")
    key = cache.key(job)
    (cache.directory / f"{key}.json").write_bytes(b"\x00\xffnot json at all")
    assert cache.get(key) is None
    assert len(_quarantined(cache.directory)) == 1


def test_missing_entry_is_a_plain_miss(job, tmp_path):
    cache = ResultCache(tmp_path / "cache")
    assert cache.get(cache.key(job)) is None
    assert not _quarantined(cache.directory)


def test_concurrent_writers_never_publish_a_torn_entry(job, tmp_path):
    """Many threads hammering put() on one key: readers always see a
    complete entry (atomic tmp+rename publish), and no tmp litter stays."""
    cache = ResultCache(tmp_path / "cache")
    row = run_request(job)
    key = cache.key(job)

    def writer(_):
        cache.put(key, VerificationReport.from_row(row), job)
        return cache.get(key)

    with ThreadPoolExecutor(max_workers=8) as pool:
        reports = list(pool.map(writer, range(64)))
    live = [report for report in reports if report is not None]
    assert live, "concurrent put/get must observe complete entries"
    assert all(report.verdict == "verified" for report in live)
    assert cache.get(key) is not None
    litter = [p.name for p in cache.directory.iterdir()
              if ".tmp." in p.name]
    assert not litter, f"temporary publish files left behind: {litter}"
