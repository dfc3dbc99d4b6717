"""The process-wide netlist-hash memo behind every result-cache key.

Each (architecture, width) cell is generated and hashed once per process,
however many caches, services, server batches or fleet runs key it.  Only
successful digests are memoised, and the memo is bounded.  Every test
here clears the memo before and after it runs, so none depends on test
order.
"""

from __future__ import annotations

import json
import sys
import threading

import pytest

from repro.api.request import VerificationRequest
from repro.api.service import VerificationService
from repro.experiments import runner as runner_module
from repro.experiments.runner import NETLIST_HASH_MEMO_SIZE, netlist_hash
from repro.server.app import VerificationServerApp

CELLS = [("SP-AR-RC", 4), ("SP-WT-CL", 4), ("BP-WT-CL", 4), ("SP-DT-HC", 4)]


@pytest.fixture
def cold_memo():
    runner_module._netlist_digest.cache_clear()
    yield runner_module._netlist_digest
    runner_module._netlist_digest.cache_clear()


@pytest.fixture
def generated(monkeypatch, cold_memo):
    """Record every (architecture, width) the runner module generates."""
    calls = []
    real = runner_module.generate_multiplier

    def counting(architecture, width):
        calls.append((architecture, width))
        return real(architecture, width)

    monkeypatch.setattr(runner_module, "generate_multiplier", counting)
    return calls


def _requests():
    return [VerificationRequest.from_architecture(
        architecture, width, "mt-lr", find_counterexample=False)
        for architecture, width in CELLS]


def test_second_service_batch_keys_without_regenerating(tmp_path, generated):
    first = VerificationService(jobs=2, cache_dir=tmp_path)
    first.run_batch(_requests())
    assert first.last_executed == len(CELLS)

    generated.clear()
    second = VerificationService(jobs=2, cache_dir=tmp_path)
    reports = second.run_batch(_requests())
    assert generated == []
    assert second.last_cache_hits == len(CELLS)
    assert second.last_executed == 0
    assert [report.verdict for report in reports] == ["verified"] * len(CELLS)


def test_second_server_batch_keys_without_regenerating(tmp_path, generated):
    app = VerificationServerApp(jobs=2, cache_dir=tmp_path)
    body = json.dumps({"requests": [
        {"architecture": architecture, "width": width, "method": "mt-lr",
         "find_counterexample": False}
        for architecture, width in CELLS]}).encode("utf-8")
    try:
        first = json.loads(app.handle("POST", "/v1/batch", body).body)
        assert first["executed"] == len(CELLS)
        generated.clear()
        second = json.loads(app.handle("POST", "/v1/batch", body).body)
    finally:
        app.close()
    assert generated == []
    assert second["cache_hits"] == len(CELLS)
    assert second["executed"] == 0


@pytest.mark.parametrize("architecture,width", [
    ("XX-YY-ZZ", 4), ("SP-AR-RC", 1), ("SP-AR-RC", 0)])
def test_unhashable_cells_are_not_memoised(cold_memo, architecture, width):
    assert netlist_hash("SP-AR-RC", 3) is not None
    before = cold_memo.cache_info().currsize
    assert netlist_hash(architecture, width) is None
    assert netlist_hash(architecture, width) is None
    assert cold_memo.cache_info().currsize == before


def test_a_failed_hash_is_retried(monkeypatch, cold_memo):
    real = runner_module.generate_multiplier
    failures = [MemoryError("transient")]

    def flaky(architecture, width):
        if failures:
            raise failures.pop()
        return real(architecture, width)

    monkeypatch.setattr(runner_module, "generate_multiplier", flaky)
    assert netlist_hash("SP-AR-RC", 4) is None
    digest = netlist_hash("SP-AR-RC", 4)
    assert digest is not None and len(digest) == 64


def test_concurrent_handler_threads_share_one_memo(cold_memo):
    cells = [(architecture, width) for architecture, _ in CELLS
             for width in (3, 4)]
    expected = {cell: netlist_hash(*cell) for cell in cells}
    cold_memo.cache_clear()
    results: list[dict] = []

    def worker():
        results.append({cell: netlist_hash(*cell) for cell in cells * 3})

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [expected] * len(threads)
    assert cold_memo.cache_info().currsize == len(cells)


def test_memo_is_bounded_and_evicts_least_recently_used(monkeypatch,
                                                        paper_full_adder,
                                                        cold_memo):
    calls = []

    def tiny(architecture, width):
        calls.append(architecture)
        return paper_full_adder

    monkeypatch.setattr(runner_module, "generate_multiplier", tiny)
    names = [f"ARCH-{index}" for index in range(NETLIST_HASH_MEMO_SIZE + 8)]
    for name in names:
        assert netlist_hash(name, 4) is not None
        assert cold_memo.cache_info().currsize <= NETLIST_HASH_MEMO_SIZE
    assert cold_memo.cache_info().currsize == NETLIST_HASH_MEMO_SIZE
    calls.clear()
    netlist_hash(names[-1], 4)
    netlist_hash(names[0], 4)
    assert calls == [names[0]]
