"""Tests of the verification service façade.

Covers the ISSUE 4 acceptance tests: every registered backend runs on the
4-bit catalog with byte-identical report JSON round-trips, the SAT/BDD
baselines agree with the algebraic methods verdict-for-verdict,
``verify(budgets=...)`` pins to the service pipeline's results, and
``run_batch`` reproduces the parallel runner's rows.
"""

from __future__ import annotations

import multiprocessing
import threading
import time

import pytest

from repro.api.registry import backend_names
from repro.api.report import VerificationReport
from repro.api.request import Budgets, VerificationRequest
from repro.api.service import VerificationService
from repro.circuit.mutate import apply_mutation, list_mutations
from repro.circuit.verilog import save_verilog, write_verilog
from repro.errors import VerificationError
from repro.experiments import runner as runner_module
from repro.experiments.runner import ParallelRunner
from repro.circuit.simulate import simulate_words
from repro.generators.multipliers import generate_multiplier
from repro.verification.engine import verify

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="pool workers inherit a patched run_request only when forked")

CATALOG_4BIT = ("SP-AR-RC", "SP-WT-CL", "BP-CT-BK")

#: The budgets these tests' requests carry.
BUDGETS = Budgets(time_budget_s=60.0)


@pytest.fixture(scope="module")
def service():
    return VerificationService()


@pytest.mark.parametrize("method", backend_names())
@pytest.mark.parametrize("architecture", CATALOG_4BIT)
def test_every_backend_verifies_the_4bit_catalog_and_roundtrips(
        service, architecture, method):
    """Registry round-trip: every backend runs and its JSON is byte-stable."""
    report = service.submit(
        VerificationRequest.from_architecture(architecture, 4, method=method,
                                              budgets=BUDGETS))
    assert report.verdict == "verified"
    assert report.method == method
    assert report.circuit == architecture
    assert report.width == 4
    text = report.to_json()
    revived = VerificationReport.from_json(text)
    assert revived.to_json() == text
    assert revived.to_row() == report.to_row()


def _observable_bug(netlist):
    """A mutated copy that provably computes a wrong product somewhere."""
    for mutation in list_mutations(netlist):
        buggy = apply_mutation(netlist, mutation)
        for a in range(4):
            for b in range(16):
                if simulate_words(buggy, {"a": a, "b": b}) != a * b:
                    return buggy
    raise AssertionError("no observable mutation found")


@pytest.mark.parametrize("architecture", CATALOG_4BIT)
def test_verdict_parity_grid_on_injected_bug(service, architecture):
    """SAT, BDD and MT must agree on buggy circuits at 4 bit."""
    buggy = _observable_bug(generate_multiplier(architecture, 4))
    verdicts = {}
    for method in backend_names():
        report = service.submit(VerificationRequest.from_netlist(
            buggy, method=method, budgets=BUDGETS))
        verdicts[method] = report.verdict
    assert set(verdicts.values()) == {"refuted"}, verdicts


def test_verify_budgets_pin_the_service_pipeline(service):
    """`verify(budgets=...)` must reproduce the service pipeline's results;
    the individual budget keywords are gone."""
    netlist = generate_multiplier("SP-CT-BK", 4)
    budgets = Budgets(monomial_budget=100_000, time_budget_s=60.0,
                      vanishing_cache_limit=4096, counterexample_tries=16)
    direct = verify(netlist, method="mt-lr", budgets=budgets, seed=7)
    new = service.submit(VerificationRequest.from_netlist(
        netlist, method="mt-lr", budgets=budgets, seed=7))
    assert new.verdict == "verified"
    assert direct.verified is True
    fresh = VerificationReport.from_result(direct, circuit="SP-CT-BK", width=4)

    def deterministic(counters):
        return {k: v for k, v in counters.items()
                if not k.endswith("_time_s")}

    assert deterministic(fresh.counters) == deterministic(new.counters)
    assert fresh.verdict == new.verdict
    with pytest.raises(TypeError):
        verify(netlist, method="mt-lr", monomial_budget=100_000)


_TIMING_KEYS = ("time", "time_s", "reduction_time_s", "rewrite_time_s",
                "conflicts", "decisions")


def _stable(row: dict) -> dict:
    """A row with the run-to-run-varying timing fields masked out."""
    return {key: ("*" if key in _TIMING_KEYS else value)
            for key, value in row.items()}


def test_run_batch_matches_parallel_runner_rows(service):
    architectures = ["SP-AR-RC", "SP-WT-CL"]
    methods = ["mt-lr", "sat-cec", "bdd-cec"]
    reports = service.run_grid(architectures, [3], methods, BUDGETS)
    runner = ParallelRunner(workers=1)
    rows = runner.run(service.grid(architectures, [3], methods, BUDGETS))
    assert [_stable(report.to_row()) for report in reports] == [
        _stable(row) for row in rows]
    assert service.last_executed == len(rows)


def test_run_batch_parallel_matches_serial(service):
    requests = [VerificationRequest.from_architecture(
                    arch, 3, method, budgets=BUDGETS,
                    find_counterexample=False)
                for arch in ("SP-AR-RC", "SP-CT-BK")
                for method in ("mt-lr", "mt-fo")]
    serial = service.run_batch(requests, jobs=1)
    parallel = service.run_batch(requests, jobs=2)
    assert [_stable(r.to_row()) for r in serial] == [
        _stable(r.to_row()) for r in parallel]


def test_a_request_listed_twice_gets_both_reports():
    """The runner joins rows by position, so each listing is a job."""
    service = VerificationService()
    twice = VerificationRequest.from_architecture(
        "SP-WT-CL", 3, budgets=BUDGETS, find_counterexample=False)
    other = VerificationRequest.from_architecture(
        "SP-AR-RC", 3, budgets=BUDGETS, find_counterexample=False)
    requests = [twice, other, twice]
    batched = service.run_batch(requests, jobs=2)
    assert service.last_executed == 3
    streamed = list(service.iter_batch(requests, jobs=2))
    assert service.last_executed == 3
    for reports in (batched, streamed):
        assert [(r.circuit, r.verdict) for r in reports] == [
            ("SP-WT-CL", "verified"), ("SP-AR-RC", "verified"),
            ("SP-WT-CL", "verified")]


def test_run_batch_mixes_pooled_and_inprocess_requests(service):
    netlist = generate_multiplier("SP-AR-RC", 3)
    requests = [
        VerificationRequest.from_architecture("SP-WT-CL", 3,
                                              budgets=BUDGETS,
                                              find_counterexample=False),
        VerificationRequest.from_netlist(netlist, budgets=BUDGETS),
    ]
    reports = service.run_batch(requests)
    assert [r.verdict for r in reports] == ["verified", "verified"]
    assert reports[0].circuit == "SP-WT-CL"
    assert reports[1].circuit == netlist.name


def test_run_batch_honours_per_request_budget_groups(service):
    """Pooled requests carry their own budgets job-by-job (ISSUE 5)."""
    requests = [
        VerificationRequest.from_architecture(
            "SP-AR-RC", 3, "mt-lr", budgets=BUDGETS,
            find_counterexample=False),
        # A 50-monomial budget that provably trips on the naive GB.
        VerificationRequest.from_architecture(
            "SP-WT-CL", 3, "mt-naive", budgets=Budgets(monomial_budget=50),
            find_counterexample=False),
        VerificationRequest.from_architecture(
            "SP-CT-BK", 3, "mt-fo",
            budgets=Budgets(monomial_budget=100_000, time_budget_s=30.0),
            find_counterexample=False),
    ]
    reports = service.run_batch(requests)
    assert [report.verdict for report in reports] == \
        ["verified", "budget", "verified"]
    # Budget groups survive the worker pool, and each pooled report agrees
    # with an in-process submit under the same request budgets.
    parallel = service.run_batch(requests, jobs=2)
    assert [_stable(r.to_row()) for r in parallel] == \
        [_stable(r.to_row()) for r in reports]
    tripped = service.submit(requests[1])
    assert tripped.verdict == "budget"
    assert tripped.reason == reports[1].reason


def test_run_batch_budget_groups_do_not_share_cache_entries(tmp_path):
    """Same job under different budgets must key different cache rows."""
    service = VerificationService(cache_dir=tmp_path)
    tight = VerificationRequest.from_architecture(
        "SP-WT-CL", 3, "mt-naive", budgets=Budgets(monomial_budget=50),
        find_counterexample=False)
    loose = VerificationRequest.from_architecture(
        "SP-WT-CL", 3, "mt-naive", find_counterexample=False)
    [first] = service.run_batch([tight])
    assert first.verdict == "budget"
    [second] = service.run_batch([loose])
    assert service.last_executed == 1          # no stale budget-trip hit
    assert second.verdict == "verified"
    [replayed] = service.run_batch([tight])
    assert service.last_cache_hits == 1
    assert replayed.to_json() == first.to_json()


def test_run_batch_uses_result_cache(tmp_path):
    service = VerificationService(cache_dir=tmp_path)
    requests = [VerificationRequest.from_architecture(
        "SP-AR-RC", 3, find_counterexample=False)]
    first = service.run_batch(requests)
    assert service.last_executed == 1
    second = service.run_batch(requests)
    assert service.last_cache_hits == 1
    assert service.last_executed == 0
    assert [r.to_row() for r in first] == [r.to_row() for r in second]


def test_pooled_requests_keep_their_budgets_verbatim(monkeypatch):
    """run_batch must obey the same budget semantics as submit: None means
    disabled, and REPRO_BENCH_* environment overrides do not sneak in."""
    monkeypatch.setenv("REPRO_BENCH_TIMEOUT", "7")
    monkeypatch.setenv("REPRO_BENCH_MONOMIAL_BUDGET", "123")
    service = VerificationService()
    capped = Budgets(vanishing_cache_limit=64)
    requests = [VerificationRequest.from_architecture(
        "SP-AR-RC", 3, budgets=budgets, find_counterexample=False)
        for budgets in (Budgets(), capped, capped.replace(
            task_timeout_s=2.0))]
    received: list[VerificationRequest] = []
    run = ParallelRunner.run

    def recording_run(self, jobs, on_result=None):
        received.extend(jobs)
        return run(self, jobs, on_result)

    monkeypatch.setattr(ParallelRunner, "run", recording_run)
    service.run_batch(requests)
    assert [job.budgets for job in received] == [
        Budgets(), capped, capped.replace(task_timeout_s=2.0)]
    assert received[0].budgets.time_budget_s is None


def test_run_batch_honours_non_default_request_knobs(service):
    """xor_and_only / seed / counterexample requests must keep their knobs
    through the runner — batch and submit must agree."""
    request = VerificationRequest.from_architecture(
        "SP-AR-RC", 3, method="mt-lr", budgets=BUDGETS,
        xor_and_only=True, find_counterexample=False)
    [batched] = service.run_batch([request])
    direct = service.submit(request)
    assert service.last_executed == 1
    assert batched.counters["cancelled_vanishing_monomials"] == \
        direct.counters["cancelled_vanishing_monomials"]


def _request_shapes() -> dict[str, VerificationRequest]:
    """One request of every shape a batch can carry, by name."""
    netlist = generate_multiplier("SP-AR-RC", 4)
    mutant = apply_mutation(netlist, list_mutations(netlist)[5])
    return {
        "architecture": VerificationRequest.from_architecture(
            "SP-AR-RC", 4, budgets=BUDGETS, find_counterexample=False),
        "counterexample search": VerificationRequest.from_architecture(
            "SP-WT-CL", 4, budgets=BUDGETS),
        "refuted netlist": VerificationRequest.from_netlist(
            mutant, budgets=BUDGETS),
        "verilog_text": VerificationRequest.from_verilog(
            text=write_verilog(generate_multiplier("BP-CT-BK", 4)),
            budgets=BUDGETS),
        "xor_and_only": VerificationRequest.from_architecture(
            "SP-AR-RC", 4, budgets=BUDGETS, xor_and_only=True),
        "seed": VerificationRequest.from_architecture(
            "SP-WT-CL", 4, budgets=BUDGETS, seed=3),
        "certificate": VerificationRequest.from_architecture(
            "SP-AR-RC", 4, budgets=BUDGETS, certificate=True),
        "budget trip": VerificationRequest.from_architecture(
            "SP-AR-RC", 4, "mt-naive", budgets=Budgets(monomial_budget=10)),
        "simulation refutation": VerificationRequest.from_netlist(
            mutant, budgets=Budgets(monomial_budget=20)),
        "sat-cec": VerificationRequest.from_architecture(
            "SP-WT-CL", 4, "sat-cec", budgets=BUDGETS),
        "bdd-cec": VerificationRequest.from_architecture(
            "SP-WT-CL", 4, "bdd-cec", budgets=BUDGETS),
    }


def _stable_report(report: VerificationReport) -> dict:
    """A report's ``to_dict()`` with the timing fields masked."""
    document = _stable(report.to_dict())
    document["counters"] = _stable(document["counters"])
    return document


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("entry", ["run_batch", "iter_batch"])
def test_batch_reports_equal_submit_for_every_request_shape(service, entry,
                                                            jobs):
    """Rows carry the whole report, so a batch answers each request with
    the report submit gives it: specification, counterexample, remainder,
    certificate and cross-check included."""
    shapes = _request_shapes()
    expected = {name: _stable_report(service.submit(request))
                for name, request in shapes.items()}
    assert expected["refuted netlist"]["remainder"] is not None
    assert expected["simulation refutation"]["counters"] == {
        "simulated_vectors": 4096}
    assert expected["budget trip"]["verdict"] == "budget"
    reports = getattr(service, entry)(list(shapes.values()), jobs=jobs)
    assert {name: _stable_report(report)
            for name, report in zip(shapes, reports)} == expected


@needs_fork
def test_the_hard_task_timeout_binds_every_batch_entry(monkeypatch, tmp_path):
    """An entry that searches for a counterexample and Verilog entries are
    killed at their hard limit like any other, and name their circuit as
    a run of them would: by the module, not the file."""
    monkeypatch.setattr(runner_module, "run_request",
                        lambda request: time.sleep(60))
    budgets = Budgets(task_timeout_s=1.0)
    cell = tmp_path / "cell.v"
    save_verilog(generate_multiplier("BP-CT-BK", 3), str(cell))
    requests = [
        VerificationRequest.from_architecture("SP-AR-RC", 3, budgets=budgets),
        VerificationRequest.from_verilog(
            text=write_verilog(generate_multiplier("SP-WT-CL", 3)),
            budgets=budgets),
        VerificationRequest.from_verilog(cell, budgets=budgets)]
    service = VerificationService(jobs=2)
    start = time.monotonic()
    reports = service.run_batch(requests)
    assert time.monotonic() - start < 30
    assert [(report.verdict, report.reason) for report in reports] == [
        ("budget", "hard task timeout")] * 3
    assert [report.circuit for report in reports] == [
        "SP-AR-RC", "SP_WT_CL_3x3", "BP_CT_BK_3x3"]
    assert service.last_executed == 3


def test_one_job_batches_run_inline_and_lazily(monkeypatch):
    """With one job and no hard limit, iter_batch runs request i+1 only
    once the consumer took report i, in the consumer's own thread."""
    real_run_request = runner_module.run_request
    events: list[tuple[str, str]] = []
    threads: set[int] = set()

    def run_request(request):
        threads.add(threading.get_ident())
        events.append(("run", request.architecture))
        return real_run_request(request)

    monkeypatch.setattr(runner_module, "run_request", run_request)
    architectures = ("SP-AR-RC", "SP-WT-CL", "BP-CT-BK")
    requests = [VerificationRequest.from_architecture(
        architecture, 3, budgets=BUDGETS, find_counterexample=False)
        for architecture in architectures]
    for report in VerificationService().iter_batch(requests, jobs=1):
        events.append(("take", report.circuit))
    assert events == [(step, architecture) for architecture in architectures
                      for step in ("run", "take")]
    assert threads == {threading.get_ident()}


def test_unknown_algebraic_plugin_fails_loudly_not_as_mt_xor():
    """A plug-in algebraic backend without an engine scheme must not be
    silently dispatched through the XOR-rewriting branch."""
    from repro.api.registry import BackendSpec, register, unregister

    register(BackendSpec(name="mt-plugin", kind="algebraic",
                         description="test plug-in", cost_rank=9))
    try:
        with pytest.raises(VerificationError, match="rewriting scheme"):
            VerificationService().submit(VerificationRequest.from_architecture(
                "SP-AR-RC", 3, method="mt-plugin"))
    finally:
        unregister("mt-plugin")


def test_custom_backend_method_name_propagates():
    """A second sat-kind backend must not be mislabelled as sat-cec."""
    from repro.api.registry import BackendSpec, register, unregister

    register(BackendSpec(name="sat-custom", kind="sat",
                         description="test plug-in", cost_rank=9))
    try:
        service = VerificationService()
        report = service.submit(VerificationRequest.from_architecture(
            "SP-AR-RC", 3, method="sat-custom"))
        assert report.method == "sat-custom"
        assert report.verdict == "verified"

        from repro.experiments.runner import run_request
        row = run_request(VerificationRequest.from_architecture(
            "SP-AR-RC", 3, "sat-custom"))
        assert row["method"] == "sat-custom"
    finally:
        unregister("sat-custom")


def test_baselines_reject_non_multiplier_specifications(service):
    with pytest.raises(VerificationError, match="multiplier"):
        service.submit(VerificationRequest.from_architecture(
            "KS", 4, method="sat-cec", circuit_kind="adder",
            budgets=BUDGETS))


def test_adder_verification_through_the_service(service):
    report = service.submit(VerificationRequest.from_architecture(
        "KS", 5, method="mt-lr", circuit_kind="adder",
        budgets=BUDGETS))
    assert report.verdict == "verified"
    assert "adder" in (report.specification or "")
