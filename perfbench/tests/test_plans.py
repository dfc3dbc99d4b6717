"""Plans are pure functions of (workload, seed) and keep their invariants.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import random
import statistics
from collections import Counter
from pathlib import Path

import pytest

import hostspeed
import make_cells
import plans
import run
import tracing
from oracle import MultiplierOracle

#: sha256 of each workload's plan for the default seed (0).  A change to
#: ``cells.json``, to the plan builders, or to the generators that render
#: the mutant Verilog changes the workload, and must update these on purpose.
DEFAULT_SEED_DIGESTS = {
    "wide-verify": "d11e552aa816ec781d4127306d73eb32e9b335de43690c7d24397bea470a8e2d",
    "mutant-refute": "35a0b024f486b7d28cacab777cfd151925d214029667c7b080e9e707d05e8781",
    "batch-replay": "a71ab44f6df9a8c3921b261de098906b148cc71897af5f454b1d18f5550948ff",
    "certify": "f25743175dbaac864882a8b39746fd2268897f5d916c369741b66a853764d7d5",
}


@pytest.mark.parametrize("workload", plans.WORKLOADS)
def test_plan_is_a_pure_function_of_workload_and_seed(workload):
    first = plans.build(workload, 7)
    assert plans.build(workload, 7) == first
    assert plans.build(workload, 8) != first


@pytest.mark.parametrize("workload", plans.WORKLOADS)
def test_default_seed_plan_digest_is_committed(workload):
    assert plans.digest(plans.build(workload, 0)) == DEFAULT_SEED_DIGESTS[workload]


def _cell(request: dict) -> tuple:
    return request["architecture"], request["width"], request["method"]


@pytest.mark.parametrize("seed", range(5))
def test_batch_repeats_were_answered_in_an_earlier_batch(seed):
    plan = plans.build("batch-replay", seed)
    answered = {_cell(request) for request in plan["priming"]["requests"]}
    assert len(answered) == plans.BATCH_SIZE
    probe = {_cell(request) for request in plans.probe("batch-replay")["requests"]}
    assert not probe & answered
    for batch in plan["requests"]:
        cells = [_cell(request) for request in batch["requests"]]
        assert len(set(cells)) == plans.BATCH_SIZE
        repeats = [cell for cell in cells if cell in answered]
        assert len(repeats) == plans.BATCH_REPEATS      # hit share 12/16
        answered.update(cells)
        assert not probe & answered


def test_batch_supply_cells_are_distinct():
    supply = [tuple(cell[:3]) for cell in plans.cells()["batch_supply"]]
    assert len(set(supply)) == len(supply)


def _passes(plan: dict, key: str = "requests") -> list[list]:
    size = len(plan[key]) // plans.PASSES
    return [plan[key][start:start + size] for start in range(0, len(plan[key]), size)]


def _canonical(requests: list[dict]) -> list[str]:
    return sorted(json.dumps(request, sort_keys=True) for request in requests)


@pytest.mark.parametrize("workload", ["wide-verify", "certify", "mutant-refute"])
def test_every_pass_sends_the_same_distinct_requests(workload):
    """A run stops only between passes, so its request mix is seed-free."""
    reference = None
    for seed in range(3):
        plan = plans.build(workload, seed)
        passes = _passes(plan)
        assert plan["block_starts"] == list(range(0, len(plan["requests"]),
                                                  len(passes[0])))
        assert run.MIN_SAMPLES[workload] % len(passes[0]) == 0   # whole passes
        for requests in passes:
            assert len(requests) >= 100     # ten samples beyond the p90
            canonical = _canonical(requests)
            assert len(set(canonical)) == len(canonical)
            reference = reference or canonical
            assert canonical == reference


def test_wide_verify_pass_is_every_architecture_at_every_width():
    spec = plans.cells()["wide_verify"]
    low, high = spec["widths"]
    requests = _passes(plans.build("wide-verify", 3))[0]
    assert sorted(_cell(request)[:2] for request in requests) == sorted(
        (architecture, width) for architecture in spec["architectures"]
        for width in range(low, high + 1))


def test_certify_list_has_the_documented_widths():
    widths = Counter(cell[1] for cell in plans.cells()["certify"])
    assert widths == make_cells.CERTIFY_COUNTS
    assert len({tuple(cell[:2]) for cell in plans.cells()["certify"]}) == sum(widths.values())


@pytest.mark.parametrize("seed", range(3))
def test_every_mutant_pass_holds_the_listed_verdict_mix(seed):
    assert Counter(entry[4] for entry in plans.cells()["mutants"]) == make_cells.MUTANT_MIX
    for labels in _passes(plans.build("mutant-refute", seed), "labels"):
        assert Counter(labels) == make_cells.MUTANT_MIX


def test_oracle_reference_is_the_product():
    oracle = MultiplierOracle(8)
    for vector in random.Random(0).sample(range(1 << 16), 300):
        a, b = vector & 0xFF, vector >> 8
        product = sum(((bits >> vector) & 1) << i
                      for i, bits in enumerate(oracle.product_bits))
        assert product == a * b


def test_oracle_separates_correct_and_faulty_circuits():
    from repro.circuit.mutate import apply_mutation, list_mutations
    from repro.circuit.verilog import write_verilog
    from repro.generators.multipliers import generate_multiplier

    oracle = MultiplierOracle(8)
    netlist = generate_multiplier("BP-WT-CL", 8)
    assert oracle.mismatches(write_verilog(netlist)) == 0
    faulty = [mutation for mutation in list_mutations(netlist)
              if mutation.signal == "s0"]
    wrong = oracle.mismatches(write_verilog(apply_mutation(netlist, faulty[0])))
    assert wrong
    vector = (wrong & -wrong).bit_length() - 1
    assignment = {f"a{i}": (vector >> i) & 1 for i in range(8)}
    assignment.update({f"b{j}": (vector >> (8 + j)) & 1 for j in range(8)})
    assert oracle.vector(assignment) == vector


def test_a_span_that_raises_keeps_its_error_counts():
    recorder = tracing.Recorder()

    def reduce(trace):
        trace["steps"] = 3
        raise OverflowError("budget")

    wrapped = recorder.wrap("layer", reduce, on_error=lambda args, kwargs, error: {
        "steps": args[0]["steps"], "message": str(error)})
    with pytest.raises(OverflowError):
        wrapped({})
    assert recorder.export()[0][5] == {"steps": 3, "message": "budget",
                                       "error": "OverflowError"}


def test_benchmark_json_names_the_traced_metrics():
    spec = json.loads((Path(plans.HERE).parent / "BENCHMARK.json").read_text())
    assert [(entry["name"], entry["unit"]) for entry in spec["per_layer"]] \
        == list(tracing.PER_LAYER)
    assert [entry["name"] for entry in spec["workloads"]] == list(plans.WORKLOADS)


def _measured(reference_ms: float) -> dict:
    """A measurement of 20 one-report requests next to a constant reference."""
    samples = [{"latency_ms": 10.0 * (index + 1), "reports": 1, "decided": 1,
                "failed": False} for index in range(20)]
    return {"samples": samples, "reference_ms": [reference_ms] * 21,
            "wall_s": 2.2, "setups_s": [0.3, 0.2, 0.4],
            "launch_reference_ms": [[reference_ms, reference_ms]] * 3,
            "reports_per_request": 1, "peak_rss_mb": 40.0}


def test_times_at_reference_speed_are_unscaled():
    metrics, counts = run.end_to_end(_measured(hostspeed.REFERENCE_MS))
    assert metrics == run.end_to_end(_measured(hostspeed.REFERENCE_MS), scaled=False)[0]
    assert counts["speed_scale"] == pytest.approx(1.0)
    assert metrics["latency_p50_ms"][0] == pytest.approx(105.0)
    assert metrics["setup_s"][0] == pytest.approx(0.3)
    assert metrics["reports_per_s"][0] == pytest.approx(20 / 2.2)


def test_a_host_at_half_speed_is_scaled_back():
    metrics, counts = run.end_to_end(_measured(2 * hostspeed.REFERENCE_MS))
    assert counts["speed_scale"] == pytest.approx(0.5)
    assert metrics["latency_p50_ms"][0] == pytest.approx(52.5)
    assert metrics["latency_p90_ms"][0] == pytest.approx(
        run.end_to_end(_measured(hostspeed.REFERENCE_MS))[0]["latency_p90_ms"][0] / 2)
    assert metrics["setup_s"][0] == pytest.approx(0.15)
    assert metrics["reports_per_s"][0] == pytest.approx(2 * 20 / 2.2)
    assert metrics["decided_share"][0] == 1.0
    assert metrics["peak_rss_mb"][0] == 40.0


def test_each_request_is_scaled_by_the_references_around_it():
    measured = _measured(hostspeed.REFERENCE_MS)
    # The host halves its speed for the last request only.
    measured["reference_ms"][-1] = 3 * hostspeed.REFERENCE_MS
    latencies = sorted([10.0 * (index + 1) for index in range(19)] + [200.0 / 2])
    metrics, _ = run.end_to_end(measured)
    assert metrics["latency_p90_ms"][0] == pytest.approx(
        statistics.quantiles(latencies, n=10)[8])


def test_reference_runs_on_every_allowed_cpu_and_restores_affinity():
    allowed = os.sched_getaffinity(0)
    assert hostspeed.reference_ms() > 0
    assert os.sched_getaffinity(0) == allowed
