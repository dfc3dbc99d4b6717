"""The service's simulation stage: when it runs, what it reports, what it keeps.

When the algebra trips its budget on a request that searches for a
counterexample (``find_counterexample``) against the word-level
``"multiplier"`` or ``"adder"`` specification without a certificate, the
service simulates the circuit bit-parallel over ``counterexample_tries``
seeded vectors.  A mismatch turns the ``budget`` report into a refutation;
anything else leaves the algebraic path as it was.
"""

from __future__ import annotations

import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.api.report import VerificationReport
from repro.api.request import Budgets, VerificationRequest
from repro.api.service import VerificationService
from repro.circuit.gates import GateType
from repro.circuit.mutate import apply_mutation, list_mutations
from repro.circuit.netlist import Netlist
from repro.circuit.simulate import input_lanes, simulate_words
from repro.errors import ModelingError
from repro.generators.adders import generate_adder
from repro.generators.multipliers import generate_multiplier
from repro.modeling.model import AlgebraicModel
from repro.modeling.spec import multiplier_specification

ALGEBRAIC_COUNTERS = ["cancelled_vanishing_monomials", "reduction_time_s",
                      "rewrite_time_s", "num_polynomials", "num_monomials",
                      "max_polynomial_terms", "max_monomial_variables",
                      "peak_remainder"]

#: Trips the GB reduction of the 4-bit circuits below (their remainders
#: reach 25 monomials), while the default budgets let it finish.
TRIP = Budgets(monomial_budget=20)


@pytest.fixture(scope="module")
def service():
    return VerificationService()


@pytest.fixture(scope="module")
def buggy():
    netlist = generate_multiplier("SP-AR-RC", 4)
    return apply_mutation(netlist, list_mutations(netlist)[5])


def test_budget_trip_is_refuted_by_simulation(service, buggy):
    report = service.submit(VerificationRequest.from_netlist(
        buggy, budgets=TRIP))
    tripped = service.submit(VerificationRequest.from_netlist(
        buggy, budgets=TRIP, find_counterexample=False))
    assert tripped.verdict == "budget"
    assert report.verdict == "refuted" and report.status == "mismatch"
    assert report.counters == {"simulated_vectors": 4096}
    assert report.reason == tripped.reason
    assert report.remainder is None and report.specification is None
    assert report.certificate is None and report.attempts is None
    assert report.result is None
    assert report.time_s > 0 and report.time not in ("-", "TO")
    for key in ("method", "circuit", "width"):
        assert getattr(report, key) == getattr(tripped, key), key
    assert report.cross_check == {
        "backend": "sat-cec", "status": "different", "agrees": True,
        "counterexample_confirmed": True, "conflicts": 0}
    assert VerificationReport.from_json(report.to_json()).to_json() \
        == report.to_json()


def _first_failing_vector(netlist: Netlist, seed: int):
    """Index and assignment of the first sampled vector with ``s != a * b``."""
    index = 0
    for inputs, lanes in input_lanes(netlist, samples=4096, seed=seed):
        for lane in range(lanes):
            vector = {name: (inputs[name] >> lane) & 1
                      for name in netlist.inputs}
            a, b = (sum(vector[name] << i
                        for i, name in enumerate(netlist.input_word(prefix)))
                    for prefix in "ab")
            if simulate_words(netlist, {"a": a, "b": b}) != a * b:
                return index, vector
            index += 1
    return None


@pytest.mark.parametrize("seed", [0, 3])
def test_counterexample_is_the_first_failing_sampled_vector(service, buggy,
                                                            seed):
    report = service.submit(VerificationRequest.from_netlist(
        buggy, budgets=TRIP, seed=seed))
    assert report.counterexample == _first_failing_vector(buggy, seed)[1]


@pytest.mark.parametrize("changes", ["find_counterexample", "certificate",
                                     "specification"])
def test_the_stage_runs_only_for_word_level_searches(service, buggy,
                                                     changes):
    """No search, a certificate, or a custom specification: the trip stays."""
    extra = {"find_counterexample": {"find_counterexample": False},
             "certificate": {"certificate": True},
             "specification": {"specification": multiplier_specification(
                 AlgebraicModel.from_netlist(buggy))}}[changes]
    report = service.submit(VerificationRequest.from_netlist(
        buggy, budgets=TRIP, **extra))
    assert report.verdict == "budget"
    assert report.counters == {} and report.cross_check is None


@pytest.mark.parametrize("netlist,kind", [
    (generate_multiplier("SP-AR-RC", 4), "multiplier"),
    (generate_adder("RC", 4), "adder")])
def test_a_correct_circuit_that_trips_stays_budget(service, netlist, kind):
    report = service.submit(VerificationRequest.from_netlist(
        netlist, circuit_kind=kind, budgets=Budgets(monomial_budget=2)))
    assert report.verdict == "budget"
    assert report.counters == {} and report.counterexample is None


def test_untripped_requests_keep_the_algebraic_report(service, buggy,
                                                      monkeypatch):
    """A request the algebra decides never simulates a lane."""
    import sys

    def no_lanes(*args, **kwargs):
        raise AssertionError("the simulation stage ran")
    monkeypatch.setattr(sys.modules["repro.circuit.simulate"], "input_lanes",
                        no_lanes)
    refuted = service.submit(VerificationRequest.from_netlist(buggy))
    assert refuted.verdict == "refuted" and refuted.remainder
    assert list(refuted.counters) == ALGEBRAIC_COUNTERS
    assert refuted.reason is None
    # The algebra's counterexample settles the miter without a search.
    assert refuted.cross_check["agrees"] is True
    assert refuted.cross_check["conflicts"] == 0
    verified = service.submit(VerificationRequest.from_architecture(
        "BP-WT-CL", 4))
    assert verified.verdict == "verified"
    assert list(verified.counters) == ALGEBRAIC_COUNTERS


def test_adder_budget_trip_is_refuted_by_simulation(service):
    netlist = generate_adder("RC", 4)
    buggy = apply_mutation(netlist, list_mutations(netlist)[0])
    report = service.submit(VerificationRequest.from_netlist(
        buggy, circuit_kind="adder", budgets=Budgets(monomial_budget=2)))
    assert report.verdict == "refuted"
    assert report.counters == {"simulated_vectors": 4096}
    assert report.cross_check["counterexample_confirmed"] is True
    # No golden adder: the miter does not apply.
    assert report.cross_check["status"] == "not_applicable"


@pytest.mark.parametrize("tries", [-1, 0, 2.5, None])
def test_no_samples_leave_the_trip_standing(service, buggy, tries):
    """Wire budgets may carry any number; the stage then samples nothing."""
    report = service.submit(VerificationRequest.from_netlist(
        buggy, budgets=TRIP.replace(counterexample_tries=tries)))
    assert report.verdict == "budget"


def test_vectors_go_in_chunks_until_one_fails(service, monkeypatch):
    """With one-vector chunks, the stage stops at the first failing one."""
    import sys
    monkeypatch.setattr(sys.modules["repro.circuit.simulate"], "LANE_CHUNK", 1)
    netlist = generate_multiplier("SP-AR-RC", 4)
    [mutation] = [m for m in list_mutations(netlist)
                  if m.key == "ar0_1_s_16:xor->or"]
    buggy = apply_mutation(netlist, mutation)
    report = service.submit(VerificationRequest.from_netlist(
        buggy, budgets=Budgets(monomial_budget=2)))
    lane, vector = _first_failing_vector(buggy, 0)
    assert lane == 4
    assert report.counterexample == vector
    assert report.counters == {"simulated_vectors": lane + 1}


def test_time_budget_bounds_the_stage(service):
    """A huge sample count cannot outlast the request's time budget."""
    netlist = generate_multiplier("SP-AR-RC", 9)
    start = time.perf_counter()
    report = service.submit(VerificationRequest.from_netlist(
        netlist, budgets=Budgets(monomial_budget=2, time_budget_s=0.3,
                                 counterexample_tries=10**9)))
    assert time.perf_counter() - start < 3.0
    assert report.verdict == "budget"


def _no_b_word() -> Netlist:
    netlist = Netlist("no_b")
    netlist.add_input_word("a", 2)
    netlist.buf("a0", "s0")
    netlist.buf("a1", "s1")
    netlist.add_output_word(["s0", "s1"])
    return netlist


def _narrow_product() -> Netlist:
    netlist = Netlist("narrow")
    netlist.add_input_word("a", 2)
    netlist.add_input_word("b", 2)
    netlist.and_("a0", "b0", "s0")
    netlist.add_output("s0")
    return netlist


@pytest.mark.parametrize("build,message", [(_no_b_word, "no word with prefix 'b'"),
                                           (_narrow_product, "narrower")])
def test_malformed_requests_fail_whether_or_not_they_search(service, build,
                                                            message):
    errors = []
    for search in (True, False):
        with pytest.raises(ModelingError, match=message) as caught:
            service.submit(VerificationRequest.from_netlist(
                build(), find_counterexample=search, budgets=TRIP))
        errors.append(str(caught.value))
    assert errors[0] == errors[1]


_GATES = [GateType.AND, GateType.OR, GateType.XOR, GateType.NAND,
          GateType.NOR, GateType.XNOR, GateType.NOT, GateType.BUF]


@st.composite
def word_circuits(draw):
    """A 2x2-bit multiplier or adder: a catalog circuit, one of its
    single-gate mutants, or random gates driving the ``s`` word."""
    kind = draw(st.sampled_from(["multiplier", "adder"]))
    if draw(st.booleans()):
        golden = (generate_multiplier(draw(st.sampled_from(["SP-AR-RC",
                                                            "BP-WT-CL"])), 2)
                  if kind == "multiplier"
                  else generate_adder(draw(st.sampled_from(["RC", "KS"])), 2))
        mutation = draw(st.sampled_from([None] + list_mutations(golden)))
        return kind, (golden if mutation is None
                      else apply_mutation(golden, mutation))
    netlist = Netlist("random")
    signals = netlist.add_input_word("a", 2) + netlist.add_input_word("b", 2)
    outputs = 4 if kind == "multiplier" else 3
    for index in range(draw(st.integers(min_value=0, max_value=8)) + outputs):
        gate_type = draw(st.sampled_from(_GATES))
        arity = 1 if gate_type in (GateType.NOT, GateType.BUF) else 2
        inputs = draw(st.lists(st.sampled_from(signals), min_size=arity,
                               max_size=arity, unique=True))
        signals.append(netlist.add_gate(gate_type, inputs, f"g{index}"))
    for bit, signal in enumerate(signals[-outputs:]):
        netlist.buf(signal, f"s{bit}")
    netlist.add_output_word([f"s{bit}" for bit in range(outputs)])
    return kind, netlist


@settings(max_examples=60, deadline=None)
@given(word_circuits(), st.integers(min_value=1, max_value=4))
def test_the_stage_never_contradicts_the_algebra(case, monomial_budget):
    """Under a tripping budget, a verdict is the unlimited algebra's, or
    ``budget``; a refutation by simulation only where the algebra refutes."""
    kind, netlist = case
    service = VerificationService()
    tight = service.submit(VerificationRequest.from_netlist(
        netlist, circuit_kind=kind,
        budgets=Budgets(monomial_budget=monomial_budget)))
    full = service.submit(VerificationRequest.from_netlist(
        netlist, circuit_kind=kind, find_counterexample=False))
    assert tight.verdict in (full.verdict, "budget")
    if tight.verdict == "refuted":
        assert tight.cross_check["counterexample_confirmed"] is True
    if "simulated_vectors" in tight.counters:
        assert full.verdict == "refuted"
