"""Differential sweep: the from-scratch engine against a BDD oracle.

Single-gate mutants (:func:`repro.circuit.mutate.list_mutations`) are
verified with mt-lr and independently checked by
:func:`repro.baselines.bdd.equivalence.bdd_equivalence_check`, which
builds each output's ROBDD and compares it with the product's (or the
sum's, for adders).  BDDs rather than the SAT miter are the oracle
because they decide a 6-bit multiplier in milliseconds where SAT takes
seconds.

- 4 bits: every mutant of SP-AR-RC plus the baseline; each verdict must
  match the oracle and each refutation's counterexample must reproduce
  a wrong product under gate-level simulation.
- 4 bits, whole catalog: a seeded sample of mutants of every
  architecture, so Booth encoders, compressor trees and prefix adders
  are refuted against the oracle too.
- 3 bits, every algebraic method: the full SP-AR-RC mutant catalog.
- 5-bit standalone adders of every kind: every mutant, against the
  ``adder`` specification.
- 6 bits, where verdict-class bugs first showed: a seeded sample of
  mutants from three architectures under a small monomial budget (one
  sampled mutant would otherwise reduce for tens of seconds).  Every
  decided verdict must match the oracle, and most of the sample must be
  decided.  Through :class:`~repro.api.service.VerificationService`, whose
  simulation stage looks for a counterexample after a budget trip, the
  whole sample must be decided.
- 9 bits, through the service: every refutation replays, whichever stage
  found it, and a mutant the sampled vectors miss keeps its budget trip.
"""

from __future__ import annotations

import random

import pytest

from repro.api.request import Budgets, VerificationRequest
from repro.api.service import VerificationService
from repro.baselines.bdd.equivalence import bdd_equivalence_check
from repro.circuit.mutate import apply_mutation, list_mutations
from repro.circuit.simulate import simulate
from repro.errors import BlowUpError
from repro.generators.adders import ADDER_KINDS, generate_adder
from repro.generators.catalog import architecture_names
from repro.generators.multipliers import generate_multiplier
from repro.verification.engine import METHODS, verify

WIDE_ARCHITECTURES = ("SP-AR-RC", "SP-DT-HC", "BP-WT-CL")
WIDE_SAMPLE = 10
WIDE_BUDGETS = Budgets(monomial_budget=20_000)
CATALOG_SAMPLE = 6
SAMPLED_SAMPLE = 4

#: The counters of a report the algebra produced.
ALGEBRAIC_COUNTERS = {"cancelled_vanishing_monomials", "reduction_time_s",
                      "rewrite_time_s", "num_polynomials", "num_monomials",
                      "max_polynomial_terms", "max_monomial_variables",
                      "peak_remainder"}

#: Word-level reference per BDD ``operation``.
_REFERENCE = {"multiply": lambda a, b: a * b, "add": lambda a, b: a + b}


def _oracle(netlist, operation: str = "multiply") -> bool:
    """BDD verdict: ``True`` iff the circuit computes ``a * b`` (``a + b``)."""
    check = bdd_equivalence_check(netlist, operation)
    assert check.status != "unknown", "BDD oracle exhausted its node budget"
    return check.equivalent


def _wrong_product(netlist, assignment: dict[str, int],
                   operation: str = "multiply") -> bool:
    """Gate-level replay: does ``assignment`` produce a wrong result?"""
    values = simulate(netlist, assignment)

    def word(names):
        return sum(values[name] << i for i, name in enumerate(names))

    a = word(netlist.input_word("a"))
    b = word(netlist.input_word("b"))
    outputs = netlist.output_word("s")
    expected = _REFERENCE[operation](a, b) % (1 << len(outputs))
    return word(outputs) != expected


def _assert_matches_oracle(circuit, label: str, specification: str,
                           method: str = "mt-lr") -> bool:
    """Verify ``circuit`` and check it against the oracle; True if refuted."""
    operation = "multiply" if specification == "multiplier" else "add"
    result = verify(circuit, specification, method, seed=0)
    assert result.verified == _oracle(circuit, operation), label
    if result.verified:
        return False
    assert result.counterexample is not None, label
    assert _wrong_product(circuit, result.counterexample, operation), label
    return True


def test_every_4_bit_mutant_matches_the_bdd_oracle():
    netlist = generate_multiplier("SP-AR-RC", 4)
    mutations = list_mutations(netlist)
    assert len(mutations) == 260, "catalog slice changed size"
    circuits = [("baseline", netlist)] + [
        (mutation.key, apply_mutation(netlist, mutation))
        for mutation in mutations]
    refuted = sum(_assert_matches_oracle(circuit, label, "multiplier")
                  for label, circuit in circuits)
    assert refuted > 0


@pytest.mark.parametrize("architecture", architecture_names())
def test_sampled_4_bit_mutants_match_the_bdd_oracle(architecture):
    netlist = generate_multiplier(architecture, 4)
    rng = random.Random(f"differential:{architecture}-4")
    refuted = sum(
        _assert_matches_oracle(apply_mutation(netlist, mutation),
                               f"{architecture}-4 {mutation.key}",
                               "multiplier")
        for mutation in rng.sample(list_mutations(netlist), CATALOG_SAMPLE))
    assert refuted > 0, "the sample must contain at least one refutation"


@pytest.mark.parametrize("method", METHODS)
def test_every_3_bit_mutant_matches_the_bdd_oracle_under(method):
    netlist = generate_multiplier("SP-AR-RC", 3)
    refuted = sum(
        _assert_matches_oracle(apply_mutation(netlist, mutation),
                               f"{method} {mutation.key}", "multiplier",
                               method=method)
        for mutation in list_mutations(netlist))
    assert refuted > 0


@pytest.mark.parametrize("kind", sorted(ADDER_KINDS))
def test_every_5_bit_adder_mutant_matches_the_bdd_oracle(kind):
    netlist = generate_adder(kind, 5)
    assert not _assert_matches_oracle(netlist, f"{kind}-5 baseline", "adder")
    refuted = sum(
        _assert_matches_oracle(apply_mutation(netlist, mutation),
                               f"{kind}-5 {mutation.key}", "adder")
        for mutation in list_mutations(netlist))
    assert refuted > 0


@pytest.mark.parametrize("architecture", WIDE_ARCHITECTURES)
def test_6_bit_golden_circuits_verify(architecture):
    netlist = generate_multiplier(architecture, 6)
    assert verify(netlist, "multiplier", "mt-lr", budgets=WIDE_BUDGETS,
                  seed=0).verified
    assert _oracle(netlist)


def _wide_sample(width: int, size: int,
                 seed: str = "differential:{architecture}"):
    """``(label, mutant)`` pairs: a seeded sample of each wide architecture."""
    for architecture in WIDE_ARCHITECTURES:
        netlist = generate_multiplier(architecture, width)
        rng = random.Random(seed.format(architecture=architecture))
        for mutation in rng.sample(list_mutations(netlist), size):
            yield (f"{architecture}-{width} {mutation.key}",
                   apply_mutation(netlist, mutation))


def test_sampled_6_bit_mutants_match_the_bdd_oracle():
    decided = total = 0
    for label, mutant in _wide_sample(6, WIDE_SAMPLE):
        total += 1
        try:
            result = verify(mutant, "multiplier", "mt-lr",
                            budgets=WIDE_BUDGETS,
                            find_counterexample=False, seed=0)
        except BlowUpError:
            continue
        decided += 1
        assert result.verified == _oracle(mutant), label
    assert 3 * decided >= 2 * total, f"only {decided}/{total} decided"


def test_sampled_6_bit_mutants_are_all_decided_through_the_service():
    """The engine-level sample above, through the service's simulation stage."""
    service = VerificationService()
    sample = list(_wide_sample(6, WIDE_SAMPLE))
    assert len(sample) == 30
    simulated = 0
    for label, mutant in sample:
        report = service.submit(VerificationRequest.from_netlist(
            mutant, budgets=WIDE_BUDGETS))
        assert report.verdict in ("verified", "refuted"), label
        assert (report.verdict == "verified") == _oracle(mutant), label
        if report.verdict == "refuted":
            assert _wrong_product(mutant, report.counterexample), label
            assert report.cross_check["agrees"] is True, label
            assert report.cross_check["counterexample_confirmed"] is True
            simulated += report.counters == {"simulated_vectors": 4096}
    assert simulated > 0


@pytest.mark.parametrize("tries", [4096, 1])
def test_sampled_9_bit_mutants_replay_or_keep_their_trip(tries):
    """The stage samples ``tries`` vectors after a trip, and may miss.

    A refutation must replay whichever stage found it; a mutant the
    vectors miss stays ``budget``.  With one vector the stage misses
    often, so both outcomes show up.
    """
    service = VerificationService()
    budgets = WIDE_BUDGETS.replace(counterexample_tries=tries)
    stages = []
    for label, mutant in _wide_sample(9, SAMPLED_SAMPLE,
                                      seed="sampled:{architecture}-9"):
        report = service.submit(VerificationRequest.from_netlist(
            mutant, budgets=budgets))
        if report.counters == {"simulated_vectors": tries}:
            stages.append("simulation")
            assert report.verdict == "refuted" and report.remainder is None
            assert report.reason, label
        elif report.verdict == "budget":
            stages.append("budget")
            assert report.counters == {} and report.reason, label
            continue
        else:
            stages.append("algebra")
            assert set(report.counters) == ALGEBRAIC_COUNTERS, label
        if report.verdict == "refuted":
            assert _wrong_product(mutant, report.counterexample), label
            assert report.cross_check["agrees"] is True, label
            # Every counterexample, whoever found it, is a real one, so it
            # settles the SAT miter without a search.
            assert report.cross_check["conflicts"] == 0, label
    assert "simulation" in stages and "algebra" in stages
    if tries == 1:
        assert "budget" in stages
