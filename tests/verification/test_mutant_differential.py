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
  decided.
"""

from __future__ import annotations

import random

import pytest

from repro.api.request import Budgets
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


def test_sampled_6_bit_mutants_match_the_bdd_oracle():
    decided = total = 0
    for architecture in WIDE_ARCHITECTURES:
        netlist = generate_multiplier(architecture, 6)
        rng = random.Random(f"differential:{architecture}")
        for mutation in rng.sample(list_mutations(netlist), WIDE_SAMPLE):
            mutant = apply_mutation(netlist, mutation)
            total += 1
            try:
                result = verify(mutant, "multiplier", "mt-lr",
                                budgets=WIDE_BUDGETS,
                                find_counterexample=False, seed=0)
            except BlowUpError:
                continue
            decided += 1
            assert result.verified == _oracle(mutant), \
                f"{architecture}-6 {mutation.key}"
    assert 3 * decided >= 2 * total, f"only {decided}/{total} decided"
