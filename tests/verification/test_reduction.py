"""Tests for the Gröbner-basis reduction (Algorithm 1)."""

import pytest

from repro.algebra.polynomial import Polynomial
from repro.errors import BlowUpError
from repro.generators.adders import generate_adder
from repro.generators.multipliers import generate_multiplier
from repro.modeling.model import AlgebraicModel
from repro.modeling.spec import adder_specification, multiplier_specification
from repro.verification.reduction import (
    ReductionOptions,
    ReductionTrace,
    groebner_basis_reduction,
    substitution_order,
)
from repro.verification.rewriting import logic_reduction_rewriting
from repro.verification.vanishing import VanishingRules


def test_reduction_of_correct_adder_is_zero():
    netlist = generate_adder("RC", 4)
    model = AlgebraicModel.from_netlist(netlist)
    spec = adder_specification(model)
    remainder = groebner_basis_reduction(spec.polynomial, model, model.tails,
                                         ReductionOptions())
    assert remainder.is_zero


def test_reduction_trace_records_progress():
    netlist = generate_adder("RC", 4)
    model = AlgebraicModel.from_netlist(netlist)
    spec = adder_specification(model)
    trace = ReductionTrace()
    groebner_basis_reduction(spec.polynomial, model, model.tails,
                             ReductionOptions(), trace)
    assert trace.substitutions > 0
    assert trace.peak_monomials > 0
    assert trace.elapsed_s >= 0.0


def test_remainder_only_references_primary_inputs_on_mismatch():
    netlist = generate_adder("RC", 3)
    model = AlgebraicModel.from_netlist(netlist)
    spec = adder_specification(model)
    # Perturb the specification so it no longer matches the circuit.
    wrong = spec.polynomial + Polynomial.variable(model.input_vars[0])
    remainder = groebner_basis_reduction(wrong, model, model.tails,
                                         ReductionOptions())
    assert not remainder.is_zero
    assert remainder.support() <= set(model.input_vars)


def test_monomial_budget_triggers_blowup_error():
    netlist = generate_multiplier("SP-WT-CL", 4)
    model = AlgebraicModel.from_netlist(netlist)
    spec = multiplier_specification(model)
    with pytest.raises(BlowUpError):
        groebner_basis_reduction(spec.polynomial, model, model.tails,
                                 ReductionOptions(monomial_budget=5))


def test_time_budget_triggers_blowup_error():
    netlist = generate_multiplier("SP-WT-CL", 6)
    model = AlgebraicModel.from_netlist(netlist)
    spec = multiplier_specification(model)
    with pytest.raises(BlowUpError):
        groebner_basis_reduction(spec.polynomial, model, model.tails,
                                 ReductionOptions(time_budget_s=0.0))


def test_substitution_order_is_consumer_first():
    netlist = generate_multiplier("SP-RT-KS", 4)
    model = AlgebraicModel.from_netlist(netlist)
    rewritten = logic_reduction_rewriting(model, VanishingRules(model))
    order = substitution_order(model, rewritten.tails)
    assert set(order) == set(rewritten.tails)
    position = {var: i for i, var in enumerate(order)}
    for lead, tail in rewritten.tails.items():
        for var in tail.support():
            if var in position:
                assert position[var] > position[lead], (
                    "a variable was scheduled before one of its consumers")


def test_coefficient_modulus_is_congruent_and_never_flips_the_verdict():
    netlist = generate_multiplier("BP-WT-RC", 3)
    model = AlgebraicModel.from_netlist(netlist)
    spec = multiplier_specification(model)
    rewritten = logic_reduction_rewriting(model, VanishingRules(model))
    trace_mod = ReductionTrace()
    with_mod = groebner_basis_reduction(
        spec.polynomial, model, rewritten.tails,
        ReductionOptions(coefficient_modulus=spec.modulus), trace_mod)
    assert with_mod.is_zero
    # Dropping coefficient multiples of 2^(2n) is a congruence: reducing the
    # same specification without it must agree modulo 2^(2n) and can only
    # produce a larger intermediate remainder.
    trace_plain = ReductionTrace()
    without_mod = groebner_basis_reduction(
        spec.polynomial, model, rewritten.tails, ReductionOptions(), trace_plain)
    assert without_mod.drop_coefficient_multiples(spec.modulus).is_zero
    assert trace_plain.peak_monomials >= trace_mod.peak_monomials
