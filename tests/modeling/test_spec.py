"""Tests for the specification polynomials."""

import itertools

import pytest

from repro.errors import ModelingError
from repro.generators.adders import generate_adder
from repro.generators.multipliers import generate_multiplier
from repro.modeling.model import AlgebraicModel
from repro.modeling.spec import (
    adder_specification,
    custom_specification,
    multiplier_specification,
)


def test_multiplier_specification_vanishes_on_circuit_valuations():
    netlist = generate_multiplier("SP-AR-RC", 3)
    model = AlgebraicModel.from_netlist(netlist)
    spec = multiplier_specification(model)
    assert spec.modulus == 1 << 6
    ring = model.ring
    for a_val, b_val in itertools.product(range(8), repeat=2):
        assignment = {ring.index(f"a{i}"): (a_val >> i) & 1 for i in range(3)}
        assignment.update({ring.index(f"b{i}"): (b_val >> i) & 1 for i in range(3)})
        values = model.evaluate(assignment)
        assert spec.polynomial.evaluate(values) == 0


def test_adder_specification_vanishes_on_circuit_valuations():
    netlist = generate_adder("CL", 4)
    model = AlgebraicModel.from_netlist(netlist)
    spec = adder_specification(model)
    assert spec.modulus is None
    ring = model.ring
    for a_val, b_val in itertools.product(range(16), repeat=2):
        assignment = {ring.index(f"a{i}"): (a_val >> i) & 1 for i in range(4)}
        assignment.update({ring.index(f"b{i}"): (b_val >> i) & 1 for i in range(4)})
        values = model.evaluate(assignment)
        assert spec.polynomial.evaluate(values) == 0


def test_specification_description_and_modulus_toggle():
    netlist = generate_multiplier("BP-WT-CL", 4)
    model = AlgebraicModel.from_netlist(netlist)
    spec = multiplier_specification(model, use_modulus=False)
    assert spec.modulus is None
    assert "4x4" in spec.description
    spec_mod = multiplier_specification(model)
    assert "mod 2^8" in spec_mod.description


def test_apply_modulus_drops_wrapped_terms():
    from repro.algebra.polynomial import Polynomial

    spec = custom_specification(Polynomial.zero(), modulus=8)
    remainder = Polynomial.from_terms([(8, [1]), (3, [2])])
    reduced = spec.apply_modulus(remainder)
    assert reduced.coefficient([1]) == 0
    assert reduced.coefficient([2]) == 3
    no_mod = custom_specification(Polynomial.zero())
    assert no_mod.apply_modulus(remainder) == remainder


@pytest.mark.parametrize("modulus", [0, -8, 6, 12])
def test_modulus_must_be_a_positive_power_of_two(modulus):
    from repro.algebra.polynomial import Polynomial

    with pytest.raises(ModelingError, match="power of two"):
        custom_specification(Polynomial.zero(), modulus=modulus)


@pytest.mark.parametrize("modulus", [8, None])
def test_power_of_two_or_no_modulus_is_accepted(modulus):
    from repro.algebra.polynomial import Polynomial

    spec = custom_specification(Polynomial.zero(), modulus=modulus)
    assert spec.modulus == modulus


def test_narrow_output_word_rejected():
    netlist = generate_adder("RC", 4)   # outputs are only width+1 bits
    model = AlgebraicModel.from_netlist(netlist)
    with pytest.raises(ModelingError):
        multiplier_specification(model)
