"""Property tests: the bitmask implied-literal core vs a set reference.

``VanishingRules`` packs the ``must1``/``must0`` implied-literal tables into
``(pos, neg)`` integer bitmasks and runs the consistency test with a handful
of machine-level AND/OR operations, behind a verdict memo and a relevance
prefilter.  This module pins all of that against an independent frozenset
re-implementation of the original rule (the pre-bitmask semantics), on
random DAG netlists and on the generated circuits.
"""

from __future__ import annotations

import random

import pytest

from repro.algebra.monomial import Monomial, bits_of, mask_of
from repro.circuit.gates import GateType
from repro.circuit.netlist import Netlist
from repro.generators.adders import generate_adder
from repro.generators.multipliers import generate_multiplier
from repro.modeling.model import AlgebraicModel
from repro.verification.vanishing import VanishingRules

Literal = tuple[int, bool]


class FrozensetReference:
    """The original frozenset implementation of the implied-literal rule.

    Kept deliberately independent of the bitmask code paths: literal sets
    are Python frozensets, the consistency test walks plain sets, and no
    caching or relevance prefilters are involved.
    """

    def __init__(self, model: AlgebraicModel,
                 max_implied_literals: int = 256) -> None:
        self.model = model
        self.max_implied_literals = max_implied_literals
        self._must1: dict[int, frozenset[Literal]] = {}
        self._must0: dict[int, frozenset[Literal]] = {}
        self._xor_support: dict[int, tuple[int, ...]] = {}
        self._xnor_support: dict[int, tuple[int, ...]] = {}
        for var, record in model.records.items():
            if record.gate_type is GateType.XOR and len(record.inputs) == 2:
                self._xor_support[var] = record.inputs
            elif (record.gate_type is GateType.XNOR
                  and len(record.inputs) == 2):
                self._xnor_support[var] = record.inputs

    def must(self, var: int, value: bool) -> frozenset[Literal]:
        table = self._must1 if value else self._must0
        cached = table.get(var)
        if cached is not None:
            return cached
        record = self.model.records.get(var)
        literals: set[Literal] = {(var, value)}
        gate = record.gate_type if record is not None else None
        if gate is not None:
            if value:
                if gate in (GateType.AND, GateType.BUF):
                    for child in record.inputs:
                        literals |= self.must(child, True)
                elif gate is GateType.NOT:
                    literals |= self.must(record.inputs[0], False)
                elif gate is GateType.NOR:
                    for child in record.inputs:
                        literals |= self.must(child, False)
                elif gate is GateType.CONST0:
                    literals.add((var, False))
            else:
                if gate in (GateType.OR, GateType.BUF):
                    for child in record.inputs:
                        literals |= self.must(child, False)
                elif gate is GateType.NOT:
                    literals |= self.must(record.inputs[0], True)
                elif gate is GateType.NAND:
                    for child in record.inputs:
                        literals |= self.must(child, True)
                elif gate is GateType.CONST1:
                    literals.add((var, True))
        if len(literals) > self.max_implied_literals:
            literals = {(var, value)}
        result = frozenset(literals)
        table[var] = result
        return result

    def is_vanishing_mask(self, mask: int) -> bool:
        if mask.bit_count() < 2:
            return False
        positive: set[int] = set()
        negative: set[int] = set()
        for var in bits_of(mask):
            for lit_var, polarity in self.must(var, True):
                if polarity:
                    if lit_var in negative:
                        return True
                    positive.add(lit_var)
                else:
                    if lit_var in positive:
                        return True
                    negative.add(lit_var)
        for var in positive:
            support = self._xor_support.get(var)
            if support is not None:
                a, b = support
                if ((a in positive and b in positive)
                        or (a in negative and b in negative)):
                    return True
            support = self._xnor_support.get(var)
            if support is not None:
                a, b = support
                if ((a in positive and b in negative)
                        or (a in negative and b in positive)):
                    return True
        for var in negative:
            support = self._xor_support.get(var)
            if support is not None:
                a, b = support
                if ((a in positive and b in negative)
                        or (a in negative and b in positive)):
                    return True
            support = self._xnor_support.get(var)
            if support is not None:
                a, b = support
                if ((a in positive and b in positive)
                        or (a in negative and b in negative)):
                    return True
        return False


def random_netlist(rng: random.Random, num_inputs: int = 5,
                   num_gates: int = 40) -> Netlist:
    """A random combinational DAG over all gate types."""
    netlist = Netlist("random")
    signals = [netlist.add_input(f"i{index}") for index in range(num_inputs)]
    unary = ("not_", "buf")
    binary = ("and_", "or_", "xor", "nand", "nor", "xnor")
    for index in range(num_gates):
        if rng.random() < 0.15:
            builder = getattr(netlist, rng.choice(unary))
            signal = builder(rng.choice(signals), f"g{index}")
        else:
            builder = getattr(netlist, rng.choice(binary))
            a, b = rng.sample(signals, 2) if len(signals) > 1 else (
                signals[0], signals[0])
            signal = builder(a, b, f"g{index}")
        signals.append(signal)
    netlist.add_output(signals[-1])
    return netlist


@pytest.mark.parametrize("seed", range(8))
def test_bitmask_tables_match_frozenset_reference_on_random_netlists(seed):
    rng = random.Random(seed)
    netlist = random_netlist(rng)
    model = AlgebraicModel.from_netlist(netlist)
    rules = VanishingRules(model)
    reference = FrozensetReference(model)

    variables = list(model.records)
    # The implied-literal tables agree literal for literal.
    for var in variables:
        for value in (True, False):
            assert rules.implied_literals(var, value) == reference.must(
                var, value), f"must table differs for var {var}, {value}"

    # Verdicts agree on random monomials (including repeats, which exercise
    # the cache), and supermasks of known-vanishing masks check that the
    # rule itself is monotone under adding variables.
    vanishing_masks = []
    for _ in range(300):
        size = rng.randint(2, 6)
        mask = mask_of(rng.sample(variables, size))
        expected = reference.is_vanishing_mask(mask)
        assert rules.is_vanishing_mask(mask) == expected, (
            f"verdict differs for mask {bits_of(mask)}")
        if expected:
            vanishing_masks.append(mask)
    for mask in vanishing_masks:
        extra = 1 << rng.choice(variables)
        supermask = mask | extra
        assert rules.is_vanishing_mask(supermask), (
            "monotonicity violated: supermask of a vanishing mask")
        assert reference.is_vanishing_mask(supermask)


@pytest.mark.parametrize("builder", [
    lambda: generate_adder("KS", 5),
    lambda: generate_adder("CL", 4),
    lambda: generate_multiplier("SP-DT-HC", 3),
    lambda: generate_multiplier("BP-WT-RC", 3),
])
def test_bitmask_verdicts_match_reference_on_generated_circuits(builder):
    model = AlgebraicModel.from_netlist(builder())
    rules = VanishingRules(model)
    reference = FrozensetReference(model)
    rng = random.Random(99)
    variables = list(model.records)
    agree = disagree = 0
    for _ in range(400):
        mask = mask_of(rng.sample(variables, rng.randint(2, 5)))
        if rules.is_vanishing_mask(mask) == reference.is_vanishing_mask(mask):
            agree += 1
        else:
            disagree += 1
    assert disagree == 0 and agree == 400


def test_relevance_prefilter_is_a_necessary_condition():
    """Masks disjoint from ``relevant_mask`` never vanish per the reference."""
    rng = random.Random(7)
    for seed in range(4):
        netlist = random_netlist(random.Random(seed), num_gates=30)
        model = AlgebraicModel.from_netlist(netlist)
        rules = VanishingRules(model)
        reference = FrozensetReference(model)
        variables = list(model.records)
        irrelevant = [var for var in variables
                      if not (rules.relevant_mask >> var) & 1]
        for _ in range(120):
            size = rng.randint(2, min(5, len(irrelevant) or 2))
            if len(irrelevant) < size:
                break
            mask = mask_of(rng.sample(irrelevant, size))
            assert not reference.is_vanishing_mask(mask), (
                "relevance prefilter would skip a genuinely vanishing mask")
            assert not rules.is_vanishing_mask(mask)


def test_cache_counters_and_cap_reset():
    model = AlgebraicModel.from_netlist(generate_multiplier("SP-AR-RC", 3))
    rules = VanishingRules(model, cache_limit=8)
    rng = random.Random(3)
    variables = list(model.records)
    masks = [mask_of(rng.sample(variables, 3)) for _ in range(64)]
    relevant = [m for m in masks if m & rules.relevant_mask]
    assert len(relevant) > 16, "sample must exercise the cache"
    for mask in relevant:
        rules.is_vanishing_mask(mask)
    assert rules.cache_misses > 0
    assert rules.cache_resets >= 1, "tiny cache cap must force resets"
    assert len(rules.cache) <= 8
    before_hits = rules.cache_hits
    cached_mask = next(iter(rules.cache))
    rules.is_vanishing_mask(cached_mask)
    assert rules.cache_hits == before_hits + 1

    # Verdicts survive resets (the rule is deterministic).
    reference = FrozensetReference(model)
    for mask in relevant:
        assert rules.is_vanishing_mask(mask) == reference.is_vanishing_mask(mask)


def test_xor_and_only_mode_unchanged_by_bitmask_core():
    """Strict mode still detects exactly the paper's XOR-AND pattern."""
    netlist = Netlist("pg")
    a, b = netlist.add_input("a"), netlist.add_input("b")
    netlist.xor(a, b, "X")
    netlist.and_(a, b, "D")
    netlist.add_output("X")
    model = AlgebraicModel.from_netlist(netlist)
    strict = VanishingRules(model, xor_and_only=True)
    ring = model.ring
    assert strict.is_vanishing(Monomial([ring.index("X"), ring.index("D")]))
    assert not strict.is_vanishing(
        Monomial([ring.index("X"), ring.index("a"), ring.index("b")]))


@pytest.mark.parametrize("cap", [1, 3, 6])
def test_capped_tables_match_the_reference(cap):
    """An entry past ``max_implied_literals`` is the self-literal, in the
    tables and in every entry and verdict built on top of it."""
    for seed in range(4):
        rng = random.Random(seed)
        model = AlgebraicModel.from_netlist(random_netlist(rng))
        rules = VanishingRules(model, max_implied_literals=cap)
        reference = FrozensetReference(model, max_implied_literals=cap)
        variables = list(model.records)
        for var in variables:
            for value in (True, False):
                assert rules.implied_literals(var, value) == reference.must(
                    var, value), f"must table differs for var {var}, {value}"
        for _ in range(200):
            mask = mask_of(rng.sample(variables, rng.randint(2, 5)))
            assert rules.is_vanishing_mask(mask) == reference.is_vanishing_mask(mask)
