"""Tests for bug injection."""

import itertools

import pytest

from repro.circuit.mutate import (
    _SWAPPABLE,
    Mutation,
    apply_mutation,
    inject_bug,
    list_mutations,
)
from repro.circuit.gates import GateType, evaluate_gate
from repro.circuit.netlist import Netlist
from repro.circuit.simulate import exhaustive_check, simulate
from repro.errors import CircuitError
from repro.generators.multipliers import generate_multiplier


def test_list_mutations_covers_every_gate(paper_full_adder):
    mutations = list_mutations(paper_full_adder)
    mutated_signals = {m.signal for m in mutations}
    assert mutated_signals == {"x1", "x2", "s", "x4", "c"}
    assert all(m.original is not m.mutated for m in mutations)


def test_apply_mutation_changes_function(paper_full_adder):
    mutation = Mutation("x2", GateType.AND, GateType.OR)
    mutated = apply_mutation(paper_full_adder, mutation)
    assert mutated.gate_of("x2").gate_type is GateType.OR
    # The original netlist is untouched.
    assert paper_full_adder.gate_of("x2").gate_type is GateType.AND


def test_apply_mutation_validates_original_type(paper_full_adder):
    with pytest.raises(CircuitError):
        apply_mutation(paper_full_adder,
                       Mutation("x2", GateType.OR, GateType.AND))


def test_injected_bug_changes_multiplier_function():
    netlist = generate_multiplier("SP-AR-RC", 3)
    observable = 0
    for seed in range(8):
        buggy, mutation = inject_bug(netlist, seed=seed)
        assert mutation.describe()
        ok, counterexample = exhaustive_check(buggy, lambda a, b: a * b,
                                              ["a", "b"], [3, 3])
        if not ok:
            observable += 1
            assert counterexample is not None
    # The occasional mutation can be functionally masked (e.g. a gate feeding
    # a truncated carry), but the vast majority must change the function.
    assert observable >= 6


def test_inject_bug_is_deterministic():
    netlist = generate_multiplier("SP-AR-RC", 3)
    _, first = inject_bug(netlist, seed=3)
    _, second = inject_bug(netlist, seed=3)
    assert first == second


@pytest.mark.parametrize("gate_type", list(_SWAPPABLE), ids=lambda t: t.value)
def test_every_swap_changes_the_gate_function(gate_type):
    """A mutant that computes the same function would be a silent no-op."""
    arities = (1,) if gate_type.max_arity == 1 else (2, 3)
    for arity in arities:
        netlist = Netlist(f"one_{gate_type.value}")
        inputs = [netlist.add_input(f"x{i}") for i in range(arity)]
        netlist.add_gate(gate_type, inputs, "y")
        netlist.add_output("y")
        mutations = list_mutations(netlist)
        assert [m.mutated for m in mutations] == list(_SWAPPABLE[gate_type])
        for mutation in mutations:
            mutant = apply_mutation(netlist, mutation)
            assert mutant.gate_of("y").inputs == tuple(inputs)
            differs = [
                bits for bits in itertools.product((0, 1), repeat=arity)
                if simulate(mutant, dict(zip(inputs, bits)))["y"]
                != evaluate_gate(gate_type, bits)]
            assert differs, f"{mutation.key} at arity {arity}"


def test_mutation_keys_are_unique_and_self_describing():
    """Campaign row ids and resume files are built from ``Mutation.key``."""
    mutations = list_mutations(generate_multiplier("BP-WT-CL", 4))
    keys = [mutation.key for mutation in mutations]
    assert len(keys) == len(set(keys))
    for mutation in mutations:
        assert mutation.key == (f"{mutation.signal}:{mutation.original.value}"
                                f"->{mutation.mutated.value}")
        assert mutation.original.value in mutation.describe()
        assert mutation.mutated.value in mutation.describe()


def test_every_mutation_rewrites_exactly_one_gate():
    netlist = generate_multiplier("SP-DT-HC", 3)
    original = {gate.output: gate for gate in netlist.gates()}
    for mutation in list_mutations(netlist):
        mutant = apply_mutation(netlist, mutation)
        mutant.validate()
        assert mutant.inputs == netlist.inputs
        assert mutant.outputs == netlist.outputs
        changed = {gate.output: gate for gate in mutant.gates()
                   if gate != original[gate.output]}
        assert list(changed) == [mutation.signal], mutation.key
        gate = changed[mutation.signal]
        assert gate.gate_type is mutation.mutated
        assert gate.inputs == original[mutation.signal].inputs
