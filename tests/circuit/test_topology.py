"""One topology per netlist: the cached sort, its resets, and its readers.

:meth:`Netlist.topology` sorts a netlist once and keeps the order and
levels until its structure changes; the model build, :func:`simulate`,
:func:`simulate_lanes` and the BDD builder all read it.  These tests hold
the kept sort to a fresh Kahn pass, show that no change leaves a stale one
behind, count the sorts of a served refutation, and pin the validated
:class:`Gate` tuple that the netlists hold.
"""

from __future__ import annotations

import pickle
import random
from collections import deque

import pytest

from repro.api.request import Budgets, VerificationRequest
from repro.api.service import VerificationService, _golden_multiplier
from repro.circuit.gates import Gate, GateType, evaluate_gate
from repro.circuit.mutate import Mutation, apply_mutation, list_mutations
from repro.circuit.netlist import Netlist
from repro.circuit.simulate import input_lanes, simulate, simulate_lanes
from repro.circuit.verilog import write_verilog
from repro.errors import CircuitError
from repro.generators.catalog import architecture_names
from repro.generators.multipliers import generate_multiplier


def _fresh_kahn(netlist: Netlist) -> tuple[list[str], dict[str, int]]:
    """Kahn's algorithm written out again: inputs and constants first, then
    each gate as its last input is dequeued; a gate's level is one more
    than its deepest input."""
    readers: dict[str, list[str]] = {}
    pending: dict[str, int] = {}
    for gate in netlist.gates():
        pending[gate.output] = len(gate.inputs)
        for signal in gate.inputs:
            readers.setdefault(signal, []).append(gate.output)
    order = list(netlist.inputs)
    order += [output for output, count in pending.items() if count == 0]
    levels = dict.fromkeys(order, 0)
    queue = deque(order)
    while queue:
        for reader in readers.get(queue.popleft(), ()):
            pending[reader] -= 1
            if pending[reader] == 0:
                order.append(reader)
                queue.append(reader)
                levels[reader] = 1 + max(
                    levels[signal] for signal in netlist.gate_of(reader).inputs)
    assert len(order) == len(netlist.inputs) + netlist.num_gates
    return order, levels


def _reference_values(netlist: Netlist, inputs: dict[str, int]) -> dict[str, int]:
    """Every signal's value through :func:`evaluate_gate` alone."""
    values = {name: inputs[name] & 1 for name in netlist.inputs}
    for signal in _fresh_kahn(netlist)[0][len(values):]:
        gate = netlist.gate_of(signal)
        values[signal] = evaluate_gate(gate.gate_type,
                                       [values[s] for s in gate.inputs])
    return values


# -- (a) the kept sort is a fresh Kahn pass ----------------------------------

@pytest.mark.parametrize("architecture", architecture_names())
def test_kept_topology_is_a_fresh_kahn_pass(architecture):
    """Each catalog architecture at 4 bits and a seeded sample of its
    single-gate mutants: the kept order and levels are a fresh pass's."""
    netlist = generate_multiplier(architecture, 4)
    assert netlist.topology() == _fresh_kahn(netlist)
    assert netlist.topology() is netlist.topology()
    sample = random.Random(f"topology:{architecture}").sample(
        list_mutations(netlist), 3)
    for mutation in sample:
        mutant = apply_mutation(netlist, mutation)
        assert mutant.topology() == _fresh_kahn(mutant), mutation.key


def _every_gate_netlist(seed: int) -> Netlist:
    """A random DAG with every gate type, at every arity it accepts up to
    four, over eight inputs."""
    rng = random.Random(seed)
    netlist = Netlist(f"every-gate-{seed}")
    signals = [netlist.add_input(f"i{k}") for k in range(8)]
    shapes = [(GateType.CONST0, 0), (GateType.CONST1, 0),
              (GateType.BUF, 1), (GateType.NOT, 1)]
    shapes += [(kind, arity) for kind in (GateType.AND, GateType.OR,
                                          GateType.XOR, GateType.NAND,
                                          GateType.NOR, GateType.XNOR)
               for arity in (2, 3, 4)]
    for index in range(60):
        kind, arity = shapes[index % len(shapes)]
        inputs = rng.sample(signals, arity)
        signals.append(netlist.add_gate(kind, inputs, f"g{index}"))
    for signal in signals[-8:]:
        netlist.add_output(signal)
    return netlist


@pytest.mark.parametrize("seed", range(4))
def test_simulators_agree_with_evaluate_gate(seed):
    """:func:`simulate` (its one-operator two-input path included) and
    every lane of :func:`simulate_lanes` read as :func:`evaluate_gate`
    would, for every gate type and arity, on seeded vectors."""
    netlist = _every_gate_netlist(seed)
    [(packed, lanes)] = list(input_lanes(netlist, 64, seed))
    lane_values = simulate_lanes(netlist, packed, lanes)
    for lane in range(lanes):
        vector = {name: (packed[name] >> lane) & 1 for name in netlist.inputs}
        expected = _reference_values(netlist, vector)
        assert simulate(netlist, vector) == expected, lane
        assert {signal: (value >> lane) & 1
                for signal, value in lane_values.items()} == expected, lane


# -- (b) no change leaves a stale topology -----------------------------------

def _small() -> Netlist:
    netlist = Netlist("small")
    netlist.add_input("a")
    netlist.add_input("b")
    netlist.and_("a", "b", "z")
    netlist.not_("z", "w")
    netlist.add_output("w")
    return netlist


def test_construction_resets_the_kept_topology():
    netlist = _small()
    netlist.topology()
    netlist.add_input("c")
    assert netlist.topology() == _fresh_kahn(netlist)
    assert netlist.topology()[0][:3] == ["a", "b", "c"]
    netlist.xor("w", "c", "y")
    assert netlist.topology() == _fresh_kahn(netlist)
    assert netlist.topology()[1]["y"] == 3
    netlist.add_output("ghost")
    with pytest.raises(CircuitError, match="primary output 'ghost' is undriven"):
        netlist.topology()


def test_replace_gate_resets_the_kept_topology():
    netlist = _small()
    netlist.topology()
    netlist.replace_gate("w", Gate("w", GateType.NOT, ("a",), "w"))
    assert netlist.topology() == _fresh_kahn(netlist)
    assert netlist.topology()[1]["w"] == 1
    netlist.replace_gate("z", Gate("z", GateType.AND, ("a", "w"), "z"))
    netlist.replace_gate("w", Gate("w", GateType.NOT, ("z",), "w"))
    with pytest.raises(CircuitError, match="combinational loop"):
        simulate(netlist, {"a": 1, "b": 0})


def test_a_copy_and_its_original_change_apart():
    netlist = _small()
    netlist.topology()
    clone = netlist.copy("clone")
    clone.buf("w", "extra")
    clone.add_output("extra")
    assert clone.topology() == _fresh_kahn(clone)
    assert "extra" in clone.topology()[0]
    assert netlist.topology() == _fresh_kahn(netlist)
    assert "extra" not in netlist.topology()[0]


def test_a_loop_stored_past_add_gate_still_raises():
    """Gates written straight into ``_gates`` after a sort, as the
    malformed-netlist tests do, are not hidden by the kept order."""
    netlist = _small()
    assert simulate(netlist, {"a": 1, "b": 1})["w"] == 0
    netlist._gates["x"] = Gate("x", GateType.AND, ("a", "y"), "x")
    netlist._gates["y"] = Gate("y", GateType.NOT, ("x",), "y")
    with pytest.raises(CircuitError, match="combinational loop"):
        simulate(netlist, {"a": 1, "b": 1})
    with pytest.raises(CircuitError, match="combinational loop"):
        netlist.topology()


# -- (c) one sort per served netlist -----------------------------------------

@pytest.fixture()
def sorts(monkeypatch):
    """The netlist of every Kahn pass, in order."""
    sorted_netlists: list[Netlist] = []
    sort = Netlist._sort

    def spy(self):
        sorted_netlists.append(self)
        return sort(self)

    monkeypatch.setattr(Netlist, "_sort", spy)
    return sorted_netlists


#: Refuted 8-bit mutants, and whether the refutation probe's lane search
#: or the algebra's remainder refutes them; either way the counterexample
#: is replayed on the mutant and on the golden, which settles the miter.
REFUTED_8_BIT = [
    ("SP-WT-CL", Mutation("cla_p13_312", GateType.XOR, GateType.XNOR), True),
    ("SP-AR-RC", Mutation("ar0_8_c_100", GateType.OR, GateType.AND), False),
]


def test_a_refuted_verilog_submit_sorts_its_netlist_once(sorts):
    _golden_multiplier.cache_clear()
    service = VerificationService()
    for index, (architecture, mutation, probed) in enumerate(REFUTED_8_BIT):
        text = write_verilog(apply_mutation(
            generate_multiplier(architecture, 8), mutation))
        sorts.clear()
        report = service.submit(VerificationRequest.from_verilog(
            text=text, budgets=Budgets(monomial_budget=20_000)))
        assert report.verdict == "refuted", architecture
        assert ("simulated_vectors" in report.counters) is probed
        assert report.cross_check["conflicts"] == 0, architecture
        golden = _golden_multiplier(8)
        assert len([netlist for netlist in sorts
                    if netlist is not golden]) == 1, architecture
        # The golden is kept per width and sorted by its first replay.
        assert sorts.count(golden) == (1 if index == 0 else 0), architecture


# -- (d) the validated gate tuple --------------------------------------------

@pytest.mark.parametrize(("gate_type", "inputs", "message"), [
    (GateType.AND, ("a",), "gate 'and' driving 'z' needs at least 2 inputs, got 1"),
    (GateType.XNOR, (), "gate 'xnor' driving 'z' needs at least 2 inputs, got 0"),
    (GateType.NOT, ("a", "b"),
     "gate 'not' driving 'z' accepts at most 1 inputs, got 2"),
    (GateType.BUF, (), "gate 'buf' driving 'z' needs at least 1 inputs, got 0"),
    (GateType.CONST1, ("a",),
     "gate 'const1' driving 'z' accepts at most 0 inputs, got 1"),
    (GateType.XOR, ("a", "b", "a"),
     "XOR/XNOR gate driving 'z' has duplicated inputs"),
])
def test_gate_rejects_what_it_always_rejected(gate_type, inputs, message):
    with pytest.raises(CircuitError) as error:
        Gate("z", gate_type, inputs, "z")
    assert str(error.value) == message
    with pytest.raises(CircuitError) as keyword_error:
        Gate(output="z", gate_type=gate_type, inputs=inputs)
    assert str(keyword_error.value) == message


def test_gate_is_a_frozen_tuple_that_pickles():
    gate = Gate("z", GateType.NAND, ("a", "b", "c"), "g7")
    assert (gate.output, gate.gate_type, gate.inputs, gate.name, gate.arity) \
        == ("z", GateType.NAND, ("a", "b", "c"), "g7", 3)
    assert Gate(output="z", gate_type=GateType.NOT, inputs=("a",)).name == ""
    copy = pickle.loads(pickle.dumps(gate))
    assert copy == gate and type(copy) is Gate and hash(copy) == hash(gate)
    with pytest.raises(AttributeError):
        gate.output = "y"
    with pytest.raises(CircuitError, match="needs at least 2 inputs"):
        gate._replace(inputs=("a",))
    netlist = generate_multiplier("SP-WT-CL", 4)
    clone = pickle.loads(pickle.dumps(netlist))
    assert list(clone.gates()) == list(netlist.gates())
    assert clone.topology() == netlist.topology()
