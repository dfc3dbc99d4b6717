"""Malformed netlists: the exact error of every construction and model check.

Model extraction checks the drivers inside its one topological pass, and
:meth:`Netlist.validate` confirms the generators' netlists in one pass
over the gates; both must keep the messages and the precedence of the
separate driver walk they replace (undriven gate input, then undriven
output, then the loop).
"""

from __future__ import annotations

import pytest

from repro.circuit.gates import Gate, GateType
from repro.circuit.netlist import Netlist
from repro.errors import CircuitError
from repro.modeling.model import AlgebraicModel


def _netlist(gates: list[tuple[str, GateType, tuple[str, ...]]],
             outputs: tuple[str, ...] = ("z",)) -> Netlist:
    """A netlist over inputs ``a``/``b`` with gates stored as given, so
    that undriven reads and loops get past ``add_gate``."""
    netlist = Netlist("malformed")
    netlist.add_input("a")
    netlist.add_input("b")
    for output, gate_type, inputs in gates:
        netlist._gates[output] = Gate(output, gate_type, inputs, output)
    for output in outputs:
        netlist.add_output(output)
    return netlist


LOOP = [("x", GateType.AND, ("a", "y")), ("y", GateType.OR, ("b", "x")),
        ("z", GateType.XOR, ("x", "y"))]

#: Per case: ``(gates, outputs, model error, validate error)``.
CASES = {
    "undriven gate input": (
        [("z", GateType.AND, ("a", "ghost"))], ("z",),
        "gate 'z' reads undriven signal 'ghost'",
        "gate 'z' reads undriven signal 'ghost'"),
    "undriven output": (
        [("z", GateType.AND, ("a", "b"))], ("z", "q"),
        "primary output 'q' is undriven",
        "primary output 'q' is undriven"),
    "loop": (
        LOOP, ("z",),
        "netlist contains a combinational loop",
        "combinational loop through signal 'x'"),
    "self-loop": (
        [("z", GateType.AND, ("a", "z"))], ("z",),
        "netlist contains a combinational loop",
        "combinational loop through signal 'z'"),
    "undriven input before undriven output and loop": (
        LOOP + [("w", GateType.AND, ("ghost", "a"))], ("z", "q"),
        "gate 'w' reads undriven signal 'ghost'",
        "gate 'w' reads undriven signal 'ghost'"),
    "undriven output before loop": (
        LOOP, ("z", "q"),
        "primary output 'q' is undriven",
        "primary output 'q' is undriven"),
    "first undriven read in gate order": (
        [("w", GateType.OR, ("b", "late")), ("z", GateType.AND, ("early", "a"))],
        ("z",),
        "gate 'w' reads undriven signal 'late'",
        "gate 'w' reads undriven signal 'late'"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_model_extraction_raises_the_driver_then_loop_error(case):
    gates, outputs, model_error, _ = CASES[case]
    with pytest.raises(CircuitError) as excinfo:
        AlgebraicModel.from_netlist(_netlist(gates, outputs))
    assert str(excinfo.value) == model_error


@pytest.mark.parametrize("case", sorted(CASES))
def test_validate_raises_the_driver_then_loop_error(case):
    gates, outputs, _, validate_error = CASES[case]
    with pytest.raises(CircuitError) as excinfo:
        _netlist(gates, outputs).validate()
    assert str(excinfo.value) == validate_error


def test_out_of_order_netlist_without_faults_validates_and_models():
    """Gates stored consumer first take the full check, and pass it."""
    netlist = _netlist([("z", GateType.XOR, ("x", "b")),
                        ("x", GateType.AND, ("a", "b"))])
    netlist.validate()
    model = AlgebraicModel.from_netlist(netlist)
    assert [model.ring.name(var) for var in model.variables()] == [
        "a", "b", "x", "z"]


@pytest.mark.parametrize("gate_type, inputs, message", [
    (GateType.NOT, ("a", "b"),
     "gate 'not' driving 'z' accepts at most 1 inputs, got 2"),
    (GateType.BUF, (), "gate 'buf' driving 'z' needs at least 1 inputs, got 0"),
    (GateType.AND, ("a",), "gate 'and' driving 'z' needs at least 2 inputs, got 1"),
    (GateType.CONST1, ("a",),
     "gate 'const1' driving 'z' accepts at most 0 inputs, got 1"),
    (GateType.XOR, ("a", "a"),
     "XOR/XNOR gate driving 'z' has duplicated inputs"),
    (GateType.XNOR, ("a", "b", "a"),
     "XOR/XNOR gate driving 'z' has duplicated inputs"),
])
def test_gate_arity_and_duplicate_input_errors(gate_type, inputs, message):
    netlist = _netlist([])
    with pytest.raises(CircuitError) as excinfo:
        netlist.add_gate(gate_type, inputs, "z")
    assert str(excinfo.value) == message
    assert not netlist.has_signal("z")


def test_duplicate_inputs_are_legal_outside_xor_and_xnor():
    netlist = _netlist([])
    netlist.add_gate(GateType.AND, ("a", "a"), "z")
    assert netlist.gate_of("z").arity == 2


@pytest.mark.parametrize("name", ["a", "z"])
def test_re_driven_signal_error(name):
    netlist = _netlist([])
    netlist.and_("a", "b", "z")
    with pytest.raises(CircuitError) as excinfo:
        netlist.or_("a", "b", name)
    assert str(excinfo.value) == f"signal {name!r} is already driven"


def test_fresh_names_follow_the_gate_keyword_and_skip_taken_names():
    netlist = _netlist([])
    netlist.and_("a", "b", "and_0")
    assert netlist.and_("a", "b") == "and_1"
    assert netlist.xor("a", "b") == "xor_2"
    assert netlist.fresh_signal() == "w_3"
