"""The bit-parallel lane kernel against the scalar simulator.

:func:`~repro.circuit.simulate.simulate_lanes` evaluates every input vector
at once, one packed integer per signal.  :func:`~repro.circuit.simulate.simulate`
evaluates one vector gate by gate (``tests/circuit/test_topology.py`` holds
both to :func:`~repro.circuit.gates.evaluate_gate`) and is the reference: on
random netlists over every gate type, each signal must agree with it in
every lane.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit.gates import GateType
from repro.circuit.netlist import Netlist
from repro.circuit.simulate import (
    LANE_CHUNK,
    input_lanes,
    lane_product,
    lane_sum,
    simulate,
    simulate_lanes,
)
from repro.errors import CircuitError


@st.composite
def random_netlists(draw, min_inputs: int, max_inputs: int):
    """A random DAG over every gate type, added to the netlist out of order."""
    num_inputs = draw(st.integers(min_value=min_inputs, max_value=max_inputs))
    netlist = Netlist("random")
    signals = [netlist.add_input(f"i{k}") for k in range(num_inputs)]
    gates = []
    for index in range(draw(st.integers(min_value=1, max_value=16))):
        gate_type = draw(st.sampled_from(list(GateType)))
        if gate_type in (GateType.CONST0, GateType.CONST1):
            inputs = []
        elif gate_type in (GateType.NOT, GateType.BUF):
            inputs = [draw(st.sampled_from(signals))]
        else:
            arity = draw(st.integers(min_value=2, max_value=3))
            # XOR/XNOR reject duplicated inputs; the others accept them.
            unique = gate_type in (GateType.XOR, GateType.XNOR)
            if unique and len(signals) < arity:
                gate_type, arity, unique = GateType.AND, 2, False
            inputs = draw(st.lists(st.sampled_from(signals), min_size=arity,
                                   max_size=arity, unique=unique))
        output = f"g{index}"
        gates.append((gate_type, inputs, output))
        signals.append(output)
    # The kernel orders the gates itself, so insertion order must not matter.
    for gate_type, inputs, output in draw(st.permutations(gates)):
        netlist.add_gate(gate_type, inputs, output)
    netlist.add_output(signals[-1])
    return netlist


def _assert_lanes_match_scalar(netlist: Netlist, inputs: dict[str, int],
                               lanes: int) -> None:
    values = simulate_lanes(netlist, inputs, lanes)
    assert set(values) == set(netlist.signals())
    for lane in range(lanes):
        scalar = simulate(netlist, {name: (word >> lane) & 1
                                    for name, word in inputs.items()})
        for signal, bit in scalar.items():
            assert (values[signal] >> lane) & 1 == bit, (signal, lane)
    assert all(value >> lanes == 0 for value in values.values())


@settings(max_examples=80, deadline=None)
@given(random_netlists(min_inputs=1, max_inputs=8),
       st.integers(min_value=0, max_value=2**32))
def test_lanes_match_scalar_simulation(netlist, seed):
    [(inputs, lanes)] = input_lanes(netlist, samples=48, seed=seed)
    assert lanes == 48
    _assert_lanes_match_scalar(netlist, inputs, lanes)


def _wide_inputs(count: int) -> Netlist:
    netlist = Netlist("wide")
    for k in range(count):
        netlist.add_input(f"i{k}")
    return netlist


def _joined(chunks) -> dict[str, int]:
    """Each input's lanes over all chunks, as one packed integer."""
    joined: dict[str, int] = {}
    offset = 0
    for inputs, lanes in chunks:
        assert 0 < lanes <= LANE_CHUNK
        for name, value in inputs.items():
            assert 0 <= value < 1 << lanes
            joined[name] = joined.get(name, 0) | value << offset
        offset += lanes
    return joined


def test_sampled_vectors_follow_the_seed_in_chunks():
    netlist = _wide_inputs(17)
    samples = LANE_CHUNK + 100
    first = list(input_lanes(netlist, samples=samples, seed=3))
    assert [lanes for _, lanes in first] == [LANE_CHUNK, 100]
    assert first == list(input_lanes(netlist, samples=samples, seed=3))
    assert _joined(first) != _joined(input_lanes(netlist, samples=samples,
                                                 seed=4))
    assert list(input_lanes(netlist, samples=0)) == []


def test_lane_simulation_needs_every_input(paper_full_adder):
    with pytest.raises(CircuitError):
        simulate_lanes(paper_full_adder, {"a": 1, "b": 0}, 1)


@pytest.mark.parametrize("a_bits,b_bits", [(1, 1), (3, 2), (2, 4), (4, 4)])
def test_bit_sliced_product_and_sum_match_integer_arithmetic(a_bits, b_bits):
    netlist = Netlist("operands")
    a_names = netlist.add_input_word("a", a_bits)
    b_names = netlist.add_input_word("b", b_bits)
    [(inputs, lanes)] = input_lanes(netlist, samples=4096, seed=1)
    a = [inputs[name] for name in a_names]
    b = [inputs[name] for name in b_names]
    product, total = lane_product(a, b), lane_sum(a, b)
    assert len(product) == a_bits + b_bits
    assert len(total) == max(a_bits, b_bits) + 1

    def word(bits, lane):
        return sum(((bit >> lane) & 1) << i for i, bit in enumerate(bits))
    seen = set()
    for lane in range(lanes):
        a_value, b_value = word(a, lane), word(b, lane)
        seen.add((a_value, b_value))
        assert word(product, lane) == a_value * b_value
        assert word(total, lane) == a_value + b_value
    # 4096 draws cover every operand pair of these widths.
    assert len(seen) == 1 << (a_bits + b_bits)
