"""Bit-true simulation of netlists.

Simulation serves three purposes: validating the arithmetic generators
against the integer functions they are supposed to implement, providing the
ground truth used by property-based tests of the vanishing-monomial rule
(every monomial removed by the rule must evaluate to zero on the circuit),
and searching for a counterexample when the algebra trips its budget.

:func:`simulate` evaluates one input vector gate by gate through
:func:`~repro.circuit.gates.evaluate_gate`.  :func:`simulate_lanes`
evaluates many vectors at once: each signal is one Python integer whose bit
``k`` is the signal's value in vector ``k`` (lane ``k``), so one big-integer
operation per gate input covers every vector.  :func:`simulate` stays the
reference the lane kernel is tested against, and the replay that confirms a
counterexample the lanes found.
"""

from __future__ import annotations

import itertools
import random
from typing import Callable, Iterator, Mapping, Sequence

from repro.circuit.analysis import topological_signals
from repro.circuit.gates import GateType, evaluate_gate
from repro.circuit.netlist import Netlist
from repro.errors import CircuitError

#: Most lanes :func:`input_lanes` hands out at once.  It bounds a lane
#: simulation's memory at 2 KB a signal whatever the sample count, and lets
#: a search that fails early stop after the first chunk.
LANE_CHUNK = 16384


def simulate(netlist: Netlist, inputs: Mapping[str, int]) -> dict[str, int]:
    """Evaluate every signal under the given primary-input assignment."""
    values: dict[str, int] = {}
    for name in netlist.inputs:
        if name not in inputs:
            raise CircuitError(f"missing value for primary input {name!r}")
        values[name] = inputs[name] & 1
    for signal in topological_signals(netlist):
        if signal in values:
            continue
        gate = netlist.gate_of(signal)
        values[signal] = evaluate_gate(gate.gate_type,
                                       [values[s] for s in gate.inputs])
    return values


def input_lanes(netlist: Netlist, samples: int,
                seed: int = 0) -> Iterator[tuple[dict[str, int], int]]:
    """``samples`` packed primary-input vectors for :func:`simulate_lanes`.

    The vectors are drawn from ``random.Random(seed)``, so a seed always
    gives the same ones.  Yields ``(packed inputs, lanes)`` for consecutive
    chunks of at most :data:`LANE_CHUNK` vectors: bit ``k`` of an input's
    integer is its value in the chunk's vector ``k``.
    """
    names = netlist.inputs
    rng = random.Random(seed)
    for start in range(0, samples, LANE_CHUNK):
        lanes = min(LANE_CHUNK, samples - start)
        yield {name: rng.getrandbits(lanes) for name in names}, lanes


_LANE_AND = frozenset((GateType.AND, GateType.NAND))
_LANE_OR = frozenset((GateType.OR, GateType.NOR))
_LANE_XOR = frozenset((GateType.XOR, GateType.XNOR))
_LANE_INVERTING = frozenset((GateType.NOT, GateType.NAND, GateType.NOR,
                             GateType.XNOR))


def simulate_lanes(netlist: Netlist, inputs: Mapping[str, int],
                   lanes: int) -> dict[str, int]:
    """Evaluate every signal over ``lanes`` input vectors at once.

    ``inputs`` maps each primary input to its packed lanes (bit ``k`` is
    its value in vector ``k``; :func:`input_lanes` builds them).  Returns
    the packed lanes of every signal.
    """
    ones = (1 << lanes) - 1
    values: dict[str, int] = {}
    for name in netlist.inputs:
        if name not in inputs:
            raise CircuitError(f"missing value for primary input {name!r}")
        values[name] = inputs[name] & ones
    gate_of = netlist.gate_of
    for signal in topological_signals(netlist):
        if signal in values:
            continue
        gate = gate_of(signal)
        kind = gate.gate_type
        operands = gate.inputs
        if kind in _LANE_AND:
            value = values[operands[0]]
            for operand in operands[1:]:
                value &= values[operand]
        elif kind in _LANE_XOR:
            value = values[operands[0]]
            for operand in operands[1:]:
                value ^= values[operand]
        elif kind in _LANE_OR:
            value = values[operands[0]]
            for operand in operands[1:]:
                value |= values[operand]
        elif kind is GateType.CONST0 or kind is GateType.CONST1:
            value = ones if kind is GateType.CONST1 else 0
        else:                                       # BUF, NOT
            value = values[operands[0]]
        if kind in _LANE_INVERTING:
            value ^= ones
        values[signal] = value
    return values


def lane_product(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Bit-sliced ``a * b`` over packed lanes, least significant bit first.

    Shift-and-add: row ``j`` adds ``a AND b_j`` at offset ``j`` with one
    full adder per bit.  The result has ``len(a) + len(b)`` bits.
    """
    total = [0] * (len(a) + len(b))
    for j, b_j in enumerate(b):
        carry = 0
        for i, a_i in enumerate(a):
            row = a_i & b_j
            current = total[i + j]
            total[i + j] = current ^ row ^ carry
            carry = (current & row) | (carry & (current ^ row))
        # Rows 0..j-1 reached bit j-1+len(a) at most, so this bit is free.
        total[j + len(a)] = carry
    return total


def lane_sum(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Bit-sliced ``a + b`` over packed lanes (ripple carry), LSB first.

    The result has ``max(len(a), len(b)) + 1`` bits.
    """
    total: list[int] = []
    carry = 0
    for i in range(max(len(a), len(b))):
        x = a[i] if i < len(a) else 0
        y = b[i] if i < len(b) else 0
        total.append(x ^ y ^ carry)
        carry = (x & y) | (carry & (x ^ y))
    total.append(carry)
    return total


def word_to_bits(value: int, width: int) -> list[int]:
    """Little-endian bit decomposition of ``value`` on ``width`` bits."""
    return [(value >> i) & 1 for i in range(width)]


def bits_to_word(bits: Sequence[int]) -> int:
    """Compose a little-endian bit list into an integer."""
    return sum(bit << i for i, bit in enumerate(bits))


def simulate_words(netlist: Netlist, words: Mapping[str, int],
                   scalars: Mapping[str, int] | None = None,
                   output_prefix: str = "s") -> int:
    """Simulate with word-level operands and return an output word.

    ``words`` maps an input prefix (e.g. ``"a"``) to an integer value that is
    decomposed over the inputs ``a0, a1, ...``.  ``scalars`` assigns
    individual input signals (e.g. a carry-in).  The output word is read from
    the primary outputs named ``output_prefix<i>``.
    """
    assignment: dict[str, int] = {}
    for prefix, value in words.items():
        bits = netlist.input_word(prefix)
        if not bits:
            raise CircuitError(f"no primary inputs with prefix {prefix!r}")
        for i, name in enumerate(bits):
            assignment[name] = (value >> i) & 1
    if scalars:
        assignment.update({k: v & 1 for k, v in scalars.items()})
    values = simulate(netlist, assignment)
    out_bits = netlist.output_word(output_prefix)
    if not out_bits:
        raise CircuitError(f"no primary outputs with prefix {output_prefix!r}")
    return bits_to_word([values[name] for name in out_bits])


def exhaustive_check(netlist: Netlist, reference: Callable[..., int],
                     word_prefixes: Sequence[str], widths: Sequence[int],
                     output_prefix: str = "s", output_width: int | None = None,
                     max_vectors: int | None = None,
                     seed: int = 0) -> tuple[bool, tuple[int, ...] | None]:
    """Compare the netlist against a reference integer function.

    Enumerates all operand combinations when feasible (or ``max_vectors``
    random vectors otherwise) and checks
    ``netlist(prefix values...) == reference(values...) mod 2^output_width``.
    Returns ``(ok, first_failing_operands)``.
    """
    out_bits = netlist.output_word(output_prefix)
    width_out = output_width if output_width is not None else len(out_bits)
    modulus = 1 << width_out
    total = 1
    for width in widths:
        total *= 1 << width
    rng = random.Random(seed)

    def vectors():
        if max_vectors is None or total <= max_vectors:
            yield from itertools.product(*[range(1 << w) for w in widths])
        else:
            for _ in range(max_vectors):
                yield tuple(rng.randrange(1 << w) for w in widths)

    for operands in vectors():
        words = dict(zip(word_prefixes, operands))
        got = simulate_words(netlist, words, output_prefix=output_prefix) % modulus
        expected = reference(*operands) % modulus
        if got != expected:
            return False, operands
    return True, None
