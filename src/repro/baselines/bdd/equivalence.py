"""BDD-based verification of arithmetic circuits.

Builds ROBDDs for every output of the circuit and compares them against
BDDs derived from the word-level specification (sum or product of the input
words).  Because ROBDDs for the middle product bits of a multiplier grow
exponentially, this baseline times out (node budget) beyond small widths —
the behaviour the paper's introduction cites for decision-diagram methods.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

from repro.baselines.bdd.bdd import BddManager
from repro.circuit.netlist import Netlist
from repro.errors import BddError


@dataclass
class BddCheckResult:
    """Outcome of a BDD equivalence check."""

    status: str                       # "equivalent", "different", "unknown"
    num_nodes: int = 0
    elapsed_s: float = 0.0
    failing_output: str | None = None

    @property
    def equivalent(self) -> bool:
        """True iff every output BDD matched the specification BDD."""
        return self.status == "equivalent"

    @property
    def timed_out(self) -> bool:
        """True iff the node budget was exhausted before completion."""
        return self.status == "unknown"


def _interleaved_levels(netlist: Netlist, a_prefix: str, b_prefix: str) -> dict[str, int]:
    """Interleave the two operand words in the BDD variable order.

    Interleaving ``a0, b0, a1, b1, ...`` is the standard good ordering for
    adders (linear BDDs) and the customary—but still exponential—ordering
    for multipliers.
    """
    a_bits = netlist.input_word(a_prefix)
    b_bits = netlist.input_word(b_prefix)
    order: list[str] = []
    for i in range(max(len(a_bits), len(b_bits))):
        if i < len(a_bits):
            order.append(a_bits[i])
        if i < len(b_bits):
            order.append(b_bits[i])
    for name in netlist.inputs:
        if name not in order:
            order.append(name)
    return {name: level for level, name in enumerate(order)}


def _build_output_bdds(netlist: Netlist, manager: BddManager,
                       levels: dict[str, int]) -> dict[str, int]:
    nodes: dict[str, int] = {}
    for name in netlist.inputs:
        nodes[name] = manager.variable(levels[name])
    order = netlist.topology()[0]
    for signal in itertools.islice(order, len(nodes), None):
        gate = netlist.gate_of(signal)
        operands = [nodes[s] for s in gate.inputs]
        nodes[signal] = manager.apply_gate(gate.gate_type.value, operands)
    return {name: nodes[name] for name in netlist.outputs}


def _specification_bdds(manager: BddManager, a_levels: list[int],
                        b_levels: list[int], width_out: int,
                        operation: str) -> list[int]:
    """Word-level specification as per-output-bit BDDs (ripple construction)."""
    a_vars = [manager.variable(level) for level in a_levels]
    b_vars = [manager.variable(level) for level in b_levels]
    if operation == "add":
        sums: list[int] = []
        carry = manager.FALSE
        for i in range(width_out):
            a_bit = a_vars[i] if i < len(a_vars) else manager.FALSE
            b_bit = b_vars[i] if i < len(b_vars) else manager.FALSE
            partial = manager.xor(a_bit, b_bit)
            sums.append(manager.xor(partial, carry))
            carry = manager.or_(manager.and_(a_bit, b_bit),
                                manager.and_(partial, carry))
        return sums
    if operation == "multiply":
        accumulator = [manager.FALSE] * width_out
        for j, b_bit in enumerate(b_vars):
            row = [manager.FALSE] * width_out
            for i, a_bit in enumerate(a_vars):
                if i + j < width_out:
                    row[i + j] = manager.and_(a_bit, b_bit)
            carry = manager.FALSE
            for k in range(width_out):
                partial = manager.xor(accumulator[k], row[k])
                new_bit = manager.xor(partial, carry)
                carry = manager.or_(manager.and_(accumulator[k], row[k]),
                                    manager.and_(partial, carry))
                accumulator[k] = new_bit
        return accumulator
    raise BddError(f"unsupported specification operation {operation!r}")


def bdd_equivalence_check(netlist: Netlist, operation: str = "multiply",
                          a_prefix: str = "a", b_prefix: str = "b",
                          out_prefix: str = "s",
                          node_budget: int | None = 2_000_000) -> BddCheckResult:
    """Verify a circuit against the word-level add/multiply specification with BDDs."""
    start = time.perf_counter()
    levels = _interleaved_levels(netlist, a_prefix, b_prefix)
    manager = BddManager(len(netlist.inputs), node_budget=node_budget)
    try:
        outputs = _build_output_bdds(netlist, manager, levels)
        out_names = netlist.output_word(out_prefix)
        spec = _specification_bdds(
            manager,
            [levels[name] for name in netlist.input_word(a_prefix)],
            [levels[name] for name in netlist.input_word(b_prefix)],
            len(out_names), operation)
    except BddError:
        return BddCheckResult(status="unknown", num_nodes=manager.num_nodes,
                              elapsed_s=time.perf_counter() - start)
    for i, name in enumerate(out_names):
        if outputs[name] != spec[i]:
            return BddCheckResult(status="different", num_nodes=manager.num_nodes,
                                  elapsed_s=time.perf_counter() - start,
                                  failing_output=name)
    return BddCheckResult(status="equivalent", num_nodes=manager.num_nodes,
                          elapsed_s=time.perf_counter() - start)
