"""Structural netlist analysis: topological order, levels, fanout, cones.

These analyses feed both the variable order of the algebraic model (reverse
topological levels) and the rewriting schemes (fanout counts for MT-FO,
XOR-gate connectivity for MT-LR).
"""

from __future__ import annotations

from typing import Iterable

from repro.circuit.netlist import Netlist
from repro.errors import CircuitError


def topological_signals(netlist: Netlist) -> list[str]:
    """All signals in topological order (inputs first, outputs last).

    Kahn's algorithm over the gate graph; raises
    :class:`~repro.errors.CircuitError` on combinational loops.
    """
    indegree: dict[str, int] = {}
    consumers: dict[str, list[str]] = {}
    for gate in netlist.gates():
        indegree[gate.output] = len(gate.inputs)
        for signal in gate.inputs:
            bucket = consumers.get(signal)
            if bucket is None:
                consumers[signal] = [gate.output]
            else:
                bucket.append(gate.output)

    # The ready FIFO *is* the topological order: consumers are appended as
    # they become ready and a moving head replaces the deque.
    order: list[str] = list(netlist.inputs)
    order.extend(out for out, deg in indegree.items() if deg == 0)
    seen = set(order)
    consumers_get = consumers.get
    head = 0
    while head < len(order):
        signal = order[head]
        head += 1
        for consumer in consumers_get(signal, ()):  # gates reading this signal
            remaining = indegree[consumer] - 1
            indegree[consumer] = remaining
            if remaining == 0 and consumer not in seen:
                seen.add(consumer)
                order.append(consumer)
    expected = len(netlist.inputs) + netlist.num_gates
    if len(order) != expected:
        raise CircuitError("netlist contains a combinational loop")
    return order


def topological_levels(netlist: Netlist) -> tuple[list[str], dict[str, int]]:
    """Topological order and longest-path levels in one traversal.

    Equivalent to :func:`topological_signals` followed by
    :func:`signal_levels` — a gate's level is finalised the moment it
    becomes ready, so both results fall out of the same Kahn pass.  Model
    extraction calls this once per verification, which makes the saved
    second traversal measurable.

    A gate reading an undriven signal never becomes ready, so only an
    incomplete pass scans the drivers (:meth:`Netlist.check_drivers`
    raises first, the loop error after); a complete one checks the outputs.
    """
    indegree: dict[str, int] = {}
    consumers: dict[str, list[str]] = {}
    gates: dict[str, tuple[str, ...]] = {}
    for gate in netlist.gates():
        indegree[gate.output] = len(gate.inputs)
        gates[gate.output] = gate.inputs
        for signal in gate.inputs:
            bucket = consumers.get(signal)
            if bucket is None:
                consumers[signal] = [gate.output]
            else:
                bucket.append(gate.output)

    order: list[str] = list(netlist.inputs)
    levels: dict[str, int] = {name: 0 for name in order}
    for out, deg in indegree.items():
        if deg == 0:
            order.append(out)
            levels[out] = 0
    seen = set(order)
    consumers_get = consumers.get
    head = 0
    while head < len(order):
        signal = order[head]
        head += 1
        for consumer in consumers_get(signal, ()):
            remaining = indegree[consumer] - 1
            indegree[consumer] = remaining
            if remaining == 0 and consumer not in seen:
                seen.add(consumer)
                order.append(consumer)
                inputs = gates[consumer]
                if len(inputs) == 2:
                    first = levels[inputs[0]]
                    second = levels[inputs[1]]
                    levels[consumer] = 1 + (first if first >= second
                                            else second)
                else:
                    levels[consumer] = 1 + max(levels[s] for s in inputs)
    expected = len(netlist.inputs) + netlist.num_gates
    if len(order) != expected:
        netlist.check_drivers()
        raise CircuitError("netlist contains a combinational loop")
    netlist.check_drivers(gate_inputs=False)
    return order, levels


def signal_levels(netlist: Netlist,
                  order: list[str] | None = None) -> dict[str, int]:
    """Longest-path level of every signal (primary inputs have level 0).

    The level induces the paper's reverse topological variable order: gate
    outputs always have a strictly larger level than their inputs.  Pass a
    precomputed ``topological_signals`` order to avoid a second traversal.
    """
    levels: dict[str, int] = {name: 0 for name in netlist.inputs}
    if order is None:
        order = topological_signals(netlist)
    gate_of = netlist.gate_of
    for signal in order:
        if signal in levels:
            continue
        inputs = gate_of(signal).inputs
        if not inputs:
            levels[signal] = 0
        elif len(inputs) == 2:
            # The two-input case dominates synthesized netlists; dodging the
            # generator machinery of ``max`` measurably speeds model builds.
            first = levels[inputs[0]]
            second = levels[inputs[1]]
            levels[signal] = 1 + (first if first >= second else second)
        else:
            levels[signal] = 1 + max(levels[s] for s in inputs)
    return levels


def fanout_counts(netlist: Netlist) -> dict[str, int]:
    """Number of gate inputs each signal drives (primary outputs add one)."""
    counts: dict[str, int] = {name: 0 for name in netlist.signals()}
    for gate in netlist.gates():
        for signal in gate.inputs:
            counts[signal] = counts.get(signal, 0) + 1
    for output in netlist.outputs:
        counts[output] = counts.get(output, 0) + 1
    return counts


def multi_fanout_signals(netlist: Netlist) -> set[str]:
    """Signals read by more than one gate (the fanout variables of MT-FO)."""
    return {signal for signal, count in fanout_counts(netlist).items() if count > 1}


def transitive_fanin(netlist: Netlist, signals: Iterable[str]) -> set[str]:
    """All signals in the input cone of ``signals`` (including themselves)."""
    cone: set[str] = set()
    stack = list(signals)
    while stack:
        signal = stack.pop()
        if signal in cone:
            continue
        cone.add(signal)
        if not netlist.is_input(signal) and netlist.has_signal(signal):
            stack.extend(netlist.gate_of(signal).inputs)
    return cone


def input_support(netlist: Netlist, signal: str) -> set[str]:
    """Primary inputs in the cone of ``signal``."""
    return {s for s in transitive_fanin(netlist, [signal]) if netlist.is_input(s)}


def circuit_depth(netlist: Netlist) -> int:
    """Longest combinational path length in gates."""
    levels = signal_levels(netlist)
    return max(levels.values(), default=0)
