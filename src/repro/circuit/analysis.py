"""Structural netlist analysis: topological order, levels, fanout, cones.

These analyses feed the rewriting schemes (fanout counts for MT-FO,
XOR-gate connectivity for MT-LR).  The topological order and levels that
number the algebraic model's variables are the netlist's own
(:meth:`~repro.circuit.netlist.Netlist.topology`); this module hands out
copies of them.
"""

from __future__ import annotations

from typing import Iterable

from repro.circuit.netlist import Netlist


def topological_signals(netlist: Netlist) -> list[str]:
    """All signals in topological order (inputs first, outputs last).

    A copy of the order of :meth:`Netlist.topology`; raises
    :class:`~repro.errors.CircuitError` on undriven signals and
    combinational loops.
    """
    return list(netlist.topology()[0])


def signal_levels(netlist: Netlist) -> dict[str, int]:
    """Longest-path level of every signal (primary inputs have level 0).

    The level induces the paper's reverse topological variable order: gate
    outputs always have a strictly larger level than their inputs.  A copy
    of the levels of :meth:`Netlist.topology`.
    """
    return dict(netlist.topology()[1])


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
    return max(netlist.topology()[1].values(), default=0)
