"""Gate-level circuit substrate: netlists, analysis, simulation, Verilog I/O.

Everything above this package manipulates circuits through
:class:`~repro.circuit.netlist.Netlist` — a named DAG of single-output
gates (:mod:`repro.circuit.gates`) with declared primary inputs/outputs
and word-level accessors used by the generators and specifications.
Supporting modules: :mod:`~repro.circuit.analysis` (fanout counts,
topological orders, level maps — the inputs of substitution ordering),
:mod:`~repro.circuit.simulate` (bit- and word-level evaluation, a
bit-parallel lane kernel that evaluates many input vectors at once,
exhaustive equivalence checks for the small widths the tests pin),
:mod:`~repro.circuit.verilog` (structural gate-level Verilog reader and
writer; the netlist content hash of the result cache is the written
Verilog), and :mod:`~repro.circuit.mutate` (single-gate fault injection
for the refutation and counterexample test campaigns).
"""

from repro.circuit.gates import GateType, Gate, evaluate_gate
from repro.circuit.netlist import Netlist
from repro.circuit.analysis import (
    fanout_counts,
    signal_levels,
    topological_signals,
    transitive_fanin,
)
from repro.circuit.simulate import simulate, simulate_words, exhaustive_check
from repro.circuit.mutate import inject_bug, list_mutations

__all__ = [
    "Gate",
    "GateType",
    "Netlist",
    "evaluate_gate",
    "exhaustive_check",
    "fanout_counts",
    "inject_bug",
    "list_mutations",
    "signal_levels",
    "simulate",
    "simulate_words",
    "topological_signals",
    "transitive_fanin",
]
