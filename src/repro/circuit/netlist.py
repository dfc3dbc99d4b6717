"""The :class:`Netlist` container for gate-level circuits.

A netlist is a directed acyclic graph of gates.  Signals are identified by
name; each internal signal is driven by exactly one gate, primary inputs are
driven externally.  Word-level helpers (``add_input_word`` and friends) make
the arithmetic generators concise while keeping everything bit-level.

A netlist also owns its topology (:meth:`Netlist.topology`): the
topological order and levels of its signals, sorted on first use and
reset by every change of its structure, so the model build, simulation
and the BDD builder of one netlist share a single traversal.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Iterator, Sequence

from repro.circuit.gates import Gate, GateType
from repro.errors import CircuitError


class Netlist:
    """A combinational gate-level circuit."""

    def __init__(self, name: str = "circuit") -> None:
        self.name = name
        self._inputs: list[str] = []
        self._outputs: list[str] = []
        self._gates: dict[str, Gate] = {}
        self._input_set: set[str] = set()
        self._fresh_counter = 0
        #: ``(order, levels)`` of :meth:`topology`, ``None`` until sorted.
        self._topology: tuple[list[str], dict[str, int]] | None = None

    # -- construction ----------------------------------------------------------

    def add_input(self, name: str) -> str:
        """Declare a primary input signal and return its name."""
        if name in self._input_set or name in self._gates:
            raise CircuitError(f"signal {name!r} is already driven")
        self._inputs.append(name)
        self._input_set.add(name)
        self._topology = None
        return name

    def add_input_word(self, prefix: str, width: int) -> list[str]:
        """Declare ``width`` primary inputs named ``prefix0 .. prefix{width-1}``."""
        return [self.add_input(f"{prefix}{i}") for i in range(width)]

    def add_output(self, name: str) -> str:
        """Mark an existing signal as primary output."""
        if name in self._outputs:
            raise CircuitError(f"output {name!r} declared twice")
        self._outputs.append(name)
        self._topology = None           # its driver is checked by the sort
        return name

    def add_output_word(self, signals: Sequence[str]) -> list[str]:
        """Mark a list of signals as primary outputs (LSB first)."""
        return [self.add_output(signal) for signal in signals]

    def add_gate(self, gate_type: GateType, inputs: Sequence[str],
                 output: str | None = None, name: str = "") -> str:
        """Add a gate; auto-generate the output signal name if not given."""
        gates = self._gates
        if output is None:
            # ``_value_`` is the gate keyword; ``.value`` costs a descriptor call.
            output = self.fresh_signal(gate_type._value_)
        elif output in gates or output in self._input_set:
            raise CircuitError(f"signal {output!r} is already driven")
        gates[output] = Gate(output, gate_type, tuple(inputs), name or output)
        self._topology = None
        return output

    def fresh_signal(self, hint: str = "w") -> str:
        """Return a signal name that is not used yet."""
        gates = self._gates
        inputs = self._input_set
        counter = self._fresh_counter
        while True:
            candidate = f"{hint}_{counter}"
            counter += 1
            if candidate not in gates and candidate not in inputs:
                self._fresh_counter = counter
                return candidate

    # Convenience wrappers used heavily by the generators -----------------------

    def const0(self, output: str | None = None) -> str:
        """Constant-0 driver."""
        return self.add_gate(GateType.CONST0, (), output)

    def const1(self, output: str | None = None) -> str:
        """Constant-1 driver."""
        return self.add_gate(GateType.CONST1, (), output)

    def buf(self, a: str, output: str | None = None) -> str:
        """Buffer ``output = a``."""
        return self.add_gate(GateType.BUF, (a,), output)

    def not_(self, a: str, output: str | None = None) -> str:
        """Inverter ``output = ¬a``."""
        return self.add_gate(GateType.NOT, (a,), output)

    def and_(self, a: str, b: str, output: str | None = None) -> str:
        """Two-input AND."""
        return self.add_gate(GateType.AND, (a, b), output)

    def or_(self, a: str, b: str, output: str | None = None) -> str:
        """Two-input OR."""
        return self.add_gate(GateType.OR, (a, b), output)

    def xor(self, a: str, b: str, output: str | None = None) -> str:
        """Two-input XOR."""
        return self.add_gate(GateType.XOR, (a, b), output)

    def nand(self, a: str, b: str, output: str | None = None) -> str:
        """Two-input NAND."""
        return self.add_gate(GateType.NAND, (a, b), output)

    def nor(self, a: str, b: str, output: str | None = None) -> str:
        """Two-input NOR."""
        return self.add_gate(GateType.NOR, (a, b), output)

    def xnor(self, a: str, b: str, output: str | None = None) -> str:
        """Two-input XNOR."""
        return self.add_gate(GateType.XNOR, (a, b), output)

    def and_tree(self, signals: Sequence[str], output: str | None = None) -> str:
        """Balanced AND of any number of signals (≥ 1)."""
        return self._tree(GateType.AND, signals, output)

    def or_tree(self, signals: Sequence[str], output: str | None = None) -> str:
        """Balanced OR of any number of signals (≥ 1)."""
        return self._tree(GateType.OR, signals, output)

    def xor_tree(self, signals: Sequence[str], output: str | None = None) -> str:
        """Balanced XOR of any number of signals (≥ 1)."""
        return self._tree(GateType.XOR, signals, output)

    def _tree(self, gate_type: GateType, signals: Sequence[str],
              output: str | None) -> str:
        if not signals:
            raise CircuitError("cannot build a gate tree over zero signals")
        level = list(signals)
        while len(level) > 1:
            nxt: list[str] = []
            for i in range(0, len(level) - 1, 2):
                last_pair = len(level) <= 2
                out = output if (last_pair and output is not None) else None
                nxt.append(self.add_gate(gate_type, (level[i], level[i + 1]), out))
            if len(level) % 2:
                nxt.append(level[-1])
            level = nxt
        if output is not None and level[0] != output:
            return self.buf(level[0], output)
        return level[0]

    # -- queries ---------------------------------------------------------------

    @property
    def inputs(self) -> list[str]:
        """Primary input names (construction order)."""
        return list(self._inputs)

    @property
    def outputs(self) -> list[str]:
        """Primary output names (LSB-first for arithmetic words)."""
        return list(self._outputs)

    @property
    def num_gates(self) -> int:
        """Number of gates."""
        return len(self._gates)

    def is_input(self, signal: str) -> bool:
        """Return ``True`` if ``signal`` is a primary input."""
        return signal in self._input_set

    def is_output(self, signal: str) -> bool:
        """Return ``True`` if ``signal`` is a primary output."""
        return signal in self._outputs

    def has_signal(self, signal: str) -> bool:
        """Return ``True`` if ``signal`` is driven by a gate or is an input."""
        return signal in self._gates or signal in self._input_set

    def gate_of(self, signal: str) -> Gate:
        """The gate driving ``signal`` (raises for primary inputs)."""
        try:
            return self._gates[signal]
        except KeyError:
            raise CircuitError(f"signal {signal!r} is not driven by a gate") from None

    def gates(self) -> Iterator[Gate]:
        """Iterate over all gates (insertion order)."""
        return iter(self._gates.values())

    def signals(self) -> Iterator[str]:
        """Iterate over all signals: inputs first, then gate outputs."""
        yield from self._inputs
        yield from self._gates.keys()

    def gate_type_histogram(self) -> Counter:
        """Count gates per type (useful for reporting circuit sizes)."""
        return Counter(g.gate_type for g in self._gates.values())

    def input_word(self, prefix: str) -> list[str]:
        """All primary inputs named ``prefix<i>`` ordered by index."""
        return _select_word(self._inputs, prefix)

    def output_word(self, prefix: str) -> list[str]:
        """All primary outputs named ``prefix<i>`` ordered by index."""
        return _select_word(self._outputs, prefix)

    # -- topology --------------------------------------------------------------

    def topology(self) -> tuple[list[str], dict[str, int]]:
        """Every signal in topological order, and its longest-path level.

        The order lists the primary inputs first, then the gates in the
        order Kahn's algorithm makes them ready; inputs and constants have
        level 0, a gate one more than its deepest input.  The sort runs on
        first use and kept until :meth:`add_input`, :meth:`add_gate`,
        :meth:`add_output` or :meth:`replace_gate` changes the netlist, so
        model extraction, simulation and the BDD builder of one netlist
        share it.  Callers must not modify the returned list or dict.

        The sort checks the drivers: a gate reading an undriven signal
        never becomes ready, so only an incomplete pass scans them
        (:meth:`check_drivers` raises first, the loop error after); a
        complete one checks the primary outputs.
        """
        topology = self._topology
        # A gate stored past ``add_gate`` leaves the kept order short.
        if (topology is None or len(topology[0])
                != len(self._inputs) + len(self._gates)):
            topology = self._topology = self._sort()
        return topology

    def _sort(self) -> tuple[list[str], dict[str, int]]:
        """Kahn's algorithm: the order and levels :meth:`topology` keeps."""
        gates = self._gates
        indegree: dict[str, int] = {}
        consumers: dict[str, list[str]] = {}
        for output, gate in gates.items():
            inputs = gate.inputs
            indegree[output] = len(inputs)
            for signal in inputs:
                bucket = consumers.get(signal)
                if bucket is None:
                    consumers[signal] = [output]
                else:
                    bucket.append(output)

        # The ready FIFO *is* the topological order: consumers are appended
        # as they become ready, and a gate's level is final at that moment.
        order: list[str] = list(self._inputs)
        levels: dict[str, int] = dict.fromkeys(order, 0)
        for output, degree in indegree.items():
            if degree == 0:
                order.append(output)
                levels[output] = 0
        consumers_get = consumers.get
        head = 0
        while head < len(order):
            signal = order[head]
            head += 1
            for consumer in consumers_get(signal, ()):
                remaining = indegree[consumer] - 1
                indegree[consumer] = remaining
                if remaining == 0 and consumer not in levels:
                    order.append(consumer)
                    inputs = gates[consumer].inputs
                    if len(inputs) == 2:
                        # Two-input gates dominate synthesised netlists;
                        # dodging ``max`` speeds the sort measurably.
                        first = levels[inputs[0]]
                        second = levels[inputs[1]]
                        levels[consumer] = 1 + (first if first >= second
                                                else second)
                    else:
                        levels[consumer] = 1 + max(levels[s] for s in inputs)
        if len(order) != len(self._inputs) + len(gates):
            self.check_drivers()
            raise CircuitError("netlist contains a combinational loop")
        self.check_drivers(gate_inputs=False)
        return order, levels

    # -- validation ------------------------------------------------------------

    def validate(self) -> None:
        """Check structural sanity: drivers exist, outputs exist, no cycles.

        A netlist whose every gate reads only primary inputs and earlier
        gates (the order the generators and the Verilog writer produce)
        has all its drivers and no loop, which one pass over the gates
        confirms; any other netlist gets the full driver scan and a DFS.
        """
        defined = set(self._input_set)
        for output, gate in self._gates.items():
            if not defined.issuperset(gate.inputs):
                break
            defined.add(output)
        else:
            self.check_drivers(gate_inputs=False)
            return
        self.check_drivers()
        # Cycle check via iterative DFS over gate outputs.
        WHITE, GREY, BLACK = 0, 1, 2
        colour: dict[str, int] = {}
        for start in self._gates:
            if colour.get(start, WHITE) != WHITE:
                continue
            stack: list[tuple[str, Iterator[str]]] = [
                (start, iter(self._gates[start].inputs))]
            colour[start] = GREY
            while stack:
                node, it = stack[-1]
                advanced = False
                for nxt in it:
                    if nxt in self._input_set or nxt not in self._gates:
                        continue
                    state = colour.get(nxt, WHITE)
                    if state == GREY:
                        raise CircuitError(
                            f"combinational loop through signal {nxt!r}")
                    if state == WHITE:
                        colour[nxt] = GREY
                        stack.append((nxt, iter(self._gates[nxt].inputs)))
                        advanced = True
                        break
                if not advanced:
                    colour[node] = BLACK
                    stack.pop()

    def check_drivers(self, gate_inputs: bool = True) -> None:
        """Raise :class:`CircuitError` for the first undriven signal read.

        Gate inputs are checked first, in gate and input order, then the
        primary outputs.  ``gate_inputs=False`` checks the outputs only, for
        a caller that has already seen every gate input driven.
        """
        driven = self._gates
        inputs = self._input_set
        if gate_inputs:
            for gate in driven.values():
                for signal in gate.inputs:
                    if signal not in driven and signal not in inputs:
                        raise CircuitError(
                            f"gate {gate.name!r} reads undriven signal {signal!r}")
        for output in self._outputs:
            if output not in driven and output not in inputs:
                raise CircuitError(f"primary output {output!r} is undriven")

    # -- transformation --------------------------------------------------------

    def copy(self, name: str | None = None) -> "Netlist":
        """Deep copy of the netlist."""
        clone = Netlist(name or self.name)
        clone._inputs = list(self._inputs)
        clone._input_set = set(self._input_set)
        clone._outputs = list(self._outputs)
        clone._gates = dict(self._gates)
        clone._fresh_counter = self._fresh_counter
        return clone

    def replace_gate(self, output: str, gate: Gate) -> None:
        """Replace the gate driving ``output`` (used for bug injection)."""
        if output not in self._gates:
            raise CircuitError(f"signal {output!r} is not driven by a gate")
        if gate.output != output:
            raise CircuitError("replacement gate must drive the same signal")
        self._gates[output] = gate
        self._topology = None

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"Netlist({self.name!r}, inputs={len(self._inputs)}, "
                f"outputs={len(self._outputs)}, gates={len(self._gates)})")


def _select_word(names: Iterable[str], prefix: str) -> list[str]:
    """Select ``prefix<i>`` signals and order them by the integer suffix."""
    selected: list[tuple[int, str]] = []
    for name in names:
        if name.startswith(prefix) and name[len(prefix):].isdigit():
            selected.append((int(name[len(prefix):]), name))
    return [name for _, name in sorted(selected)]
