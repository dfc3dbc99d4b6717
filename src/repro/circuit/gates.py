"""Gate primitives of the netlist substrate.

The generators emit mostly two-input gates (matching a synthesised netlist,
which is what the paper verifies), but the data model supports arbitrary
arity for AND/OR/XOR-like functions so externally read netlists can be
handled as well.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from functools import reduce
from typing import Sequence

from repro.errors import CircuitError


class GateType(str, Enum):
    """Supported combinational gate functions."""

    CONST0 = "const0"
    CONST1 = "const1"
    BUF = "buf"
    NOT = "not"
    AND = "and"
    OR = "or"
    XOR = "xor"
    NAND = "nand"
    NOR = "nor"
    XNOR = "xnor"

    @property
    def min_arity(self) -> int:
        """Smallest number of inputs allowed for this gate type."""
        return _ARITY[self][0]

    @property
    def max_arity(self) -> int | None:
        """Largest number of inputs allowed (``None`` = unbounded)."""
        return _ARITY[self][1]

    @property
    def is_inverting(self) -> bool:
        """Return ``True`` for NOT/NAND/NOR/XNOR."""
        return self in (GateType.NOT, GateType.NAND, GateType.NOR, GateType.XNOR)


#: ``(min, max)`` input count per gate type (``max`` ``None`` = unbounded);
#: :class:`Gate` checks every gate with one probe of this table.
_ARITY: dict[GateType, tuple[int, int | None]] = {
    GateType.CONST0: (0, 0), GateType.CONST1: (0, 0),
    GateType.BUF: (1, 1), GateType.NOT: (1, 1),
    GateType.AND: (2, None), GateType.OR: (2, None), GateType.XOR: (2, None),
    GateType.NAND: (2, None), GateType.NOR: (2, None), GateType.XNOR: (2, None),
}

#: Gate types whose inputs must be pairwise distinct.
_DISTINCT_INPUTS = frozenset((GateType.XOR, GateType.XNOR))


class Gate(namedtuple("Gate", ("output", "gate_type", "inputs", "name"))):
    """A single combinational gate driving one output signal.

    Fields: ``output``, ``gate_type``, ``inputs`` (a tuple of signal
    names) and ``name``.  A validated named tuple rather than a frozen
    dataclass: a netlist holds one per gate, and a tuple is built without
    a per-field ``object.__setattr__``.  The constructor, which a pickled
    copy, ``_make`` and ``_replace`` pass through too, checks the arity of
    ``gate_type`` and that XOR/XNOR inputs are distinct.
    """

    __slots__ = ()

    def __new__(cls, output: str, gate_type: GateType,
                inputs: tuple[str, ...] = (), name: str = "") -> "Gate":
        arity = len(inputs)
        low, high = _ARITY[gate_type]
        if arity < low:
            raise CircuitError(
                f"gate {gate_type.value!r} driving {output!r} needs at "
                f"least {low} inputs, got {arity}")
        if high is not None and arity > high:
            raise CircuitError(
                f"gate {gate_type.value!r} driving {output!r} accepts at "
                f"most {high} inputs, got {arity}")
        if gate_type in _DISTINCT_INPUTS and len(set(inputs)) != arity:
            # x ^ x is legal logic but defeats structural reasoning;
            # normalise at construction time by rejecting it so generators
            # stay clean.
            raise CircuitError(
                f"XOR/XNOR gate driving {output!r} has duplicated inputs")
        return tuple.__new__(cls, (output, gate_type, inputs, name))

    @classmethod
    def _make(cls, iterable) -> "Gate":
        return cls(*iterable)

    @property
    def arity(self) -> int:
        """Number of inputs."""
        return len(self.inputs)

    def renamed(self, mapping) -> "Gate":
        """Return a copy with all signal names passed through ``mapping``."""
        return Gate(mapping(self.output), self.gate_type,
                    tuple(mapping(s) for s in self.inputs), self.name)


def evaluate_gate(gate_type: GateType, values: Sequence[int]) -> int:
    """Evaluate a gate function on Boolean input values (0/1)."""
    if gate_type is GateType.CONST0:
        return 0
    if gate_type is GateType.CONST1:
        return 1
    if gate_type is GateType.BUF:
        return values[0] & 1
    if gate_type is GateType.NOT:
        return 1 - (values[0] & 1)
    if gate_type is GateType.AND:
        return int(all(values))
    if gate_type is GateType.NAND:
        return 1 - int(all(values))
    if gate_type is GateType.OR:
        return int(any(values))
    if gate_type is GateType.NOR:
        return 1 - int(any(values))
    if gate_type is GateType.XOR:
        return reduce(lambda a, b: a ^ b, (v & 1 for v in values), 0)
    if gate_type is GateType.XNOR:
        return 1 - reduce(lambda a, b: a ^ b, (v & 1 for v in values), 0)
    raise CircuitError(f"unknown gate type {gate_type!r}")
