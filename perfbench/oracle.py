"""Independent verdict oracle for multiplier netlists given as Verilog text.

The oracle shares no code with the program under test: it parses the
structural-Verilog subset that ``repro.circuit.verilog.write_verilog``
emits with its own small parser, and simulates the circuit bit-parallel
over *every* operand pair.  Each signal is one Python integer whose bit
``k`` is the signal's value for the operand pair ``a = k mod 2^n``,
``b = k div 2^n``, so one big-integer operation per gate evaluates all
``2^(2n)`` input vectors at once (65536 vectors for an 8-bit multiplier).

A circuit is *equivalent* when every output bit ``s_i`` matches bit ``i``
of ``a * b`` on every vector.
"""

from __future__ import annotations

import re

_STATEMENT_RE = re.compile(r"\s*([^;]*);")
_GATE_RE = re.compile(r"^(and|or|xor|nand|nor|xnor|not|buf)\s+\w+\s*\(([^)]*)\)$")
_ASSIGN_RE = re.compile(r"^assign\s+(\w+)\s*=\s*1'b([01])$")
_DECL_RE = re.compile(r"^(input|output|wire)\s+(.+)$")


class OracleError(ValueError):
    """The Verilog text is outside the subset the oracle understands."""


def parse(text: str) -> tuple[list[str], list[str], list[tuple[str, str, list[str]]]]:
    """Return ``(inputs, outputs, gates)``; a gate is ``(kind, out, ins)``.

    Constant assigns become gates of kind ``const0`` / ``const1``.
    """
    inputs: list[str] = []
    outputs: list[str] = []
    gates: list[tuple[str, str, list[str]]] = []
    body = text.split("endmodule", 1)[0]
    header, _, body = body.partition(";")
    if not header.strip().startswith("module"):
        raise OracleError("no module header")
    for statement in _STATEMENT_RE.findall(body):
        statement = " ".join(statement.split())
        if not statement:
            continue
        decl = _DECL_RE.match(statement)
        if decl:
            names = [name.strip() for name in decl.group(2).split(",")]
            if decl.group(1) == "input":
                inputs.extend(names)
            elif decl.group(1) == "output":
                outputs.extend(names)
            continue
        gate = _GATE_RE.match(statement)
        if gate:
            ports = [port.strip() for port in gate.group(2).split(",")]
            gates.append((gate.group(1), ports[0], ports[1:]))
            continue
        assign = _ASSIGN_RE.match(statement)
        if assign:
            gates.append(("const" + assign.group(2), assign.group(1), []))
            continue
        raise OracleError(f"unsupported statement {statement!r}")
    return inputs, outputs, gates


def _word(names: list[str], prefix: str) -> list[str]:
    """The bits ``prefix0, prefix1, ...`` of a word, least significant first."""
    bits = sorted((int(name[len(prefix):]), name) for name in names
                  if re.fullmatch(re.escape(prefix) + r"\d+", name))
    if [index for index, _ in bits] != list(range(len(bits))):
        raise OracleError(f"word {prefix!r} is not numbered 0..n-1")
    return [name for _, name in bits]


class MultiplierOracle:
    """Exhaustive bit-parallel reference for ``n``-bit unsigned multipliers."""

    def __init__(self, width: int) -> None:
        self.width = width
        self.vectors = 1 << (2 * width)
        self.ones = (1 << self.vectors) - 1
        # Operand bit patterns: a_i toggles every 2^i vectors, b_j every
        # 2^(n+j) vectors.
        self.a_bits = [self._toggle(1 << i) for i in range(width)]
        self.b_bits = [self._toggle(1 << (width + j)) for j in range(width)]
        self.product_bits = self._schoolbook_product()

    def _toggle(self, period: int) -> int:
        """Pattern with bit ``k`` set iff ``(k // period)`` is odd."""
        block = ((1 << period) - 1) << period       # `period` zeros, then ones
        pattern = block
        span = 2 * period
        while span < self.vectors:
            pattern |= pattern << span
            span *= 2
        return pattern & self.ones

    def _schoolbook_product(self) -> list[int]:
        """Bit patterns of ``a * b`` by bit-sliced shift-and-add."""
        n = self.width
        total = [0] * (2 * n)
        for j, b_j in enumerate(self.b_bits):
            carry = 0
            for position in range(j, 2 * n):
                i = position - j
                row = self.a_bits[i] & b_j if i < n else 0
                current = total[position]
                total[position] = current ^ row ^ carry
                carry = (current & row) | (current & carry) | (row & carry)
        return total

    def simulate(self, inputs: list[str], outputs: list[str],
                 gates: list[tuple[str, str, list[str]]]) -> dict[str, int]:
        """Bit-parallel values of every signal of a parsed circuit."""
        a_names, b_names = _word(inputs, "a"), _word(inputs, "b")
        if len(a_names) != self.width or len(b_names) != self.width:
            raise OracleError(f"expected {self.width}-bit operands a and b")
        values = dict(zip(a_names, self.a_bits))
        values.update(zip(b_names, self.b_bits))
        ones = self.ones
        pending = gates
        while pending:
            deferred = []
            for kind, out, ins in pending:
                if any(name not in values for name in ins):
                    deferred.append((kind, out, ins))
                    continue
                args = [values[name] for name in ins]
                if kind in ("and", "nand"):
                    value = ones
                    for arg in args:
                        value &= arg
                elif kind in ("or", "nor"):
                    value = 0
                    for arg in args:
                        value |= arg
                elif kind in ("xor", "xnor"):
                    value = 0
                    for arg in args:
                        value ^= arg
                elif kind in ("buf", "not"):
                    value = args[0]
                else:
                    value = ones if kind == "const1" else 0
                if kind in ("nand", "nor", "xnor", "not"):
                    value ^= ones
                values[out] = value
            if len(deferred) == len(pending):
                raise OracleError("combinational cycle or undriven signal")
            pending = deferred
        missing = [name for name in outputs if name not in values]
        if missing:
            raise OracleError(f"undriven outputs {missing[:3]}")
        return values

    def mismatches(self, text: str) -> int:
        """Bit pattern of the operand vectors on which the circuit is wrong.

        Zero iff the circuit computes ``a * b`` (mod ``2^|s|``) everywhere.
        """
        inputs, outputs, gates = parse(text)
        values = self.simulate(inputs, outputs, gates)
        s_names = _word(outputs, "s")
        expected = self.product_bits + [0] * max(0, len(s_names) - 2 * self.width)
        wrong = 0
        for i, name in enumerate(s_names):
            wrong |= values[name] ^ expected[i]
        return wrong

    def vector(self, assignment: dict[str, int]) -> int:
        """Index of the operand vector an ``{"a0": 1, ...}`` assignment names."""
        a = sum(assignment[f"a{i}"] << i for i in range(self.width))
        b = sum(assignment[f"b{j}"] << j for j in range(self.width))
        return a | (b << self.width)
