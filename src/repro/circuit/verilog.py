"""Minimal structural-Verilog writer and reader.

The paper's flow generates multipliers as Verilog RTL (Arithmetic Module
Generator) and synthesises them to gate-level netlists with Yosys.  This
module provides the equivalent interchange format for the reproduction: the
generators can export gate-level Verilog, and externally produced gate-level
netlists (Verilog primitives only) can be imported and verified.

Supported subset for reading:

* ``module``/``endmodule`` with a port list,
* ``input``, ``output``, ``wire`` declarations, scalar or vector
  (``input [7:0] a;`` expands to ``a7 .. a0``),
* gate primitive instantiations ``and/or/xor/nand/nor/xnor/not/buf
  name (out, in, ...);``,
* ``assign out = 1'b0 / 1'b1 / signal / ~signal / a op b;`` with a single
  operator (``&``, ``|``, ``^``).
"""

from __future__ import annotations

import re

from repro.circuit.gates import GateType
from repro.circuit.netlist import Netlist
from repro.errors import CircuitError

_PRIMITIVES = {
    "and": GateType.AND,
    "or": GateType.OR,
    "xor": GateType.XOR,
    "nand": GateType.NAND,
    "nor": GateType.NOR,
    "xnor": GateType.XNOR,
    "not": GateType.NOT,
    "buf": GateType.BUF,
}

_REVERSE_PRIMITIVES = {
    GateType.AND: "and",
    GateType.OR: "or",
    GateType.XOR: "xor",
    GateType.NAND: "nand",
    GateType.NOR: "nor",
    GateType.XNOR: "xnor",
    GateType.NOT: "not",
    GateType.BUF: "buf",
}


def _sanitize(name: str) -> str:
    """Make a signal name a valid Verilog identifier."""
    return re.sub(r"[^A-Za-z0-9_]", "_", name)


def write_verilog(netlist: Netlist, module_name: str | None = None) -> str:
    """Render the netlist as gate-level structural Verilog."""
    module = _sanitize(module_name or netlist.name)
    inputs = [_sanitize(s) for s in netlist.inputs]
    outputs = [_sanitize(s) for s in netlist.outputs]
    rename = {s: _sanitize(s) for s in netlist.signals()}

    wires = [rename[g.output] for g in netlist.gates()
             if g.output not in netlist.outputs]
    lines = [f"module {module} ({', '.join(inputs + outputs)});"]
    for name in inputs:
        lines.append(f"  input {name};")
    for name in outputs:
        lines.append(f"  output {name};")
    for name in wires:
        lines.append(f"  wire {name};")
    lines.append("")
    for i, gate in enumerate(netlist.gates()):
        out = rename[gate.output]
        ins = [rename[s] for s in gate.inputs]
        if gate.gate_type is GateType.CONST0:
            lines.append(f"  assign {out} = 1'b0;")
        elif gate.gate_type is GateType.CONST1:
            lines.append(f"  assign {out} = 1'b1;")
        else:
            prim = _REVERSE_PRIMITIVES[gate.gate_type]
            lines.append(f"  {prim} g{i} ({', '.join([out] + ins)});")
    lines.append("endmodule")
    return "\n".join(lines) + "\n"


def save_verilog(netlist: Netlist, path: str, module_name: str | None = None) -> None:
    """Write gate-level Verilog to ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(write_verilog(netlist, module_name))


# -- reading -------------------------------------------------------------------

_DECL_RE = re.compile(
    r"^(input|output|wire)\s*(?:\[\s*(\d+)\s*:\s*(\d+)\s*\])?\s*(.+)$")
_GATE_RE = re.compile(r"^(\w+)\s+(?:\w+\s+)?\(([^)]*)\)$")
_ASSIGN_RE = re.compile(r"^assign\s+(\S+)\s*=\s*(.+)$")
_BIT_SELECT_RE = re.compile(r"(\w+)\s*\[\s*(\d+)\s*\]")


def _expand_decl(kind_match: re.Match, budget: int) -> tuple[str, list[str]]:
    """The signals of one declaration, refusing more than ``budget`` bits.

    The bound is checked before anything is expanded, so a short text
    cannot declare a vector too wide to build.
    """
    kind, msb, lsb, rest = kind_match.groups()
    names = [n.strip() for n in rest.split(",") if n.strip()]
    try:
        hi, lo = (0, 0) if msb is None else (int(msb), int(lsb))
    except ValueError:          # more digits than int() converts
        raise CircuitError(f"vector index out of range in "
                           f"{kind_match.group(0)[:80]!r}") from None
    bits = abs(hi - lo) + 1
    if bits * len(names) > budget:
        raise CircuitError(
            f"declaration {kind_match.group(0)[:80]!r} declares "
            f"{bits * len(names)} bits, more than the source could "
            "reference")
    expanded: list[str] = []
    for name in names:
        if msb is None:
            expanded.append(name)
        else:
            step = 1 if hi >= lo else -1
            for i in range(lo, hi + step, step):
                expanded.append(f"{name}{i}")
    return kind, expanded


def _normalise_signal(token: str) -> str:
    token = token.strip()
    if "[" not in token:
        return token
    match = _BIT_SELECT_RE.fullmatch(token)
    if match:
        return f"{match.group(1)}{match.group(2)}"
    return token


def parse_verilog(text: str, name: str | None = None) -> Netlist:
    """Parse the supported structural-Verilog subset into a netlist.

    Declarations may declare at most one bit per character of the text
    that is neither a comment nor whitespace: a netlist that references
    each declared signal at least once never reaches it, and the bound
    stops a few bytes such as ``input [99999999:0] a;``, however padded,
    from expanding into millions of names.
    """
    # Strip comments and split into ';'-terminated statements.
    text = re.sub(r"//.*", "", text)
    text = re.sub(r"/\*.*?\*/", "", text, flags=re.S)
    declared_budget = len("".join(text.split()))
    statements = [s.strip() for s in text.replace("\n", " ").split(";") if s.strip()]

    netlist: Netlist | None = None
    declared_outputs: list[str] = []
    for statement in statements:
        if statement.startswith("module"):
            header = re.match(r"module\s+(\w+)", statement)
            if not header:
                raise CircuitError(f"malformed module header: {statement!r}")
            netlist = Netlist(name or header.group(1))
            continue
        if statement.startswith("endmodule"):
            continue
        if netlist is None:
            raise CircuitError("statement before module header")

        decl = _DECL_RE.match(statement)
        if decl:
            kind, names = _expand_decl(decl, declared_budget)
            declared_budget -= len(names)
            if kind == "input":
                for signal in names:
                    netlist.add_input(signal)
            elif kind == "output":
                declared_outputs.extend(names)
            continue

        assign = _ASSIGN_RE.match(statement)
        if assign:
            target = _normalise_signal(assign.group(1))
            _parse_assign(netlist, target, assign.group(2).strip())
            continue

        gate = _GATE_RE.match(statement)
        if gate and gate.group(1) in _PRIMITIVES:
            ports = [_normalise_signal(p) for p in gate.group(2).split(",")]
            if len(ports) < 2:
                raise CircuitError(f"primitive with too few ports: {statement!r}")
            netlist.add_gate(_PRIMITIVES[gate.group(1)], ports[1:], ports[0])
            continue

        if gate:  # unknown instantiation
            raise CircuitError(f"unsupported instantiation: {statement!r}")

    if netlist is None:
        raise CircuitError("no module found in Verilog source")
    for signal in declared_outputs:
        netlist.add_output(signal)
    netlist.validate()
    return netlist


def _parse_assign(netlist: Netlist, target: str, expression: str) -> None:
    """Translate a single restricted ``assign`` right-hand side."""
    expression = expression.strip()
    if expression in ("1'b0", "1'h0", "0"):
        netlist.const0(target)
        return
    if expression in ("1'b1", "1'h1", "1"):
        netlist.const1(target)
        return
    if expression.startswith("~"):
        netlist.not_(_normalise_signal(expression[1:]), target)
        return
    for op, gate_type in (("&", GateType.AND), ("|", GateType.OR),
                          ("^", GateType.XOR)):
        if op in expression:
            left, right = expression.split(op, 1)
            netlist.add_gate(gate_type,
                             (_normalise_signal(left), _normalise_signal(right)),
                             target)
            return
    netlist.buf(_normalise_signal(expression), target)


def load_verilog(path: str, name: str | None = None) -> Netlist:
    """Read and parse a gate-level Verilog file."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_verilog(handle.read(), name)
