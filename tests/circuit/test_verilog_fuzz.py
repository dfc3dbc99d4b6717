"""Token-level fuzzing of the Verilog frontend.

``parse_verilog`` reads text from the outside world (``verify-verilog``,
``POST /v1/verify``), so malformed input must only ever raise a
:class:`~repro.errors.ReproError` subclass — never an ``IndexError``,
``KeyError`` or the like that the server would answer as a 500.  The
mutations start from the writer's own output for a few catalog
multipliers and work on tokens: dropped, duplicated and swapped tokens,
unknown gate keywords, undeclared, re-driven and self-looping signals,
and gates with a port too many or too few.  A text that still parses
must also build its algebraic model.
"""

from __future__ import annotations

import json
import re

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.circuit.verilog import parse_verilog, write_verilog
from repro.errors import CircuitError, ReproError
from repro.generators.multipliers import generate_multiplier
from repro.modeling.model import AlgebraicModel
from repro.server.app import VerificationServerApp

#: Constants such as ``1'b0`` stay one token.
_TOKEN_RE = re.compile(r"\w+'\w+|\w+|[^\s\w]")
_GATE_KEYWORDS = ("and", "or", "xor", "nand", "nor", "xnor", "not", "buf")
_UNKNOWN_KEYWORDS = ("mux", "dff", "andd", "module", "input", "wire", "assign")

SOURCES = {arch: _TOKEN_RE.findall(write_verilog(generate_multiplier(arch, 3)))
           for arch in ("SP-AR-RC", "BP-WT-CL", "SP-DT-HC")}

TOKEN_KINDS = ("drop", "duplicate", "swap")
GATE_KINDS = ("unknown-keyword", "undeclared", "re-driven", "self-loop",
              "extra-port", "missing-port")


def _render(tokens: list[str]) -> str:
    return " ".join(tokens)


def _gates(tokens: list[str]) -> list[tuple[int, list[int]]]:
    """``(keyword index, port indices)`` of every intact gate instance."""
    gates = []
    for index in range(len(tokens) - 3):
        if tokens[index] in _GATE_KEYWORDS and tokens[index + 2] == "(":
            try:
                end = tokens.index(")", index + 3)
            except ValueError:
                break
            ports = [at for at in range(index + 3, end) if tokens[at] != ","]
            if len(ports) >= 2:
                gates.append((index, ports))
    return gates


def mutate(tokens: list[str], kind: str, draw) -> list[str]:
    """One mutation of ``kind``; ``draw(n)`` picks an index below ``n``."""
    tokens = list(tokens)
    gates = _gates(tokens)
    if kind in GATE_KINDS and not gates:
        kind = "drop"
    if kind == "drop":
        del tokens[draw(len(tokens))]
        return tokens
    if kind == "duplicate":
        index = draw(len(tokens))
        tokens.insert(index, tokens[index])
        return tokens
    if kind == "swap":
        first, second = draw(len(tokens)), draw(len(tokens))
        tokens[first], tokens[second] = tokens[second], tokens[first]
        return tokens
    keyword, ports = gates[draw(len(gates))]
    signals = sorted({tokens[at] for _, gate in gates for at in gate})
    if kind == "unknown-keyword":
        tokens[keyword] = _UNKNOWN_KEYWORDS[draw(len(_UNKNOWN_KEYWORDS))]
    elif kind == "undeclared":
        tokens[ports[1 + draw(len(ports) - 1)]] = "ghost"
    elif kind == "re-driven":
        tokens[ports[0]] = signals[draw(len(signals))]
    elif kind == "self-loop":
        tokens[ports[1 + draw(len(ports) - 1)]] = tokens[ports[0]]
    elif kind == "extra-port":
        tokens[ports[-1] + 1:ports[-1] + 1] = [",", signals[draw(len(signals))]]
    else:
        # The port goes with the comma before it (after it, for the first).
        at = ports[draw(len(ports))]
        start = at - 1 if tokens[at - 1] == "," else at
        del tokens[start:start + 2]
    return tokens


def test_unmutated_tokens_parse_back_to_the_same_netlist():
    for arch, tokens in SOURCES.items():
        netlist = parse_verilog(_render(tokens))
        assert write_verilog(netlist) == write_verilog(generate_multiplier(arch, 3))


@seed(21)
@settings(max_examples=400, deadline=None)
@given(arch=st.sampled_from(sorted(SOURCES)),
       kinds=st.lists(st.sampled_from(TOKEN_KINDS + GATE_KINDS),
                      min_size=1, max_size=3),
       data=st.data())
def test_mutated_verilog_parses_or_raises_a_repro_error(arch, kinds, data):
    tokens = SOURCES[arch]
    for kind in kinds:
        tokens = mutate(tokens, kind,
                        lambda n: data.draw(st.integers(0, n - 1)))
    try:
        netlist = parse_verilog(_render(tokens))
    except ReproError:
        return
    AlgebraicModel.from_netlist(netlist)


#: One mutation of the SP-AR-RC-3 text per kind, each of which the
#: frontend rejects, with the message it rejects it with.
REJECTED = {
    "unknown-keyword": "unsupported instantiation",
    "undeclared": "reads undriven signal 'ghost'",
    "re-driven": "signal 'a0' is already driven",
    "self-loop": "combinational loop through signal",
    "extra-port": "accepts at most 1 inputs, got 2",
    "missing-port": "needs at least 2 inputs, got 1",
    "duplicated-xor-input": "has duplicated inputs",
}


def _rejected_text(kind: str) -> str:
    tokens = list(SOURCES["SP-AR-RC"])
    gates = _gates(tokens)
    first_and = next(gate for gate in gates if tokens[gate[0]] == "and")
    first_xor = next(gate for gate in gates if tokens[gate[0]] == "xor")
    last_ports = gates[-1][1]
    if kind == "unknown-keyword":
        tokens[first_and[0]] = "mux"
    elif kind == "undeclared":
        tokens[last_ports[1]] = "ghost"
    elif kind == "re-driven":
        tokens[first_and[1][0]] = "a0"
    elif kind == "self-loop":
        tokens[last_ports[1]] = tokens[last_ports[0]]
    elif kind == "extra-port":
        tokens[first_and[0]] = "not"
    elif kind == "missing-port":
        at = first_and[1][2]
        del tokens[at - 1:at + 1]
    else:
        tokens[first_xor[1][2]] = tokens[first_xor[1][1]]
    return _render(tokens)


@pytest.mark.parametrize("kind", sorted(REJECTED))
def test_rejected_mutations_raise_their_circuit_error(kind):
    with pytest.raises(CircuitError, match=re.escape(REJECTED[kind])):
        parse_verilog(_rejected_text(kind))


@pytest.mark.parametrize("kind", sorted(REJECTED))
def test_rejected_mutations_answer_400_over_the_app(kind):
    app = VerificationServerApp()
    try:
        response = app.handle("POST", "/v1/verify", json.dumps(
            {"verilog_text": _rejected_text(kind)}).encode("utf-8"))
    finally:
        app.close()
    assert response.status == 400
    error = json.loads(response.body)["error"]
    assert error["code"] == "verification_error"
    assert error["message"].startswith("CircuitError")
