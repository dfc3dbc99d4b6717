"""Tests for the structural-Verilog writer and reader."""

import time

import pytest

from repro.circuit.simulate import exhaustive_check, simulate
from repro.circuit.verilog import (
    _normalise_signal,
    load_verilog,
    parse_verilog,
    save_verilog,
    write_verilog,
)
from repro.errors import CircuitError
from repro.generators.multipliers import generate_multiplier


def test_roundtrip_full_adder(paper_full_adder):
    text = write_verilog(paper_full_adder)
    assert "module paper_full_adder" in text
    parsed = parse_verilog(text)
    for a in (0, 1):
        for b in (0, 1):
            for cin in (0, 1):
                want = simulate(paper_full_adder, {"a": a, "b": b, "cin": cin})
                got = simulate(parsed, {"a": a, "b": b, "cin": cin})
                assert want["s"] == got["s"] and want["c"] == got["c"]


def test_roundtrip_generated_multiplier(tmp_path):
    netlist = generate_multiplier("SP-WT-CL", 3)
    path = tmp_path / "mult.v"
    save_verilog(netlist, str(path))
    loaded = load_verilog(str(path))
    ok, _ = exhaustive_check(loaded, lambda a, b: a * b, ["a", "b"], [3, 3])
    assert ok


def test_parse_vector_declarations_and_assigns():
    source = """
    module vec (a, b, y, z);
      input [1:0] a;
      input b;
      output y;
      output z;
      wire t;
      assign t = a[0] & a[1];
      assign y = t | b;
      assign z = ~b;
    endmodule
    """
    netlist = parse_verilog(source)
    assert set(netlist.inputs) == {"a0", "a1", "b"}
    values = simulate(netlist, {"a0": 1, "a1": 1, "b": 0})
    assert values["y"] == 1 and values["z"] == 1


def test_parse_constants_and_buffers():
    source = """
    module consts (a, y0, y1, y2);
      input a;
      output y0; output y1; output y2;
      assign y0 = 1'b0;
      assign y1 = 1'b1;
      assign y2 = a;
    endmodule
    """
    netlist = parse_verilog(source)
    values = simulate(netlist, {"a": 1})
    assert values["y0"] == 0 and values["y1"] == 1 and values["y2"] == 1


def test_parse_rejects_unknown_instantiation():
    source = """
    module bad (a, y);
      input a;
      output y;
      magic u1 (y, a);
    endmodule
    """
    with pytest.raises(CircuitError):
        parse_verilog(source)


def test_parse_requires_module_header():
    with pytest.raises(CircuitError):
        parse_verilog("assign y = a;")


def test_oversized_vector_declaration_is_refused_before_expansion():
    text = "module m(); input [99999999:0] a; endmodule"
    assert len(text) == 43
    start = time.perf_counter()
    with pytest.raises(CircuitError, match="100000000 bits"):
        parse_verilog(text)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("padding", ["// " + "x" * 200_000 + "\n",
                                     "/* " + "x" * 200_000 + " */",
                                     " " * 200_000, "\n" * 200_000])
def test_padding_does_not_raise_the_declaration_bound(padding):
    """Comments and whitespace reference nothing, so they buy no bits."""
    text = "module m(); input [99999:0] a; " + padding + "endmodule"
    start = time.perf_counter()
    with pytest.raises(CircuitError, match="100000 bits"):
        parse_verilog(text)
    assert time.perf_counter() - start < 1.0


def test_declared_bits_are_bounded_by_the_source_length():
    # Every declaration counts, so two halves fail like one whole.
    with pytest.raises(CircuitError):
        parse_verilog("module m(); input [40:0] a; wire [40:0] w; endmodule")
    with pytest.raises(CircuitError, match="out of range"):
        parse_verilog("module m(); input [" + "9" * 5000 + ":0] a; endmodule")


@pytest.mark.parametrize("token,name", [("a[3]", "a3"), ("a [ 3 ]", "a3"),
                                        (" a ", "a"), ("a", "a"),
                                        ("pp_1_2", "pp_1_2"),
                                        ("a[x]", "a[x]")])
def test_signal_tokens_normalise_as_before(token, name):
    assert _normalise_signal(token) == name


MIXED_SOURCE = """
module mix (a, b, y);
  input [1:0] a;
  input  b;
  output y;
  wire   t, u;
  and g0 (t, a[0], a [1]);
  xor  (u, t, b);
  or g2 (y, u, a[0]);
endmodule
"""


@pytest.mark.parametrize("text", [
    write_verilog(generate_multiplier("SP-AR-RC", 4)),
    write_verilog(generate_multiplier("BP-WT-CL", 4)),
    MIXED_SOURCE,
], ids=["SP-AR-RC-4", "BP-WT-CL-4", "mixed"])
def test_classified_statements_parse_as_the_general_matchers(text):
    """The reader sorts statements by the word before their first space.
    With tabs for spaces no statement has such a word, so every one takes
    the general matchers, and the netlist must come out the same."""
    classified = parse_verilog(text)
    general = parse_verilog(text.replace(" ", "\t"))
    assert classified.name == general.name
    assert (classified.inputs, classified.outputs) == (general.inputs,
                                                      general.outputs)
    assert list(classified.gates()) == list(general.gates())
