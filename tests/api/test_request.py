"""Tests of typed requests and the unified budget bundle."""

from __future__ import annotations

import pytest

from repro.api.request import Budgets, VerificationRequest
from repro.circuit.verilog import write_verilog
from repro.errors import VerificationError
from repro.generators.multipliers import generate_multiplier


def test_budgets_defaults_match_historical_entrypoint_defaults():
    budgets = Budgets()
    assert budgets.monomial_budget == 2_000_000
    assert budgets.time_budget_s is None
    assert budgets.sat_conflict_budget == 200_000
    assert budgets.bdd_node_budget == 1_000_000
    assert budgets.vanishing_cache_limit is None
    assert budgets.counterexample_tries == 4096
    assert budgets.task_timeout_s is None


def test_budgets_replace():
    budgets = Budgets().replace(monomial_budget=7, task_timeout_s=2.0)
    assert budgets.monomial_budget == 7
    assert budgets.task_timeout_s == 2.0
    assert budgets.sat_conflict_budget == Budgets().sat_conflict_budget


def test_exactly_one_circuit_source_required():
    with pytest.raises(VerificationError, match="exactly one circuit source"):
        VerificationRequest(method="mt-lr")
    with pytest.raises(VerificationError, match="exactly one circuit source"):
        VerificationRequest(architecture="SP-AR-RC", width=4,
                            verilog_text="module m; endmodule")
    with pytest.raises(VerificationError, match="operand width"):
        VerificationRequest(architecture="SP-AR-RC")


def test_unknown_method_and_kind_fail_fast():
    with pytest.raises(VerificationError, match="unknown method"):
        VerificationRequest.from_architecture("SP-AR-RC", 4, method="mt-bogus")
    with pytest.raises(VerificationError, match="circuit kind"):
        VerificationRequest.from_architecture("SP-AR-RC", 4,
                                              circuit_kind="divider")


def test_resolution_of_all_three_sources(tmp_path):
    netlist = generate_multiplier("SP-AR-RC", 3)
    from_netlist = VerificationRequest.from_netlist(netlist)
    assert from_netlist.resolve_netlist() is netlist

    from_arch = VerificationRequest.from_architecture("SP-AR-RC", 3)
    assert from_arch.resolve_netlist().name == netlist.name

    text = write_verilog(netlist)
    from_text = VerificationRequest.from_verilog(text=text)
    assert sorted(from_text.resolve_netlist().inputs) == sorted(netlist.inputs)
    path = tmp_path / "mult.v"
    path.write_text(text, encoding="utf-8")
    from_path = VerificationRequest.from_verilog(path=path)
    assert sorted(from_path.resolve_netlist().outputs) == sorted(netlist.outputs)


def test_adder_requests_resolve_through_the_adder_generator():
    request = VerificationRequest.from_architecture("KS", 4,
                                                    circuit_kind="adder")
    netlist = request.resolve_netlist()
    assert netlist.input_word("a")
    assert request.resolve_specification() == "adder"


def test_display_name_prefers_architecture_then_module(tmp_path):
    netlist = generate_multiplier("SP-AR-RC", 3)
    assert VerificationRequest.from_architecture(
        "SP-AR-RC", 3).display_name() == "SP-AR-RC"
    assert VerificationRequest.from_netlist(netlist).display_name() == netlist.name
    # An unreadable file falls back to its stem.
    assert VerificationRequest.from_verilog(
        path=tmp_path / "foo.v").display_name() == "foo"
