"""Tests of the unified report schema: JSON and table-row round trips."""

from __future__ import annotations

import json

import pytest

from repro.api.report import (
    EXIT_CODES,
    REPORT_SCHEMA,
    STATUS_TO_VERDICT,
    VerificationReport,
    format_seconds,
)
from repro.api.request import Budgets, VerificationRequest
from repro.api.service import VerificationService
from repro.circuit.mutate import apply_mutation, list_mutations
from repro.errors import VerificationError
from repro.experiments.runner import run_request
from repro.generators.multipliers import generate_multiplier

BUDGETS = Budgets(time_budget_s=60.0, monomial_budget=200_000)


def _row(architecture: str, width: int, method: str,
         budgets: Budgets = BUDGETS) -> dict:
    """The table row of one batch cell, as a pool worker produces it."""
    return run_request(VerificationRequest.from_architecture(
        architecture, width, method, budgets=budgets,
        find_counterexample=False))


def _assert_row_roundtrip(row: dict) -> None:
    """from_row -> to_row is the identity, byte-for-byte in key order."""
    report = VerificationReport.from_row(row)
    assert report.to_row() == row
    assert list(report.to_row()) == list(row)
    # ... and survives the canonical JSON serialization unchanged.
    revived = VerificationReport.from_json(report.to_json())
    assert revived.to_dict() == report.to_dict()
    assert revived.to_row() == row
    assert list(revived.to_row()) == list(row)


def test_membership_row_roundtrip():
    _assert_row_roundtrip(_row("SP-AR-RC", 3, "mt-lr"))


def test_membership_budget_trip_row_roundtrip():
    row = _row("SP-RT-KS", 4, "mt-naive",
               Budgets(time_budget_s=60.0, monomial_budget=10))
    assert row["status"] == "TO"
    _assert_row_roundtrip(row)


def test_refuted_netlist_row_roundtrip():
    """A refutation's row carries its specification, counterexample and
    remainder, so it rebuilds the report submit returned."""
    netlist = generate_multiplier("SP-AR-RC", 4)
    buggy = apply_mutation(netlist, list_mutations(netlist)[5])
    report = VerificationService().submit(VerificationRequest.from_netlist(
        buggy, budgets=BUDGETS))
    assert report.verdict == "refuted"
    assert None not in (report.specification, report.counterexample,
                        report.remainder, report.cross_check)
    row = report.to_row()
    _assert_row_roundtrip(row)
    assert VerificationReport.from_row(row).to_dict() == report.to_dict()


def test_sat_row_roundtrip():
    _assert_row_roundtrip(_row("SP-WT-CL", 3, "sat-cec"))


def test_sat_not_applicable_row_roundtrip():
    row = VerificationReport.not_applicable(
        "sat-cec", circuit="BP-AR-RC", width=3).to_row()
    assert row["status"] == "n/a"
    _assert_row_roundtrip(row)


def test_bdd_row_roundtrip():
    _assert_row_roundtrip(_row("SP-CT-BK", 3, "bdd-cec"))


def test_error_and_crash_row_roundtrip():
    for status in ("error", "crash"):
        _assert_row_roundtrip({
            "architecture": "SP-AR-RC", "width": 3, "method": "mt-lr",
            "status": status, "time": "-", "time_s": None, "verified": None,
            "reason": "worker exited with code -9",
        })


def test_json_roundtrip_is_byte_identical():
    row = _row("SP-AR-RC", 3, "mt-lr")
    text = VerificationReport.from_row(row).to_json()
    assert VerificationReport.from_json(text).to_json() == text
    document = json.loads(text)
    assert document["schema"] == REPORT_SCHEMA
    assert list(document) == ["schema", "verdict", "status", "method",
                              "circuit", "width", "specification", "time",
                              "time_s", "reason", "counterexample",
                              "remainder", "counters", "certificate",
                              "cross_check", "attempts"]


def test_verdict_status_and_exit_code_mapping():
    for status, verdict in STATUS_TO_VERDICT.items():
        report = VerificationReport(verdict=verdict, status=status,
                                    method="mt-lr", circuit="X")
        assert report.verdict == verdict
    assert EXIT_CODES == {"verified": 0, "refuted": 2, "budget": 3,
                          "not_applicable": 0, "error": 1}
    assert VerificationReport(verdict="verified", method="m",
                              circuit="c").exit_code == 0
    assert VerificationReport(verdict="refuted", method="m",
                              circuit="c").exit_code == 2
    assert VerificationReport(verdict="budget", method="m",
                              circuit="c").exit_code == 3


def test_verified_tristate():
    assert VerificationReport(verdict="verified", method="m",
                              circuit="c").verified is True
    assert VerificationReport(verdict="refuted", method="m",
                              circuit="c").verified is False
    assert VerificationReport(verdict="budget", method="m",
                              circuit="c").verified is None


def test_unknown_verdict_and_status_rejected():
    with pytest.raises(VerificationError, match="unknown verdict"):
        VerificationReport(verdict="maybe", method="m", circuit="c")
    with pytest.raises(VerificationError, match="unknown row status"):
        VerificationReport.from_row({"architecture": "c", "width": 3,
                                     "method": "m", "status": "odd",
                                     "time": "-", "time_s": None,
                                     "verified": None})


@pytest.mark.parametrize("schema", [None, 1, 2, 3, 4, 5, 7, 99, "6"])
def test_from_json_rejects_other_schema_versions(schema):
    """Earlier versions (including the schema-5 ``incremental`` one),
    later and unknown ones, and a null or mistyped version are all
    refused; only :data:`REPORT_SCHEMA` parses."""
    report = VerificationReport(verdict="verified", method="m", circuit="c")
    document = report.to_dict()
    document["schema"] = schema
    with pytest.raises(VerificationError, match="unsupported report schema"):
        VerificationReport.from_dict(document)


def test_refuted_report_carries_remainder_and_counterexample():
    from repro.circuit.mutate import apply_mutation, list_mutations
    from repro.generators.multipliers import generate_multiplier

    netlist = generate_multiplier("SP-AR-RC", 3)
    buggy = apply_mutation(netlist, list_mutations(netlist)[0])
    report = VerificationService().submit(
        VerificationRequest.from_netlist(buggy, method="mt-lr"))
    assert report.verdict == "refuted"
    assert report.remainder
    assert report.counterexample
    revived = VerificationReport.from_json(report.to_json())
    assert revived.counterexample == report.counterexample
    assert revived.remainder == report.remainder


def test_budget_report_from_service():
    service = VerificationService()
    report = service.submit(VerificationRequest.from_architecture(
        "SP-RT-KS", 6, method="mt-naive",
        budgets=Budgets(monomial_budget=50)))
    assert report.verdict == "budget"
    assert report.status == "TO"
    assert report.time == "TO"
    assert report.reason
    assert report.exit_code == 3


def test_format_seconds():
    assert format_seconds(0.0) == "00:00:00.00"
    assert format_seconds(3725.5) == "01:02:05.50"
