"""Tests for the table generators (paper Tables I-III and the extra analyses)."""

import pytest

from repro.api.request import Budgets
from repro.experiments.runner import ExperimentConfig
from repro.experiments.tables import (
    ablation_rows,
    adder_blowup_rows,
    format_table,
    main,
    table1_rows,
    table2_rows,
    table3_rows,
)


@pytest.fixture
def tiny_config():
    return ExperimentConfig(widths=(3,), budgets=Budgets(
        time_budget_s=30.0, monomial_budget=500_000,
        sat_conflict_budget=50_000, bdd_node_budget=500_000))


def test_table1_rows_have_expected_columns(tiny_config):
    rows = table1_rows(tiny_config, architectures=("SP-AR-RC", "SP-WT-CL"),
                       include_baselines=False)
    assert len(rows) == 2
    for row in rows:
        assert row["benchmark"].startswith("SP")
        assert row["bits"] == "3/6"
        assert row["verified"] is True
        assert row["mt-lr"] != "TO"


def test_table2_rows_mark_cpp_not_applicable(tiny_config):
    rows = table2_rows(tiny_config, architectures=("BP-AR-RC", "SP-AR-RC"),
                       include_baselines=True)
    assert rows[0]["cpp"] == "-"
    assert rows[0]["verified"] is True
    # A non-Booth architecture reads the sat-cec cell.
    assert rows[1]["cpp"] not in ("-", "TO")


def test_table3_rows_report_model_statistics(tiny_config):
    rows = table3_rows(tiny_config, architectures=("BP-WT-CL",))
    row = rows[0]
    assert row["#P"] > 0 and row["#M"] > 0
    assert row["#CVM"] > 0
    assert row["#VM"] >= 2


def test_adder_blowup_rows_show_mt_lr_advantage():
    rows = adder_blowup_rows(widths=(8,), adder_kind="KS",
                             monomial_budget=200_000, time_budget_s=20.0)
    row = rows[0]
    assert row["mt-lr"] != "TO"


def test_ablation_rows(tiny_config):
    rows = ablation_rows(tiny_config, architectures=("SP-CT-BK",))
    assert {"mt-fo", "mt-xor", "mt-lr"} <= set(rows[0])


def test_format_table_renders_all_rows():
    rows = [{"benchmark": "SP-AR-RC", "time": "00:00:01"},
            {"benchmark": "BP-CT-BK", "time": "TO"}]
    text = format_table(rows, title="Demo")
    assert "Demo" in text
    assert "SP-AR-RC" in text and "TO" in text
    assert format_table([], title="Empty").startswith("Empty")


def test_main_rejects_unknown_table(capsys):
    assert main(["does-not-exist"]) == 1
