"""Tests for small formatting helpers of the experiment harness."""

from repro.api.report import format_seconds as _format_seconds


def test_format_seconds_paper_style():
    assert _format_seconds(0.0) == "00:00:00.00"
    assert _format_seconds(61.5) == "00:01:01.50"
    assert _format_seconds(3723.25) == "01:02:03.25"


def test_format_seconds_rolls_over_hours():
    assert _format_seconds(100 * 3600.0).startswith("100:")
