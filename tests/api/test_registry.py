"""Tests of the backend registry — the single source of truth for methods."""

from __future__ import annotations

import pytest

from repro.api import registry
from repro.api.registry import (
    ABLATION_METHODS,
    ADDER_BLOWUP_METHODS,
    BackendSpec,
    COMPARISON_METHODS,
    TABLE1_BASELINES,
    TABLE2_BASELINES,
    algebraic_backend_names,
    backend_names,
    backends,
    baseline_backend_names,
    get_backend,
    has_backend,
    register,
    scheduling_rank,
    unregister,
)
from repro.errors import VerificationError


def test_six_builtin_backends_in_canonical_order():
    assert backend_names() == ("mt-lr", "mt-fo", "mt-naive", "mt-xor",
                               "sat-cec", "bdd-cec")


def test_kind_partitions_cover_the_registry():
    assert algebraic_backend_names() == ("mt-lr", "mt-fo", "mt-naive", "mt-xor")
    assert baseline_backend_names() == ("sat-cec", "bdd-cec")
    assert (set(algebraic_backend_names()) | set(baseline_backend_names())
            == set(backend_names()))


def test_capability_metadata():
    assert get_backend("mt-lr").supports_stats
    assert get_backend("mt-lr").supports_counterexample
    assert not get_backend("sat-cec").supports_stats
    assert get_backend("sat-cec").supports_counterexample
    assert not get_backend("bdd-cec").supports_counterexample
    for spec in backends():
        assert spec.kind in ("algebraic", "sat", "bdd")
        assert spec.description
        assert spec.budget_keys


def test_scheduling_ranks_match_expected_cost_ordering():
    # MT-LR is the cheapest method, naive membership testing the costliest.
    ranks = [scheduling_rank(name) for name in
             ("mt-lr", "mt-xor", "sat-cec", "bdd-cec", "mt-fo", "mt-naive")]
    assert ranks == sorted(ranks)
    assert scheduling_rank("unknown-backend") == 0


def test_get_backend_rejects_unknown_names():
    with pytest.raises(VerificationError, match="unknown method"):
        get_backend("mt-bogus")
    assert not has_backend("mt-bogus")


def test_register_and_unregister_custom_backend():
    spec = BackendSpec(name="test-backend", kind="sat",
                       description="a test plug-in", cost_rank=9)
    try:
        register(spec)
        assert has_backend("test-backend")
        assert get_backend("test-backend") is spec
        assert "test-backend" in backend_names()
        with pytest.raises(VerificationError, match="already registered"):
            register(spec)
    finally:
        unregister("test-backend")
    assert not has_backend("test-backend")


def test_backend_spec_rejects_unknown_kind():
    with pytest.raises(VerificationError, match="unknown kind"):
        BackendSpec(name="x", kind="quantum")


def test_table_column_lists_are_registry_validated():
    for name in (TABLE1_BASELINES + TABLE2_BASELINES + COMPARISON_METHODS
                 + ABLATION_METHODS + ADDER_BLOWUP_METHODS):
        assert has_backend(name)


def test_derived_consumers_use_the_registry(capsys):
    from repro.cli import main
    from repro.verification.engine import METHODS

    assert METHODS == algebraic_backend_names()
    assert main(["batch", "-a", "SP-AR-RC", "-m", "no-such-method"]) == 1
    assert ", ".join(backend_names()) in capsys.readouterr().err


def test_no_hardcoded_method_lists_outside_the_registry():
    """Grep-style guard: consumers must derive their lists, not re-declare them."""
    from pathlib import Path

    src = Path(registry.__file__).resolve().parents[1]
    offenders = []
    for path in src.rglob("*.py"):
        if path.name == "registry.py":
            continue
        text = path.read_text(encoding="utf-8")
        for needle in ('"mt-lr", "mt-fo"', "'mt-lr', 'mt-fo'",
                       '"sat-cec", "bdd-cec"', "'sat-cec', 'bdd-cec'",
                       '"mt-naive", "mt-fo"', '"mt-fo", "mt-xor"'):
            if needle in text:
                offenders.append(f"{path.name}: {needle}")
    assert not offenders, f"hardcoded method lists found: {offenders}"
