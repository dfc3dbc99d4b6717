"""Unit tests for the deterministic fault-injection harness."""

from __future__ import annotations

import json
import os

import pytest

import repro.resilience.faults as faults_module
from repro.errors import VerificationError
from repro.resilience.faults import (
    ENV_VAR,
    Fault,
    FaultPlan,
    active_plan,
    corrupt_cache_entry,
)

from .conftest import CHAOS_SEED


def test_fault_validates():
    with pytest.raises(VerificationError):
        Fault("meteor-strike")
    with pytest.raises(VerificationError):
        Fault("worker-crash", times=-1)


def test_plan_json_round_trip():
    plan = FaultPlan(seed=CHAOS_SEED, faults=(
        Fault("worker-crash", match="SP-*/4/mt-lr", times=2),
        Fault("disconnect", match="POST /v1/*", delay_s=0.5)))
    clone = FaultPlan.from_json(plan.to_json())
    assert clone.seed == plan.seed
    assert clone.faults == plan.faults
    assert clone.to_json() == plan.to_json()
    with pytest.raises(VerificationError):
        FaultPlan.from_json("{not json")
    with pytest.raises(VerificationError):
        FaultPlan.from_json(json.dumps(
            {"faults": [{"site": "worker-crash", "surprise": 1}]}))


def test_should_matches_globs_and_respects_times():
    plan = FaultPlan(seed=CHAOS_SEED, faults=(
        Fault("worker-crash", match="SP-*/4/mt-lr", times=2),))
    assert plan.should("worker-crash", "BP-WT-CL/4/mt-lr") is None
    assert plan.should("worker-latency", "SP-AR-RC/4/mt-lr") is None
    assert plan.should("worker-crash", "SP-AR-RC/4/mt-lr") is not None
    assert plan.should("worker-crash", "SP-WT-CL/4/mt-lr") is not None
    # Budget exhausted: the third matching call must not fire.
    assert plan.should("worker-crash", "SP-AR-RC/4/mt-lr") is None


@pytest.mark.parametrize("created", [True, False],
                         ids=["existing-dir", "missing-dir"])
def test_state_dir_claims_are_fleet_wide(tmp_path, created):
    """Two plan instances (= two processes) share one hit budget.

    A ``state_dir`` nobody created yet is made by the first claim, so
    such a plan fires too instead of silently never firing.
    """
    state = tmp_path / "runs" / "state"
    if created:
        state.mkdir(parents=True)
    fault = Fault("worker-crash", times=3)
    first = FaultPlan(seed=CHAOS_SEED, faults=(fault,),
                      state_dir=str(state))
    second = FaultPlan.from_json(first.to_json())
    fired = sum(1 for i in range(10)
                if (first if i % 2 else second).should(
                    "worker-crash", "a/4/m") is not None)
    assert fired == 3
    assert len(list(state.iterdir())) == 3


def test_payload_is_seed_and_key_deterministic():
    plan = FaultPlan(seed=CHAOS_SEED)
    assert plan.payload("entry.json") == plan.payload("entry.json")
    assert len(plan.payload("entry.json", length=100)) == 100
    assert plan.payload("entry.json") != plan.payload("other.json")
    assert plan.payload("entry.json") != \
        FaultPlan(seed=CHAOS_SEED + 1).payload("entry.json")


def test_corrupt_cache_entry_is_deterministic(tmp_path):
    target = tmp_path / "entry.json"
    target.write_text("{}", encoding="utf-8")
    corrupt_cache_entry(target, seed=CHAOS_SEED)
    first = target.read_bytes()
    target.write_text("{}", encoding="utf-8")
    corrupt_cache_entry(target, seed=CHAOS_SEED)
    assert target.read_bytes() == first
    assert not first.startswith(b"{")


def test_active_plan_tracks_environment(chaos, monkeypatch):
    assert active_plan() is None
    plan = chaos(Fault("worker-crash"))
    live = active_plan()
    assert live is not None
    assert live.to_json() == plan.to_json()
    assert active_plan() is live, "same env value must hit the parse cache"
    monkeypatch.delenv(ENV_VAR)
    assert active_plan() is None


def test_environment_mapping_activates_in_children(chaos):
    plan = chaos(Fault("worker-latency", delay_s=0.1))
    assert plan.environment() == {ENV_VAR: plan.to_json()}
    assert os.environ[ENV_VAR] == plan.to_json()
    faults_module._CACHED = (None, None)  # simulate a fresh child process
    child = active_plan()
    assert child is not None and child.faults == plan.faults
