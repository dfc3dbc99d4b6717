"""Adversarial checker tests: every class of corrupted certificate is rejected.

Each mutation edits the certificate *body* and then recomputes the
content hash — otherwise every mutation would be caught by the cheap
hash stage and the deeper checker stages would go untested.  The checker
must reject each class with a :class:`~repro.errors.CertificateError`
naming the right stage and, where meaningful, the offending step index.
"""

from __future__ import annotations

import copy

import pytest

from repro.certify import build_certificate, certificate_hash, check_certificate
from repro.circuit.mutate import apply_mutation, list_mutations
from repro.errors import CertificateError
from repro.generators.multipliers import generate_multiplier
from repro.verification.engine import verify


@pytest.fixture(scope="module")
def certificate() -> dict:
    result = verify(generate_multiplier("SP-AR-RC", 4), method="mt-lr",
                    find_counterexample=False, certificate=True)
    return build_certificate(result)


@pytest.fixture(scope="module")
def refuted_certificate() -> dict:
    netlist = generate_multiplier("SP-AR-RC", 4)
    buggy = apply_mutation(netlist, list_mutations(netlist)[5])
    result = verify(buggy, method="mt-lr", certificate=True)
    assert result.verified is False
    return build_certificate(result)


def _mutate(certificate: dict, edit) -> dict:
    """Deep-copy, apply ``edit`` to the body, re-seal the content hash."""
    mutated = copy.deepcopy(certificate)
    edit(mutated["body"])
    mutated["sha256"] = certificate_hash(mutated["body"])
    return mutated


def _expect_rejection(document: dict, stage: str,
                      step: int | None = None) -> CertificateError:
    with pytest.raises(CertificateError) as excinfo:
        check_certificate(document)
    error = excinfo.value
    assert error.stage == stage, f"stage {error.stage!r}, wanted {stage!r}: {error}"
    if step is not None:
        assert error.step == step, f"step {error.step}, wanted {step}: {error}"
    return error


def test_hash_tamper_is_rejected(certificate):
    tampered = copy.deepcopy(certificate)
    tampered["body"]["verdict"] = "refuted"   # body edited, hash NOT re-sealed
    error = _expect_rejection(tampered, "hash")
    assert "altered" in str(error)


def test_dropped_schedule_step_is_rejected(certificate):
    steps = len(certificate["body"]["schedule"])
    mutated = _mutate(certificate, lambda body: body["schedule"].pop(17))
    # The omission is reported with a step index (the truncated length).
    error = _expect_rejection(mutated, "schedule", step=steps - 1)
    assert "omits" in str(error)


def test_duplicated_schedule_step_is_rejected(certificate):
    def edit(body):
        body["schedule"][5] = body["schedule"][4]
    _expect_rejection(_mutate(certificate, edit), "schedule", step=5)


def test_swapped_dependent_steps_are_rejected(certificate):
    """Swapping two order-dependent substitutions must break the replay.

    The schedule is consumer-first: when a variable is substituted, every
    model tail referencing it was already substituted — so an *earlier*
    step's tail references a *later* step's variable.  Swapping such a
    pair makes the replay diverge from the recorded remainder.
    """
    body = certificate["body"]
    tails = {var: {mask for mask, _ in terms} for var, terms in body["model"]}
    schedule = body["schedule"]
    pair = None
    for i, early in enumerate(schedule):
        for j in range(i + 1, len(schedule)):
            if any(mask & (1 << schedule[j]) for mask in tails[early]):
                pair = (i, j)
                break
        if pair:
            break
    assert pair, "grid certificate must contain a dependent schedule pair"
    i, j = pair

    def edit(body):
        body["schedule"][i], body["schedule"][j] = \
            body["schedule"][j], body["schedule"][i]
    error = _expect_rejection(_mutate(certificate, edit), "replay")
    assert error.step is not None


def test_corrupted_model_coefficient_is_rejected(certificate):
    def edit(body):
        # Flip one coefficient of the first non-trivial model tail.
        for _var, terms in body["model"]:
            if terms:
                terms[0][1] += 1
                return
    _expect_rejection(_mutate(certificate, edit), "model")


def test_corrupted_gate_tail_is_rejected(certificate):
    def edit(body):
        # Invert one gate (tail := tail + 1): the gate either leaves the
        # Boolean domain or disagrees with the rewritten model — a
        # behavioural corruption, not a cosmetic re-encoding.
        for _var, terms in body["gates"]:
            if terms and all(mask != 0 for mask, _ in terms):
                terms.insert(0, [0, 1])
                return
    error = _expect_rejection(_mutate(certificate, edit), "model")
    assert error is not None


def test_corrupted_vanishing_mask_is_rejected(certificate):
    body = certificate["body"]
    if not body["vanishing"]:
        pytest.skip("mt-lr certificate unexpectedly carries no vanishing rules")
    inputs = body["inputs"][:2]
    non_vanishing = (1 << inputs[0]) | (1 << inputs[1])

    def edit(body):
        body["vanishing"][0][0] = non_vanishing   # product of two PIs
    _expect_rejection(_mutate(certificate, edit), "vanishing", step=0)


def test_truncated_remainder_flips_refutation_and_is_rejected(
        refuted_certificate):
    steps = len(refuted_certificate["body"]["schedule"])

    def edit(body):
        body["remainder"] = []
    # An emptied remainder no longer matches the replayed reduction.
    _expect_rejection(_mutate(refuted_certificate, edit), "replay", step=steps)


def test_corrupted_spec_terms_are_rejected(certificate):
    def edit(body):
        body["spec_terms"][0][1] += 1
    _expect_rejection(_mutate(certificate, edit), "replay")


def test_flipped_verdict_with_resealed_hash_is_rejected(refuted_certificate):
    def edit(body):
        body["verdict"] = "verified"
    _expect_rejection(_mutate(refuted_certificate, edit), "verdict")


def test_remainder_over_gate_variables_is_rejected(certificate):
    body = certificate["body"]
    gate_var = body["gates"][0][0]

    def edit(body):
        body["remainder"] = [[1 << gate_var, 1]]
    error = _expect_rejection(_mutate(certificate, edit), "replay")
    assert error is not None


def test_cyclic_tail_is_rejected(certificate):
    def edit(body):
        var, terms = body["gates"][-1]
        terms.append([1 << var, 1])    # tail references its own lead
    _expect_rejection(_mutate(certificate, edit), "order")


def test_missing_body_key_is_rejected(certificate):
    mutated = _mutate(certificate, lambda body: body.pop("schedule"))
    _expect_rejection(mutated, "structure")


def test_wrong_format_and_version_are_rejected(certificate):
    wrong_format = copy.deepcopy(certificate)
    wrong_format["format"] = "other"
    _expect_rejection(wrong_format, "structure")
    wrong_version = copy.deepcopy(certificate)
    wrong_version["version"] = 2
    _expect_rejection(wrong_version, "structure")


def _set_cone(cone):
    def edit(body):
        body["vanishing"][2][1] = cone
    return edit


def _boolean_input(body):
    # ``true == 1`` in Python, so a JSON boolean could pass for variable 1.
    body["inputs"][1] = True


def _non_list_tail(body):
    body["gates"][3][1] = 5


@pytest.mark.parametrize("edit, stage, step", [
    (_set_cone([5, "x"]), "vanishing", 2),
    (_set_cone([[5]]), "vanishing", 2),
    (_boolean_input, "structure", None),
    (_non_list_tail, "structure", None),
], ids=["cone-string", "cone-list", "input-boolean", "tail-not-a-list"])
def test_malformed_entries_raise_certificate_error(certificate, edit, stage,
                                                   step):
    """Malformed input is a ``CertificateError``, never another exception."""
    assert certificate["body"]["inputs"][1] == 1
    error = _expect_rejection(_mutate(certificate, edit), stage, step)
    assert error.step == step
