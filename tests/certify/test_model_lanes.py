"""Differential tests: the bit-parallel model check against the scalar loop.

The checker's model stage evaluates every assignment at once in packed
lanes and keeps the one-assignment loop as its reference and error path.
Seeded corruptions of gate and model tails must get the same answer from
both: the lane kernel accepts exactly what the loop accepts, and the
stage as the checker runs it raises exactly the loop's error (stage, step
and message), also when a coefficient is too large for the lanes.
"""

from __future__ import annotations

import random

import pytest

from repro.algebra.polynomial import Polynomial
from repro.certify import build_certificate, checker
from repro.errors import CertificateError
from repro.generators.multipliers import generate_multiplier
from repro.verification.engine import verify

TRIALS = 40

#: Corruption kinds, cycled so every certificate sees each of them.
KINDS = ("offset", "flip", "monomial", "cancelling", "non-boolean", "huge")


def _decoded(certificate: dict):
    body = certificate["body"]
    num_vars = len(body["variables"])
    input_mask = 0
    for var in body["inputs"]:
        input_mask |= 1 << var
    gates = checker._decode_tails(body["gates"], "gates", num_vars, input_mask)
    model = checker._decode_tails(body["model"], "model", num_vars, input_mask)
    return (body["inputs"], body["netlist_sha256"], gates, model,
            body["schedule"])


def _monomial(rng: random.Random, lower: list[int]) -> int:
    """A constant or a product of one or two variables from ``lower``."""
    if not lower or rng.random() < 0.15:
        return 0
    mask = 0
    for var in rng.sample(lower, min(len(lower), rng.randint(1, 2))):
        mask |= 1 << var
    return mask


def _corrupt(rng: random.Random, kind: str, tails: dict[int, Polynomial],
             variables: list[int], gate: bool) -> None:
    """Corrupt one tail of ``tails`` in place; it keeps the order invariant."""
    var = rng.choice(sorted(tails))
    terms = dict(tails[var].term_masks())
    lower = [other for other in variables if other < var]

    def add(mask: int, coeff: int) -> None:
        terms[mask] = terms.get(mask, 0) + coeff

    if kind == "offset":
        add(0, rng.choice([1, -1, 2, -3]))
    elif kind == "flip" and terms:
        mask = rng.choice(sorted(terms))
        terms[mask] = -terms[mask]
    elif kind == "cancelling":
        coeff = rng.choice([1, 2, 5])
        add(_monomial(rng, lower), coeff)
        add(_monomial(rng, lower), -coeff)
    elif kind == "non-boolean" and gate:
        # A Boolean tail scaled by 2 or -1 takes the value 2 or -1.
        factor = rng.choice([2, -1])
        terms = {mask: factor * coeff for mask, coeff in terms.items()}
    elif kind == "huge":
        add(_monomial(rng, lower), rng.choice([2 ** 70, -2 ** 70, 2 ** 200 + 1]))
    else:
        add(_monomial(rng, lower), rng.choice([1, -1, 2]))
    tails[var] = Polynomial.from_term_masks(terms)


def _outcome(run):
    try:
        return ("accept", run())
    except CertificateError as error:
        return ("reject", error.stage, error.step, str(error))


def _lane_verdict(inputs, seed, gates, model, schedule) -> bool:
    """The lane kernel alone, at the width the tails need (no cap)."""
    width = checker._lane_width([*gates.values(), *model.values()])
    if len(inputs) <= checker._EXHAUSTIVE_INPUTS:
        lanes, ones = checker._exhaustive_lanes(inputs, width)
    else:
        lanes, ones = checker._sampled_lanes(inputs, seed, width)
    return checker._lanes_agree(lanes, ones, width, gates, model, schedule)


@pytest.mark.parametrize("architecture, width, mode", [
    ("SP-AR-RC", 3, "exhaustive"),
    ("SP-WT-CL", 4, "exhaustive"),
    ("BP-WT-CL", 7, "sampled"),
])
def test_lane_kernel_matches_scalar_reference(architecture, width, mode,
                                              monkeypatch):
    result = verify(generate_multiplier(architecture, width), method="mt-lr",
                    find_counterexample=False, certificate=True)
    inputs, seed, gates, model, schedule = _decoded(build_certificate(result))
    variables = sorted({*inputs, *gates})
    assert checker._check_model(inputs, seed, gates, model, schedule) == mode

    rng = random.Random(f"{architecture}-{width}")
    verdicts = {"accept": 0, "reject": 0}
    capped = 0
    for trial in range(TRIALS):
        bad_gates, bad_model = dict(gates), dict(model)
        on_gate = rng.random() < 0.5
        _corrupt(rng, KINDS[trial % len(KINDS)],
                 bad_gates if on_gate else bad_model, variables, on_gate)
        args = (inputs, seed, bad_gates, bad_model, schedule)

        got = _outcome(lambda: checker._check_model(*args))
        with monkeypatch.context() as patch:
            patch.setattr(checker, "LANE_WIDTH_LIMIT", 0)   # scalar only
            reference = _outcome(lambda: checker._check_model(*args))
        assert got == reference, f"trial {trial}: {got} != {reference}"
        assert _lane_verdict(*args) == (reference[0] == "accept"), \
            f"trial {trial}: lane kernel disagrees with {reference}"
        verdicts[reference[0]] += 1
        width_bits = checker._lane_width([*bad_gates.values(),
                                          *bad_model.values()])
        capped += width_bits > checker.LANE_WIDTH_LIMIT
    assert verdicts["reject"] >= TRIALS // 2, verdicts
    assert capped >= 1, "no corruption exercised the lane-width cap"
