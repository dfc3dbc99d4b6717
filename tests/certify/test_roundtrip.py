"""Emit -> check round trips over the full fingerprint grid.

The grid is the repo's certificate fingerprint surface: all 50 catalog
multiplier architectures x the 4 membership-testing methods at 4 bit,
plus the RC/KS/BK adders x the same methods — 212 rows.  Every row must
emit a certificate the independent checker accepts, and emission must be
byte-stable: verifying the same circuit twice yields the identical
canonical body (and therefore the identical content hash).  The hashes
themselves are pinned too, one digest per method and one for the adders,
so a change anywhere in modelling, rewriting or reduction that alters a
single certificate fails here.
"""

from __future__ import annotations

import copy
import hashlib

import pytest

from repro.certify import (
    build_certificate,
    canonical_json,
    certificate_hash,
    check_certificate,
)
from repro.errors import CertificateError
from repro.generators.adders import generate_adder
from repro.generators.catalog import architecture_names
from repro.generators.multipliers import generate_multiplier
from repro.verification.engine import verify

MT_METHODS = ("mt-naive", "mt-fo", "mt-xor", "mt-lr")
ADDER_KINDS = ("RC", "KS", "BK")
WIDTH = 4

#: sha256 over the concatenated certificate hashes (hex) of each method's
#: 50 multiplier rows in ``architecture_names()`` order, and of the 12
#: adder rows in (RC, KS, BK) x method order.
GRID_DIGESTS = {
    "mt-naive": "031f02c1b3f27c6c1cbe2639339dfe5d928da2fb740cc6f8bf5a70d1177131d9",
    "mt-fo": "a75087900e5e7f14ba3538fc9217bba709cb4ce47cdb78f593e583cf75de444a",
    "mt-xor": "313c3ed66cae9acb9276d70b4df1fd149449565f222141d39325049064c45572",
    "mt-lr": "7afa9668081fdbf042c83f672b38bf834fc3ac0038a54b1d816adb7189a487f5",
    "adders": "0923dde26c66e1a4c8d1559565a422153f90ba7aa6dd7b3fad96e02437f53516",
}


def _emit(netlist, method: str, specification: str) -> dict:
    result = verify(netlist, specification=specification, method=method,
                    find_counterexample=False, certificate=True)
    assert result.verified, f"{netlist.name} must verify under {method}"
    return build_certificate(result)


def _check_rows(rows) -> str:
    """Emit twice per row; require byte-stability and checker acceptance.

    Returns the sha256 over the rows' certificate hashes, in row order.
    """
    hashes = []
    for netlist_factory, method, specification in rows:
        first = _emit(netlist_factory(), method, specification)
        second = _emit(netlist_factory(), method, specification)
        assert canonical_json(first["body"]) == canonical_json(second["body"])
        assert first["sha256"] == second["sha256"]
        assert first["sha256"] == certificate_hash(first["body"])
        summary = check_certificate(first)
        assert summary["verdict"] == "verified"
        assert summary["sha256"] == first["sha256"]
        assert summary["method"] == method
        hashes.append(first["sha256"])
    return hashlib.sha256("".join(hashes).encode("ascii")).hexdigest()


def test_fingerprint_grid_is_212_rows():
    multipliers = len(architecture_names()) * len(MT_METHODS)
    adders = len(ADDER_KINDS) * len(MT_METHODS)
    assert multipliers + adders == 212


@pytest.mark.parametrize("method", MT_METHODS)
def test_multiplier_catalog_certificates_roundtrip(method):
    digest = _check_rows(
        ((lambda arch=arch: generate_multiplier(arch, WIDTH)),
         method, "multiplier")
        for arch in architecture_names())
    assert digest == GRID_DIGESTS[method]


def test_adder_certificates_roundtrip():
    digest = _check_rows(
        ((lambda kind=kind: generate_adder(kind, WIDTH)), method, "adder")
        for kind in ADDER_KINDS for method in MT_METHODS)
    assert digest == GRID_DIGESTS["adders"]


@pytest.mark.parametrize("width, mode", [(6, "exhaustive"), (8, "sampled")])
def test_model_check_mode_boundary_roundtrips(width, mode):
    """12 inputs (6 bits) is the largest exhaustive model check; 16 are sampled."""
    certificate = _emit(generate_multiplier("SP-AR-RC", width), "mt-lr",
                        "multiplier")
    assert check_certificate(certificate)["model_check"] == mode

    # A partial-product gate plus the constant 1 evaluates to 2 wherever
    # both of its inputs are 1 (and flips the circuit where they are not).
    # The gate must not sit in a vanishing cone, or the vanishing stage
    # would reject first.
    body = copy.deepcopy(certificate["body"])
    cited = {var for _mask, cone in body["vanishing"] for var in cone}
    input_mask = sum(1 << var for var in body["inputs"])
    gate = next(terms for var, terms in body["gates"]
                if var not in cited and len(terms) == 1
                and terms[0][0].bit_count() == 2
                and not terms[0][0] & ~input_mask)
    gate.insert(0, [0, 1])
    corrupted = {**certificate, "body": body, "sha256": certificate_hash(body)}
    with pytest.raises(CertificateError) as excinfo:
        check_certificate(corrupted)
    assert excinfo.value.stage == "model"


def test_refuted_certificate_roundtrips():
    """A buggy circuit yields a checkable *refutation* certificate."""
    from repro.circuit.mutate import apply_mutation, list_mutations

    netlist = generate_multiplier("SP-AR-RC", WIDTH)
    buggy = apply_mutation(netlist, list_mutations(netlist)[5])
    result = verify(buggy, method="mt-lr", certificate=True)
    assert result.verified is False
    certificate = build_certificate(result)
    summary = check_certificate(certificate)
    assert summary["verdict"] == "refuted"
    assert summary["steps"] > 0


def test_build_certificate_requires_the_journal():
    from repro.errors import CertificateError

    result = verify(generate_multiplier("SP-AR-RC", 3), method="mt-lr")
    assert result.certificate_data is None
    with pytest.raises(CertificateError, match="no certificate journal"):
        build_certificate(result)


def test_the_journal_records_the_schedule_the_reduction_ran(monkeypatch):
    """The certificate's schedule is the reduction's own, not a second
    ``substitution_order`` pass over the same tails."""
    import repro.verification.reduction as reduction

    calls: list[int] = []
    order = reduction.substitution_order

    def spy(model, tails):
        calls.append(len(tails))
        return order(model, tails)

    monkeypatch.setattr(reduction, "substitution_order", spy)
    result = verify(generate_multiplier("BP-WT-CL", WIDTH), method="mt-lr",
                    find_counterexample=False, certificate=True)
    assert len(calls) == 1
    schedule = result.certificate_data["schedule"]
    assert schedule is result.reduction_trace.schedule
    assert schedule == order(result.certificate_data["model"],
                             result.certificate_data["tails"])
    assert build_certificate(result)["body"]["schedule"] == schedule
