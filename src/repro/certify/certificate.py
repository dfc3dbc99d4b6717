"""Certificate emitter: serialize a reduction journal into a checkable document.

The emitter side of :mod:`repro.certify`.  It consumes the raw journal
captured by ``verify(..., certificate=True)`` (on
:attr:`~repro.verification.result.VerificationResult.certificate_data`)
and produces the wire document::

    {
      "format": "repro-certificate",
      "version": 1,
      "sha256": "<hex digest of the canonical body>",
      "body": { ... }
    }

The body is serialized canonically — ``json.dumps(body, sort_keys=True,
separators=(",", ":"))`` — so the content hash is reproducible across
runs, platforms and Python versions.  Polynomials are encoded as
``[[mask, coefficient], ...]`` term lists sorted by monomial bitmask;
variables are indices into the ``variables`` name table (the model's
deterministic ascending-topological numbering, primary inputs first, so
every tail references only lower-indexed variables).

Every vanishing-monomial cancellation recorded by the engine is justified
with a *cone proof*: a minimal set of gate variables such that expanding
the monomial through their gate tails (in descending variable order)
reaches the zero polynomial exactly.  The checker replays exactly that
expansion, so no vanishing table, implied-literal machinery or verdict
memo is needed on the checking side.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.algebra.monomial import bits_of
from repro.algebra.polynomial import Polynomial
from repro.errors import CertificateError

CERTIFICATE_FORMAT = "repro-certificate"
CERTIFICATE_VERSION = 1

#: Term-count guard on the cone-proof expansion (a certificate should
#: never need anywhere near this; guards emitter bugs, not adversaries).
_CONE_TERM_LIMIT = 100_000


def canonical_json(body: dict) -> str:
    """The canonical serialization the content hash is computed over."""
    return json.dumps(body, sort_keys=True, separators=(",", ":"))


def certificate_hash(body: dict) -> str:
    """SHA-256 hex digest of the canonical body serialization."""
    return hashlib.sha256(canonical_json(body).encode("utf-8")).hexdigest()


def _encode_polynomial(poly: Polynomial) -> list[list[int]]:
    """``[[mask, coefficient], ...]`` sorted by monomial bitmask."""
    return [[mask, coeff] for mask, coeff in sorted(poly.term_masks())]


def _encode_tails(tails: dict[int, Polynomial]) -> list[list]:
    return [[var, _encode_polynomial(tails[var])] for var in sorted(tails)]


def _justify_vanishing(mask: int, gate_tails: dict[int, Polynomial],
                       input_mask: int) -> list[int]:
    """A cone of gate variables whose expansion proves ``mask`` vanishes.

    Starts from the non-input variables of the monomial and widens: if the
    expansion through the current cone is not identically zero, every
    non-input variable still present in the result joins the cone and the
    expansion is replayed.  Expansion substitutes in descending variable
    order — tails only reference lower-indexed variables, so one
    descending pass expands the monomial fully within the cone.
    """
    cone = {var for var in bits_of(mask) if not (1 << var) & input_mask}
    while True:
        poly = Polynomial.from_term_masks({mask: 1})
        for var in sorted(cone, reverse=True):
            poly = poly.substitute(var, gate_tails[var])
            if poly.num_terms > _CONE_TERM_LIMIT:
                raise CertificateError(
                    f"cone proof for mask {mask:#x} exceeded "
                    f"{_CONE_TERM_LIMIT} terms", stage="vanishing")
        if poly.is_zero:
            return sorted(cone)
        widened = {var for var in poly.support()
                   if not (1 << var) & input_mask and var in gate_tails}
        if widened <= cone:
            raise CertificateError(
                f"recorded vanishing mask {mask:#x} could not be justified "
                "by gate-cone expansion", stage="vanishing")
        cone |= widened


def build_certificate(result) -> dict:
    """Build the wrapped certificate document from a verification result.

    ``result`` must come from ``verify(..., certificate=True)``; its
    :attr:`certificate_data` journal is serialized, every vanishing mask
    is justified with a cone proof, and the finished document is run
    through the independent checker once (a self-check: an emitter bug
    must never produce a certificate that fails downstream).
    """
    data = result.certificate_data
    if data is None:
        raise CertificateError(
            "result carries no certificate journal; run "
            "verify(..., certificate=True)", stage="structure")
    from repro.circuit.verilog import write_verilog

    model = data["model"]
    netlist = data["netlist"]
    spec = data["spec"]
    input_mask = 0
    for var in model.input_vars:
        input_mask |= 1 << var
    vanishing = [[mask, _justify_vanishing(mask, model.tails, input_mask)]
                 for mask in data["vanishing_masks"]]
    body = {
        "method": data["method"],
        "circuit": netlist.name,
        "specification": spec.description,
        "modulus": spec.modulus,
        "verdict": "verified" if data["verified"] else "refuted",
        "netlist_sha256": hashlib.sha256(
            write_verilog(netlist).encode("utf-8")).hexdigest(),
        "variables": list(model.ring.names()),
        "inputs": sorted(model.input_vars),
        "outputs": list(model.output_vars),
        "gates": _encode_tails(model.tails),
        "model": _encode_tails(data["tails"]),
        "schedule": list(data["schedule"]),
        "spec_terms": _encode_polynomial(spec.polynomial),
        "remainder": _encode_polynomial(data["remainder"]),
        "vanishing": vanishing,
    }
    document = {
        "format": CERTIFICATE_FORMAT,
        "version": CERTIFICATE_VERSION,
        "sha256": certificate_hash(body),
        "body": body,
    }
    from repro.certify.checker import check_certificate
    check_certificate(document)
    return document


def write_certificate(document: dict, path: str | Path) -> None:
    """Write a certificate document to ``path`` (stable, human-diffable)."""
    Path(path).write_text(json.dumps(document, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")


def load_certificate(path: str | Path) -> dict:
    """Load a certificate document; structural validation is the checker's job."""
    try:
        document = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as error:
        raise CertificateError(f"cannot read certificate {path}: {error}",
                               stage="structure") from error
    if not isinstance(document, dict):
        raise CertificateError("certificate document must be a JSON object",
                               stage="structure")
    return document
