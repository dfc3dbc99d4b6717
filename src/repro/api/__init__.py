"""repro.api — the unified verification service layer.

One front door over every verification backend of the reproduction: typed
requests, a pluggable backend registry, a service façade over the parallel
runner, and one structured report schema shared by the Python API, the CLI
``--json`` output, and the on-disk result cache.

Quickstart::

    from repro.api import Budgets, VerificationRequest, VerificationService

    service = VerificationService()
    report = service.submit(VerificationRequest.from_architecture(
        "BP-WT-CL", 8, method="mt-lr", budgets=Budgets(time_budget_s=60.0)))
    assert report.verdict == "verified"
    print(report.to_json(indent=2))

Report JSON schema (version 6)
------------------------------

``VerificationReport.to_json()`` emits one object with exactly these keys,
in this order (absent values are ``null``, never omitted)::

    {
      "schema": 6,                  // report schema version
      "verdict": "verified",        // "verified" | "refuted" | "budget"
                                    //   | "not_applicable" | "error"
      "status": "ok",               // legacy table-row status: "ok" |
                                    //   "mismatch" | "TO" | "n/a" |
                                    //   "error" | "crash"
      "method": "mt-lr",            // registered backend name
      "circuit": "BP-WT-CL",        // architecture or module name
      "width": 8,                   // operand width in bits, if known
      "specification": "...",       // human-readable spec description
      "time": "00:00:00.12",        // display time; "TO" on budget trips
      "time_s": 0.123,              // total wall-clock seconds
      "reason": null,               // budget-trip / failure reason, or
                                    //   where the algebra stopped before
                                    //   a refutation by simulation
      "counterexample": null,       // {"a0": 1, ...} input assignment
      "remainder": null,            // non-zero remainder (algebraic refute)
      "counters": {...}             // backend counters, declared order:
                                    //   algebraic: cancelled_vanishing_
                                    //     monomials, reduction_time_s,
                                    //     rewrite_time_s, num_polynomials,
                                    //     num_monomials,
                                    //     max_polynomial_terms,
                                    //     max_monomial_variables,
                                    //     peak_remainder
                                    //   algebraic refutation by
                                    //     simulation, after a budget trip
                                    //     or the refutation probe (no
                                    //     remainder): simulated_vectors
                                    //   sat-cec: conflicts, clauses
                                    //   bdd-cec: bdd_nodes
      "certificate": null,          // checkable proof certificate
                                    //   (repro.certify format) when the
                                    //   request asked for one
      "cross_check": null,          // independent refutation cross-check:
                                    //   {"backend": "sat-cec", "status",
                                    //    "agrees",
                                    //    "counterexample_confirmed", ...}
      "attempts": null              // retry/fallback history when the
                                    //   report took more than one attempt
                                    //   (see docs/robustness.md); null on
                                    //   the untroubled path
    }

The serialization is canonical — fixed top-level key order, counters in
declared order — so ``from_json(to_json(r)).to_json()`` is byte-identical
to ``to_json(r)`` for every backend.  The CLI exit codes are driven by the
verdict: 0 = verified (or not applicable), 2 = refuted, 3 = budget trip /
timeout, 1 = usage or infrastructure error.

Schema history: version 1 is the original wire schema; version 2 was
reserved to align the report version with the on-disk result-cache
``SCHEMA`` (which advanced when cached rows became report documents) and
is wire-identical to 1; version 3 appends ``certificate`` and
``cross_check``; version 4 appends ``attempts`` (the resilience layer's
retry/fallback history); version 5 appended an ``incremental`` block of
per-cone counters; version 6 removes it again, together with the
per-cone verification path that filled it.  ``from_json``/``from_dict``
accept only the current version — see the table in
``docs/http-api.md``.

The registry (:mod:`repro.api.registry`) is imported eagerly — it is pure
data and safe everywhere — while the request/report/service modules load
lazily so lower layers (``repro.verification.engine`` derives its method
list from the registry) can import this package without cycles.
"""

from __future__ import annotations

from repro.api.registry import (
    BackendSpec,
    algebraic_backend_names,
    backend_names,
    backends,
    get_backend,
    has_backend,
    register,
)

__all__ = [
    "BackendSpec",
    "Budgets",
    "VerificationReport",
    "VerificationRequest",
    "VerificationService",
    "algebraic_backend_names",
    "backend_names",
    "backends",
    "get_backend",
    "has_backend",
    "register",
]

_LAZY = {
    "Budgets": ("repro.api.request", "Budgets"),
    "VerificationRequest": ("repro.api.request", "VerificationRequest"),
    "VerificationReport": ("repro.api.report", "VerificationReport"),
    "VerificationService": ("repro.api.service", "VerificationService"),
}


def __getattr__(name: str):
    """Lazy exports (PEP 562) — breaks the engine <-> api import cycle."""
    try:
        module_name, attribute = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    import importlib
    value = getattr(importlib.import_module(module_name), attribute)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))
