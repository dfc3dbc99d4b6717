"""The membership-testing verification engines (MT-Naive, MT-FO, MT-LR).

This is the top-level entry point of the reproduction:

>>> from repro.generators import generate_multiplier
>>> from repro.verification import verify_multiplier
>>> result = verify_multiplier(generate_multiplier("SP-AR-RC", 4))
>>> result.verified
True

The three methods share the same Step 1 (modelling) and Step 3 (Gröbner
basis reduction) and differ only in Step 2 (rewriting):

=========== ==================================================================
``mt-naive`` no rewriting — the raw gate-level Gröbner basis
``mt-fo``    fanout rewriting [Farahmandi & Alizadeh], no vanishing rule
``mt-xor``   XOR rewriting only (ablation of the paper's Section IV-B remark)
``mt-lr``    the paper's logic reduction rewriting: XOR rewriting with the
             XOR-AND vanishing rule, followed by common rewriting
=========== ==================================================================
"""

from __future__ import annotations

import itertools
import random
import time

from repro.algebra.polynomial import Polynomial
from repro.api.registry import algebraic_backend_names
from repro.circuit.netlist import Netlist
from repro.errors import VerificationError
from repro.modeling.model import AlgebraicModel
from repro.modeling.spec import (
    Specification,
    adder_specification,
    multiplier_specification,
)
from repro.verification.reduction import (
    ReductionOptions,
    ReductionTrace,
    groebner_basis_reduction,
)
from repro.verification.rewriting import (
    RewrittenModel,
    fanout_rewriting,
    logic_reduction_rewriting,
    no_rewriting,
)
from repro.verification.result import ModelStatistics, VerificationResult
from repro.verification.vanishing import DEFAULT_CACHE_LIMIT, VanishingRules

#: Supported verification methods (derived from the backend registry —
#: the single source of truth in :mod:`repro.api.registry`).
METHODS = algebraic_backend_names()


def verify(netlist: Netlist, specification: Specification | str = "multiplier",
           method: str = "mt-lr", *,
           budgets=None,
           xor_and_only: bool = False,
           find_counterexample: bool = True,
           certificate: bool = False,
           seed: int = 0,
           model: AlgebraicModel | None = None,
           probe=None) -> VerificationResult:
    """Verify a gate-level circuit against an arithmetic specification.

    The canonical entry point is the service layer
    (:class:`repro.api.VerificationService` with a typed
    :class:`~repro.api.request.VerificationRequest`); this function is the
    pipeline it drives.

    Parameters
    ----------
    netlist:
        The circuit under verification.
    specification:
        Either a ready :class:`~repro.modeling.spec.Specification`, or
        ``"multiplier"`` / ``"adder"`` to derive the standard word-level
        specification from the circuit's ``a``/``b``/``s`` words.
    method:
        One of :data:`METHODS`.
    budgets:
        A :class:`~repro.api.request.Budgets` bundle (``None``: the
        defaults of ``Budgets()``); the monomial/time
        budgets are blow-up guards whose violation raises
        :class:`~repro.errors.BlowUpError` (reported as a time-out in the
        benchmark tables), ``vanishing_cache_limit`` caps the
        vanishing-rule verdict memo (whole-cache reset on overflow;
        ``None`` = the default 1,000,000 cap), and
        ``counterexample_tries`` bounds the counterexample search.
    xor_and_only:
        Restrict the vanishing rule to the paper's literal XOR-AND pattern
        instead of the implied-literal generalisation.
    find_counterexample:
        On a non-zero remainder, search for a primary-input assignment that
        exhibits the mismatch.
    certificate:
        Capture the reduction journal (model, substitution schedule,
        proven vanishing masks, remainder) on
        :attr:`~repro.verification.result.VerificationResult.certificate_data`
        so :func:`repro.certify.build_certificate` can emit a checkable
        proof certificate.  Budget trips capture nothing.
    model:
        An :class:`~repro.modeling.model.AlgebraicModel` already extracted
        from ``netlist``; pass it to avoid rebuilding the model when the
        caller needed one to derive the specification (variable numbering is
        deterministic, so model and specification always agree).
    probe:
        The refutation probe of the GB reduction (see
        :func:`~repro.verification.reduction.groebner_basis_reduction`):
        called once when the remainder first grows past
        :data:`~repro.verification.reduction.REFUTATION_PROBE_FACTOR`
        times the specification's term count, below the monomial budget
        or with none.  An exception it raises propagates; when it returns,
        the reduction goes on.  The service passes its simulation stage
        here.
    """
    # Validate against the live registry, not the import-time METHODS
    # snapshot, so backends registered later are honoured here too.
    if method not in algebraic_backend_names():
        raise VerificationError(
            f"unknown method {method!r}; "
            f"expected {algebraic_backend_names()}")
    if budgets is None:
        from repro.api.request import Budgets
        budgets = Budgets()
    monomial_budget = budgets.monomial_budget
    time_budget_s = budgets.time_budget_s
    vanishing_cache_limit = budgets.vanishing_cache_limit
    counterexample_tries = budgets.counterexample_tries
    start_total = time.perf_counter()
    deadline = start_total + time_budget_s if time_budget_s is not None else None

    if model is None:
        model = AlgebraicModel.from_netlist(netlist)
    spec = _resolve_specification(model, specification)

    # Step 2: rewriting.
    start_rewrite = time.perf_counter()
    rewritten, vanishing = _rewrite(model, method, xor_and_only,
                                    monomial_budget, deadline,
                                    vanishing_cache_limit,
                                    record_vanishing=certificate)
    rewrite_time = time.perf_counter() - start_rewrite

    # Step 3: Gröbner-basis reduction.
    options = ReductionOptions(
        monomial_budget=monomial_budget,
        time_budget_s=(deadline - time.perf_counter()) if deadline else None,
        coefficient_modulus=spec.modulus)
    trace = ReductionTrace()
    start_reduce = time.perf_counter()
    remainder = groebner_basis_reduction(spec.polynomial, model,
                                         rewritten.tails, options, trace,
                                         probe=probe)
    remainder = spec.apply_modulus(remainder)
    reduction_time = time.perf_counter() - start_reduce

    verified = remainder.is_zero
    counterexample = None
    if not verified and find_counterexample:
        counterexample = _find_counterexample(model, remainder, spec.modulus,
                                              counterexample_tries, seed)

    result = VerificationResult(
        verified=verified,
        method=method,
        circuit=netlist.name,
        specification=spec.description,
        remainder=remainder,
        remainder_text="" if verified else model.ring.render(remainder),
        counterexample=counterexample,
        cancelled_vanishing_monomials=rewritten.cancelled_vanishing_monomials,
        model_statistics=ModelStatistics.from_tails(rewritten.tails),
        rewrite_statistics=rewritten.statistics,
        reduction_trace=trace,
        rewrite_time_s=rewrite_time,
        reduction_time_s=reduction_time,
        total_time_s=time.perf_counter() - start_total)
    if certificate:
        # Cache resets may re-prove a mask: dedup before recording.
        proven = sorted(set(vanishing.proven_masks)) if vanishing else []
        result.certificate_data = {
            "netlist": netlist,
            "model": model,
            "tails": rewritten.tails,
            "spec": spec,
            "schedule": trace.schedule,
            "vanishing_masks": proven,
            "remainder": remainder,
            "verified": verified,
            "method": method,
        }
    return result


def verify_multiplier(netlist: Netlist, method: str = "mt-lr",
                      use_modulus: bool = True, **kwargs) -> VerificationResult:
    """Verify a multiplier netlist against ``S = A * B (mod 2^|S|)``."""
    model = AlgebraicModel.from_netlist(netlist)
    spec = multiplier_specification(model, use_modulus=use_modulus)
    return verify(netlist, spec, method, model=model, **kwargs)


def verify_adder(netlist: Netlist, method: str = "mt-lr",
                 carry_in: str | None = None, **kwargs) -> VerificationResult:
    """Verify an adder netlist against ``S = A + B (+ cin)``."""
    model = AlgebraicModel.from_netlist(netlist)
    spec = adder_specification(model, carry_in=carry_in)
    return verify(netlist, spec, method, model=model, **kwargs)


# ---------------------------------------------------------------------------
# Internals
# ---------------------------------------------------------------------------

def _resolve_specification(model: AlgebraicModel,
                           specification: Specification | str) -> Specification:
    if isinstance(specification, Specification):
        # Re-derive against this model's ring?  Specifications are built from
        # a model of the same netlist, whose variable indices coincide
        # because the numbering is deterministic.
        return specification
    if specification == "multiplier":
        return multiplier_specification(model)
    if specification == "adder":
        return adder_specification(model)
    raise VerificationError(
        f"unknown specification {specification!r}; expected 'multiplier', "
        "'adder' or a Specification instance")


def _rewrite(model: AlgebraicModel, method: str, xor_and_only: bool,
             monomial_budget: int | None, deadline: float | None,
             vanishing_cache_limit: int | None = None,
             record_vanishing: bool = False,
             ) -> tuple[RewrittenModel, VanishingRules | None]:
    if method == "mt-naive":
        return no_rewriting(model), None
    if method == "mt-fo":
        return fanout_rewriting(model, monomial_budget=monomial_budget,
                                deadline=deadline), None
    if method not in ("mt-xor", "mt-lr"):
        # A plug-in algebraic backend passed registry validation but has no
        # rewriting scheme wired here — fail loudly instead of silently
        # running it as mt-xor.
        raise VerificationError(
            f"algebraic backend {method!r} has no rewriting scheme in this "
            "engine; only mt-naive/mt-fo/mt-xor/mt-lr are dispatched")
    vanishing = VanishingRules(
        model, xor_and_only=xor_and_only,
        cache_limit=(DEFAULT_CACHE_LIMIT if vanishing_cache_limit is None
                     else vanishing_cache_limit),
        record_proven=record_vanishing)
    return logic_reduction_rewriting(
        model, vanishing, apply_common=(method == "mt-lr"),
        monomial_budget=monomial_budget, deadline=deadline), vanishing


def _find_counterexample(model: AlgebraicModel, remainder: Polynomial,
                         modulus: int | None, tries: int,
                         seed: int) -> dict[str, int] | None:
    """Search for a primary-input assignment on which the remainder is non-zero."""
    support = sorted(remainder.support())
    if not support:
        # Constant non-zero remainder: any assignment is a counterexample.
        return {model.ring.name(var): 0 for var in model.input_vars}

    def is_witness(assignment: dict[int, int]) -> bool:
        value = remainder.evaluate(assignment)
        if modulus is not None:
            value %= modulus
        return value != 0

    rng = random.Random(seed)
    if len(support) <= 16:
        candidates = itertools.product((0, 1), repeat=len(support))
    else:
        candidates = (tuple(rng.randint(0, 1) for _ in support)
                      for _ in range(tries))
    for bits in candidates:
        assignment = dict(zip(support, bits))
        if is_witness(assignment):
            full = {model.ring.name(var): 0 for var in model.input_vars}
            full.update({model.ring.name(var): value
                         for var, value in assignment.items()})
            return full
    return None
