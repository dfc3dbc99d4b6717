"""Gröbner-basis rewriting (Step 2 of the MT algorithm, Algorithms 2 and 3).

Rewriting substitutes "uninteresting" variables out of the circuit model so
that the subsequent Gröbner-basis reduction only has to deal with variables
that either carry shared sub-terms (enabling early cancellation) or belong
to the XOR skeleton of the circuit (enabling the vanishing rule):

* **fanout rewriting** (MT-FO, Farahmandi & Alizadeh): keep variables with
  more than one reader plus primary inputs/outputs;
* **XOR rewriting** (MT-LR step 1): keep inputs and outputs of XOR gates
  plus primary inputs/outputs, applying the XOR-AND vanishing rule after
  every substitution;
* **common rewriting** (MT-LR step 2): keep variables used by more than one
  polynomial of the already-rewritten model.

All three share the same generic :func:`gb_rewrite` procedure (Algorithm 2),
which runs on the batch kernel of
:class:`~repro.algebra.substitution.SubstitutionEngine` — the same kernel
that executes the Gröbner-basis reduction.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.algebra.monomial import bits_of
from repro.algebra.polynomial import Polynomial
from repro.algebra.substitution import SubstitutionEngine
from repro.errors import BlowUpError
from repro.modeling.model import AlgebraicModel
from repro.verification.vanishing import VanishingRules


@dataclass
class RewriteStatistics:
    """Bookkeeping of one rewriting pass.

    The counters below ``peak_tail_terms`` are reported by the
    :class:`~repro.algebra.substitution.SubstitutionEngine` that executes
    the pass and are surfaced by ``repro-verify verify --stats``.
    """

    scheme: str = ""
    kept_variables: int = 0
    substituted_variables: int = 0
    cancelled_vanishing_monomials: int = 0
    elapsed_s: float = 0.0
    peak_tail_terms: int = 0
    #: Single-variable substitution steps executed across all tails.
    substitution_steps: int = 0
    #: Terms that contained the substituted variable, summed over all steps.
    affected_terms: int = 0
    #: Substitutions rolled back by the growth guard (variable kept instead).
    rejected_substitutions: int = 0
    #: ``substitute_batch`` calls issued and steps executed inside them.
    batches: int = 0
    batched_steps: int = 0
    #: Vanishing-rule cache counters of the pass that owns the oracle
    #: (mask→verdict memo hits/misses, final size and cap-forced resets).
    vanishing_cache_hits: int = 0
    vanishing_cache_misses: int = 0
    vanishing_cache_size: int = 0
    vanishing_cache_resets: int = 0


@dataclass
class RewrittenModel:
    """The result of rewriting: the reduced polynomial set plus statistics."""

    model: AlgebraicModel
    tails: dict[int, Polynomial]
    keep_variables: set[int]
    statistics: list[RewriteStatistics] = field(default_factory=list)

    @property
    def cancelled_vanishing_monomials(self) -> int:
        """Total ``#CVM`` over all rewriting passes."""
        return sum(s.cancelled_vanishing_monomials for s in self.statistics)


# ---------------------------------------------------------------------------
# Variable selection schemes
# ---------------------------------------------------------------------------

def fanout_rewriting_variables(model: AlgebraicModel) -> set[int]:
    """Variables kept by fanout rewriting: fanout > 1, primary inputs, outputs."""
    keep = model.fanout_variables()
    keep.update(model.input_vars)
    keep.update(model.output_vars)
    return keep


def xor_rewriting_variables(model: AlgebraicModel,
                            include_xnor: bool = True) -> set[int]:
    """Variables kept by XOR rewriting: XOR inputs/outputs, primary inputs, outputs."""
    keep = model.xor_variables(include_xnor=include_xnor)
    keep.update(model.input_vars)
    keep.update(model.output_vars)
    return keep


def common_rewriting_variables(tails: dict[int, Polynomial],
                               model: AlgebraicModel) -> set[int]:
    """Variables kept by common rewriting: used in more than one polynomial.

    Counts, over the current (already rewritten) polynomial set, how many
    tails reference each variable; variables referenced at least twice are
    shared and therefore enable cancellations during GB reduction.  Primary
    inputs and outputs are always kept.
    """
    usage: dict[int, int] = {}
    usage_get = usage.get
    for tail in tails.values():
        for var in bits_of(tail.support_mask()):
            usage[var] = usage_get(var, 0) + 1
    keep = {var for var, count in usage.items() if count >= 2}
    keep.update(model.input_vars)
    keep.update(model.output_vars)
    return keep


# ---------------------------------------------------------------------------
# Algorithm 2: generic Gröbner-basis rewriting
# ---------------------------------------------------------------------------

def gb_rewrite(tails: dict[int, Polynomial], keep_variables: set[int],
               model: AlgebraicModel,
               vanishing: VanishingRules | None = None,
               scheme: str = "",
               monomial_budget: int | None = None,
               deadline: float | None = None,
               growth_limit: int | None = None) -> tuple[dict[int, Polynomial],
                                                         RewriteStatistics]:
    """Rewrite the model so every tail only references ``keep_variables``.

    Polynomials are processed in ascending order of their leading variables
    (the "reverse order of leading monomials" of Algorithm 2), so a
    substituted variable's polynomial has itself already been rewritten.
    Within one polynomial, the variable whose defining tail has the fewest
    terms is substituted first, matching the paper's substitution ordering.
    If ``vanishing`` is given, vanishing monomials are removed after every
    substitution (and once up-front).

    ``growth_limit`` (used by common rewriting) is an anti-blow-up guard:
    when inlining a variable would grow the polynomial being rewritten beyond
    ``max(growth_limit, 4x its current size)``, the variable is kept in the
    model instead (added to ``keep_variables``, which is updated in place).
    Rewriting only exists to make the subsequent reduction cheaper, so
    keeping a variable is always sound; without the guard, chains of
    single-use XOR cells (e.g. the sign-extension columns of Booth
    multipliers) would be expanded into exponentially large polynomials.
    """
    start = time.perf_counter()
    stats = RewriteStatistics(scheme=scheme)
    removed_before = vanishing.removed_count if vanishing else 0
    rewritten: dict[int, Polynomial] = dict(tails)

    # One substitution engine is reused for every tail of the pass; the
    # substitution candidates are the leading variables not selected by the
    # keep set, and the candidate mask shrinks in place as the growth guard
    # rejects inlinings.
    candidate_mask = 0
    for var in rewritten:
        candidate_mask |= 1 << var
    for var in keep_variables:
        candidate_mask &= ~(1 << var)
    engine = SubstitutionEngine(vanishing=vanishing)

    remove_vanishing = vanishing.remove_vanishing if vanishing else None
    vanishing_relevant = (getattr(vanishing, "relevant_mask", -1)
                          if vanishing is not None else 0)
    for lead_var in sorted(rewritten):
        poly = rewritten[lead_var]
        # The up-front vanishing sweep (skipped wholesale when no tail
        # variable can contribute a contradiction); afterwards the engine
        # keeps the tail vanishing-free by testing the terms each step
        # creates.
        if (remove_vanishing is not None
                and poly.support_mask() & vanishing_relevant):
            poly = remove_vanishing(poly)
        if not poly.support_mask() & candidate_mask:
            # No substitution candidate occurs in this tail: no term-map
            # copy.  This is the common case — most gate tails only
            # reference kept variables.
            rewritten[lead_var] = poly
            continue
        # The working tail lives inside the engine across all of its
        # substitution steps; it is wrapped back into a Polynomial only once,
        # when the rewriting of this leading variable is finished.
        engine.reset(poly.term_view(), candidate_mask,
                     support_mask=poly.support_mask())
        while True:
            # The candidate superset needs no term scan; a stale bit only
            # adds a no-op batch item, and every batch variable leaves the
            # candidate mask, so the loop always terminates.
            outside = [var for var in bits_of(engine.candidate_superset())
                       if var not in keep_variables]
            if not outside:
                break
            # One batch inlines every substitution candidate of this tail,
            # smallest defining tail first (ties by variable index — the
            # order the old pick-the-minimum loop realised).  Replacement
            # tails only reference finished (kept) variables, so the batch
            # cannot surface new candidates; the loop re-checks anyway and
            # also re-collects after a growth-guard rejection.  Targets are
            # always smaller than ``lead_var`` (tails only reference
            # earlier variables), so their rewriting is complete and
            # ``rewritten[target]`` is a finished Polynomial.
            outside.sort(key=lambda var: (rewritten[var].num_terms, var))
            items = [(var, rewritten[var].term_view()) for var in outside]
            results, tripped = engine.substitute_batch(
                items, growth_limit=growth_limit,
                term_limit=monomial_budget, deadline=deadline)
            for (target, _), (affected, size) in zip(items, results):
                if affected < 0:
                    # Inlining this variable would blow the polynomial up;
                    # keep it as a model variable instead.
                    keep_variables.add(target)
                    candidate_mask &= ~(1 << target)
                elif affected and size > stats.peak_tail_terms:
                    stats.peak_tail_terms = size
            if tripped == "terms":
                raise BlowUpError(
                    f"{scheme or 'rewriting'} exceeded the monomial budget "
                    f"({len(engine)} > {monomial_budget}) while rewriting "
                    f"{model.ring.name(lead_var)}",
                    monomials=len(engine))
            if tripped == "deadline":
                raise BlowUpError(
                    f"{scheme or 'rewriting'} exceeded the time budget",
                    elapsed_s=time.perf_counter() - start)
        rewritten[lead_var] = Polynomial._raw(engine.terms)

    # UpdateModel: drop polynomials whose leading variable was substituted
    # away (not kept and not a primary output).
    output_vars = set(model.output_vars)
    kept = {var: tail for var, tail in rewritten.items()
            if var in keep_variables or var in output_vars}

    stats.kept_variables = len(kept)
    stats.substituted_variables = len(rewritten) - len(kept)
    stats.cancelled_vanishing_monomials = (
        (vanishing.removed_count - removed_before) if vanishing else 0)
    stats.substitution_steps = engine.substitutions
    stats.affected_terms = engine.affected_terms
    stats.rejected_substitutions = engine.rejected_substitutions
    stats.batches = engine.batches
    stats.batched_steps = engine.batch_steps
    if vanishing is not None:
        stats.vanishing_cache_hits = getattr(vanishing, "cache_hits", 0)
        stats.vanishing_cache_misses = getattr(vanishing, "cache_misses", 0)
        stats.vanishing_cache_size = len(getattr(vanishing, "cache", ()))
        stats.vanishing_cache_resets = getattr(vanishing, "cache_resets", 0)
    stats.elapsed_s = time.perf_counter() - start
    return kept, stats


# ---------------------------------------------------------------------------
# Algorithm 3: logic reduction rewriting (XOR rewriting, then common rewriting)
# ---------------------------------------------------------------------------

def logic_reduction_rewriting(model: AlgebraicModel,
                              vanishing: VanishingRules | None = None,
                              apply_common: bool = True,
                              monomial_budget: int | None = None,
                              deadline: float | None = None) -> RewrittenModel:
    """The paper's rewriting scheme: XOR rewriting followed by common rewriting."""
    if vanishing is None:
        vanishing = VanishingRules(model)
    statistics: list[RewriteStatistics] = []

    xor_keep = xor_rewriting_variables(model)
    tails, stats = gb_rewrite(model.tails, xor_keep, model, vanishing,
                              scheme="xor-rewriting",
                              monomial_budget=monomial_budget,
                              deadline=deadline)
    statistics.append(stats)

    keep = xor_keep
    if apply_common:
        keep = common_rewriting_variables(tails, model)
        # Only variables that still own a polynomial can stay leading variables.
        keep &= set(tails) | set(model.input_vars) | set(model.output_vars)
        tails, stats = gb_rewrite(tails, keep, model, vanishing=None,
                                  scheme="common-rewriting",
                                  monomial_budget=monomial_budget,
                                  deadline=deadline,
                                  growth_limit=64)
        statistics.append(stats)

    return RewrittenModel(model=model, tails=tails, keep_variables=keep,
                          statistics=statistics)


def fanout_rewriting(model: AlgebraicModel,
                     monomial_budget: int | None = None,
                     deadline: float | None = None) -> RewrittenModel:
    """The baseline rewriting of MT-FO: keep fanout variables only."""
    keep = fanout_rewriting_variables(model)
    tails, stats = gb_rewrite(model.tails, keep, model, vanishing=None,
                              scheme="fanout-rewriting",
                              monomial_budget=monomial_budget,
                              deadline=deadline)
    return RewrittenModel(model=model, tails=tails, keep_variables=keep,
                          statistics=[stats])


def no_rewriting(model: AlgebraicModel) -> RewrittenModel:
    """Keep the raw gate-level model (the MT-Naive baseline)."""
    keep = set(model.tails) | set(model.input_vars)
    return RewrittenModel(model=model, tails=dict(model.tails),
                          keep_variables=keep, statistics=[])
