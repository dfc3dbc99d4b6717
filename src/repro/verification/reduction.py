"""Gröbner-basis reduction (Step 3 of the MT algorithm, Algorithm 1).

The specification polynomial is divided by the (possibly rewritten) circuit
model.  Because every model polynomial has the form ``-x + tail`` with the
single leading variable ``x``, one S-polynomial/division step is exactly the
substitution ``x := tail``.  Substitutions are applied in the reverse
topological order of the circuit variables — from the primary outputs down
to the primary inputs — which lets the carry terms of integer arithmetic
cancel before they blow up.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

from repro.algebra.monomial import bits_of
from repro.algebra.polynomial import Polynomial
from repro.algebra.substitution import SubstitutionEngine
from repro.errors import BlowUpError
from repro.modeling.model import AlgebraicModel


#: Multiple of the specification's term count past which the remainder is
#: handed to the refutation probe.  Logic reduction keeps a correct
#: multiplier's remainder close to its specification: the worst peak
#: measured under mt-lr is 3.75 times the specification's term count
#: (BP-RT-KS at 25 bits, 2,533 terms against 675, the worst of the ten
#: Table I/II architectures there), and at most 3.6 times on all 50
#: catalog architectures at 4, 8, 12 and 16 bits.  A correct mt-lr
#: circuit stays far below this bound.
REFUTATION_PROBE_FACTOR = 32


@dataclass
class ReductionOptions:
    """Budgets and switches of the Gröbner-basis reduction."""

    #: Abort (``BlowUpError``) when the intermediate remainder exceeds this
    #: number of monomials; ``None`` disables the check.
    monomial_budget: int | None = 2_000_000
    #: Abort when the reduction runs longer than this many seconds.
    time_budget_s: float | None = None
    #: Remove terms whose coefficient is a multiple of this modulus after
    #: every substitution (sound because such terms stay multiples of the
    #: modulus under further substitution); ``None`` keeps all terms.
    coefficient_modulus: int | None = None


@dataclass
class ReductionTrace:
    """Statistics recorded while reducing the specification.

    The counters below ``elapsed_s`` are reported by the
    :class:`~repro.algebra.substitution.SubstitutionEngine` that executes
    the reduction and are surfaced by ``repro-verify verify --stats``.
    """

    substitutions: int = 0
    peak_monomials: int = 0
    #: The substitution order the reduction ran (see
    #: :func:`substitution_order`); a certificate's journal records it.
    schedule: list[int] = field(default_factory=list)
    elapsed_s: float = 0.0
    #: Terms that contained the substituted variable, summed over all steps.
    affected_terms: int = 0
    #: Terms dropped because their coefficient became a modulus multiple.
    modulus_removed_terms: int = 0
    #: ``substitute_batch`` calls issued (the whole schedule is one batch,
    #: split in two where the refutation probe resumes it) and steps
    #: executed inside them.
    batches: int = 0
    batched_steps: int = 0


def substitution_order(model: AlgebraicModel,
                       tails: dict[int, Polynomial]) -> list[int]:
    """Variables in substitution order (Algorithm 1, line 1).

    A consumer-first schedule of the rewritten model's dependency graph: a
    variable becomes *ready* once every polynomial whose tail references it
    has been substituted, and among ready variables non-XOR variables
    (carries, generates, Booth selects) are substituted before XOR-gate
    variables, deepest first.  This realises the paper's requirement that
    variables of the same level that depend on common inputs follow each
    other: the sums and carries of one bit position are processed
    back-to-back and the shared propagate variables are only expanded once
    all their consumers have cancelled.  Plain reverse topological order
    (descending variable index) would expand the propagate (XOR skeleton)
    variables of parallel-prefix adders before the corresponding carry
    terms have cancelled, which blows up the remainder.
    """
    from heapq import heapify, heappush, heappop

    from repro.circuit.gates import GateType

    # A variable's pending count is the number of tails that reference it;
    # membership tests run against one bitmask and each tail contributes
    # each referenced variable exactly once (support bits are a set).
    tails_mask = 0
    for var in tails:
        tails_mask |= 1 << var
    pending = dict.fromkeys(tails, 0)
    children: dict[int, list[int]] = {}
    for lead, tail in tails.items():
        referenced = bits_of(tail.support_mask() & tails_mask)
        children[lead] = referenced
        for var in referenced:
            pending[var] += 1

    # The heap priority ``(is_xor, -var)`` packs into one integer: XOR-gate
    # variables sort after all non-XOR ones, deepest (highest index) first
    # within each class.  Flat arrays keep the per-variable tests O(1).
    size = (max(tails) + 1) if tails else 0
    xor_bias = bytearray(size)
    records = model.records
    xor_gates = (GateType.XOR, GateType.XNOR)
    for var in tails:
        record = records.get(var)
        if record is not None and record.gate_type in xor_gates:
            xor_bias[var] = 1
    bias = 1 << 62
    half = bias >> 1

    # Plain-integer heap keys (no tuples to allocate or compare): a key
    # above ``half`` decodes to an XOR variable, anything else to a negated
    # non-XOR variable.  Every variable is pushed exactly once — on its
    # pending-count transition to zero — so no stale-entry guard is needed.
    heap = [(bias - var if xor_bias[var] else -var)
            for var, count in pending.items() if count == 0]
    heapify(heap)
    order: list[int] = []
    scheduled = bytearray(size)
    while heap:
        key = heappop(heap)
        var = bias - key if key > half else -key
        scheduled[var] = 1
        order.append(var)
        for child in children[var]:
            if scheduled[child]:
                continue
            count = pending[child] - 1
            pending[child] = count
            if count == 0:
                heappush(heap, bias - child if xor_bias[child] else -child)
    # Any variables left (cyclic should not happen; isolated ones) are appended
    # in plain reverse topological order as a safety net.
    if len(order) < len(tails):
        for var in sorted(tails.keys(), reverse=True):
            if not scheduled[var]:
                order.append(var)
    return order


def groebner_basis_reduction(spec: Polynomial, model: AlgebraicModel,
                             tails: dict[int, Polynomial],
                             options: ReductionOptions | None = None,
                             trace: ReductionTrace | None = None, *,
                             probe: Callable[[str], None] | None = None,
                             ) -> Polynomial:
    """Reduce ``spec`` w.r.t. the model polynomials and return the remainder.

    ``tails`` maps each leading variable to the tail of its polynomial
    ``-x + tail`` (either the raw gate tails or the rewritten model).  The
    remainder is fully reduced: it only references primary inputs.

    ``probe`` is the refutation probe.  When
    :data:`REFUTATION_PROBE_FACTOR` times the specification's term count is
    below the monomial budget, or there is no budget, it is called once,
    with a one-line reason, at the first step that leaves the remainder
    above that bound.  An exception it raises ends the reduction; when it
    returns, the reduction resumes from the same remainder under the
    monomial budget (with no term limit when there is none).
    """
    options = options or ReductionOptions()
    trace = trace if trace is not None else ReductionTrace()
    start = time.perf_counter()
    deadline = (start + options.time_budget_s
                if options.time_budget_s is not None else None)

    modulus = options.coefficient_modulus
    if modulus is not None:
        initial = spec.drop_coefficient_multiples(modulus).term_masks()
    else:
        initial = spec.term_masks()

    # The remainder lives inside one substitution engine for the whole
    # loop, and the consumer-first schedule is fed to it as one batch:
    # every variable is substituted exactly once and can never be
    # re-introduced, so a sparse remainder is listed under the scheduled
    # variables once and each step touches only the terms that contain its
    # variable.  The per-step budget and deadline checks run inside the
    # batch.
    # ``substitution_order`` schedules tail leading variables only (gate
    # outputs — primary inputs never own a polynomial), so every scheduled
    # variable is substitutable.
    engine = SubstitutionEngine(initial, coefficient_modulus=modulus)
    trace.schedule = substitution_order(model, tails)
    items = [(var, tails[var].term_view()) for var in trace.schedule]
    budget = options.monomial_budget
    bound = REFUTATION_PROBE_FACTOR * len(spec)
    if probe is None or (budget is not None and bound >= budget):
        bound = budget
    results, tripped = engine.substitute_batch(
        items, term_limit=bound, deadline=deadline)
    _record_steps(results, trace)
    done = len(results)
    if tripped == "terms" and bound != budget:
        # The probe point: the batch stopped at the bound, not the budget.
        probe(f"GB reduction exceeded {REFUTATION_PROBE_FACTOR}x the "
              f"specification's {len(spec)} terms at variable "
              f"{model.ring.name(items[done - 1][0])!r} "
              f"({len(engine)} > {bound})")
        if budget is None or len(engine) <= budget:
            results, tripped = engine.substitute_batch(
                items[done:], term_limit=budget, deadline=deadline)
            _record_steps(results, trace)
            done += len(results)
    if tripped is not None:
        trace.elapsed_s = time.perf_counter() - start
        _copy_engine_counters(engine, trace)
        if tripped == "terms":
            var = items[done - 1][0]
            raise BlowUpError(
                f"GB reduction exceeded the monomial budget at variable "
                f"{model.ring.name(var)!r} ({len(engine)} > {budget})",
                monomials=len(engine), elapsed_s=trace.elapsed_s)
        raise BlowUpError(
            "GB reduction exceeded the time budget",
            monomials=len(engine), elapsed_s=trace.elapsed_s)

    trace.elapsed_s = time.perf_counter() - start
    _copy_engine_counters(engine, trace)
    return Polynomial._raw(engine.terms)


def _record_steps(results: list[tuple[int, int]],
                  trace: ReductionTrace) -> None:
    for affected, size in results:
        if not affected:
            continue
        trace.substitutions += 1
        if size > trace.peak_monomials:
            trace.peak_monomials = size


def _copy_engine_counters(engine: SubstitutionEngine,
                          trace: ReductionTrace) -> None:
    trace.affected_terms = engine.affected_terms
    trace.modulus_removed_terms = engine.modulus_removed
    trace.batches = engine.batches
    trace.batched_steps = engine.batch_steps
