"""The substitution engine: one batch kernel for every algebraic step.

Every step of the membership-testing flow — Gröbner-basis reduction
(Algorithm 1) and the rewriting passes (Algorithms 2/3) — is the same
operation: replace a variable by its defining tail inside a working set of
terms.  A :class:`SubstitutionEngine` owns one mask-keyed term map
(``dict[int, int]`` from packed monomial bitmasks to integer coefficients,
see :mod:`repro.algebra.monomial`) and runs those steps through one kernel,
:meth:`SubstitutionEngine.substitute_batch`, which substitutes a run of
``(var, tail)`` items in order.  Every step has the same body:

1. pop the live terms that contain ``var``;
2. merge the products of each popped term (without ``var``) and the tail
   back in;
3. drop the created terms the vanishing oracle rejects, and the terms whose
   coefficient became a multiple of the power-of-two modulus;
4. on a growth-limited step that grew too far, restore the map from a
   snapshot taken before the step;
5. check the term and time budgets.

The one choice left per step is where the terms containing ``var`` come
from:

* **partition** — with :data:`PARTITION_MIN_ITEMS` or more items left and
  a map sparse in the batch's variables (at most
  :data:`PARTITION_DENSITY_LIMIT` of them per term on average, counted in a
  probe pass before anything is built), one pass lists every term under
  each pending batch variable it contains, and every created term is
  appended under the pending batch variables it contains.  Lists are never
  pruned: a listed key that was destroyed — or listed twice after being
  created, cancelled and recreated — pops ``None`` when its list is
  consumed, and that liveness filter replaces every delete.  The MT-LR
  reduction of a wide multiplier, whose remainder holds thousands of terms
  over mostly primary inputs, runs this way.
* **scan** — otherwise the step scans the map for the variable's bit, and
  skips the scan when the engine's support superset lacks it.  Rewriting
  batches of one or two items and the MT-FO remainder, whose terms each
  carry many live fanout variables, run this way.

A partitioned batch meters its list upkeep against the scans it saves and
falls back to scanning when the upkeep keeps losing; a scanning batch
probes the partition again once the map has grown four times past its size
at the last refusal or fallback.  The choice changes only costs: the term
map, the per-step results and every counter are those of running the steps
one by one.
"""

from __future__ import annotations

import time
from typing import Collection, Iterable, Mapping, Sequence

from repro.algebra.monomial import union_mask

#: Average batch-variable bits per term above which a batch is not
#: partitioned: list upkeep scales with the batch bits of every created
#: term, so dense populations (MT-FO remainders sit far above this, MT-LR
#: remainders far below) are served better by scans.
PARTITION_DENSITY_LIMIT = 2

#: Fewest remaining batch items for which partitioning pays; one or two
#: plain scans are cheaper than building the lists.
PARTITION_MIN_ITEMS = 3

#: Accumulated upkeep-over-scan debt at which a partitioned batch falls
#: back to scans.
PARTITION_DEBT_LIMIT = 4.0


class SubstitutionEngine:
    """One working term map and the batch substitution kernel over it.

    Parameters
    ----------
    terms:
        Initial term map: a ``Mapping`` or iterable of
        ``(mask, coefficient)`` pairs; the engine takes a private copy.
    candidate_mask:
        Bitmask of the variables the caller means to substitute.  Every
        variable a batch processes leaves it, so the
        :meth:`candidate_superset` of a caller that substitutes what it
        finds there drains.
    vanishing:
        Optional vanishing-monomial oracle (duck-typed
        ``is_vanishing_mask``/``removed_count`` and an optional
        ``relevant_mask``, i.e.
        :class:`repro.verification.vanishing.VanishingRules`).  The terms
        each step creates are tested and cancelled on the spot, and the
        removals accumulate into ``vanishing.removed_count`` (the ``#CVM``
        statistic).  Vanishing depends on the mask alone, so a term that
        survived an earlier test never vanishes later; sweeping the loaded
        terms is the caller's job.
    coefficient_modulus:
        Optional power-of-two modulus; terms whose coefficient becomes a
        multiple of it are dropped after every step.  Any other value
        raises :class:`ValueError`.

    The cumulative counters (``substitutions``, ``affected_terms``,
    ``modulus_removed``, ``rejected_substitutions``, ``batches``,
    ``batch_steps``) survive :meth:`reset`, so one engine can report the
    totals of a whole rewriting pass that processes many tails.
    """

    __slots__ = ("terms", "vanishing", "_candidates", "_support", "_low_bits",
                 "substitutions", "affected_terms", "modulus_removed",
                 "rejected_substitutions", "batches", "batch_steps")

    def __init__(self,
                 terms: Mapping[int, int] | Iterable[tuple[int, int]] = (),
                 candidate_mask: int = 0, *,
                 vanishing=None,
                 coefficient_modulus: int | None = None) -> None:
        if coefficient_modulus is not None and (
                coefficient_modulus <= 0
                or coefficient_modulus & (coefficient_modulus - 1)):
            raise ValueError("coefficient modulus must be a positive power "
                             f"of two, got {coefficient_modulus}")
        self.vanishing = vanishing
        # A multiple of ``2^k`` is a coefficient with its low ``k`` bits clear.
        self._low_bits = (None if coefficient_modulus is None
                          else coefficient_modulus - 1)
        self.substitutions = 0
        self.affected_terms = 0
        self.modulus_removed = 0
        self.rejected_substitutions = 0
        self.batches = 0
        self.batch_steps = 0
        self.reset(terms, candidate_mask)

    def reset(self, terms: Mapping[int, int] | Iterable[tuple[int, int]],
              candidate_mask: int, support_mask: int | None = None) -> None:
        """Load a fresh term map and candidate mask; the counters are kept.

        The previous term dict is abandoned (callers that wrapped it in a
        :class:`~repro.algebra.polynomial.Polynomial` keep sole ownership).
        ``support_mask`` lets callers that already know the loaded map's
        support (e.g. a polynomial's cached support) skip the scan.
        """
        self.terms = dict(terms)
        self._candidates = candidate_mask
        self._support = (union_mask(self.terms) if support_mask is None
                         else support_mask)

    def __len__(self) -> int:
        return len(self.terms)

    def candidate_superset(self) -> int:
        """Superset of the candidate variables possibly present — no scan.

        A set bit may be stale (its variable already cancelled out);
        substituting such a variable is a cheap no-op.  Every variable a
        batch processes leaves the candidate mask, so callers looping until
        the mask empties always terminate.
        """
        return self._support & self._candidates

    def _partition(self, batch_mask: int) -> dict[int, list[int]] | None:
        """List every term under each batch variable it contains.

        Returns ``None`` (and builds nothing) when the terms carry more than
        :data:`PARTITION_DENSITY_LIMIT` batch variables each on average: the
        probe pass only counts bits, so a refusal costs one popcount per
        term.
        """
        terms = self.terms
        total_bits = 0
        for mask in terms:
            total_bits += (mask & batch_mask).bit_count()
        if total_bits > PARTITION_DENSITY_LIMIT * len(terms):
            return None
        lists: dict[int, list[int]] = {}
        for mask in terms:
            batch_bits = mask & batch_mask
            while batch_bits:
                low = batch_bits & -batch_bits
                batch_bits ^= low
                slot = low.bit_length() - 1
                entry = lists.get(slot)
                if entry is None:
                    lists[slot] = [mask]
                else:
                    entry.append(mask)
        return lists

    def substitute_batch(self,
                         items: Sequence[tuple[int, Collection[tuple[int, int]]]],
                         growth_limit: int | None = None,
                         term_limit: int | None = None,
                         deadline: float | None = None,
                         ) -> tuple[list[tuple[int, int]], str | None]:
        """Substitute ``[(var, tail), ...]`` in place, in order.

        Each ``tail`` is a re-iterable sequence of ``(mask, coefficient)``
        pairs; the variables are distinct and no tail mentions its own
        variable or one processed before it (the consumer-first orders of
        the verification flow guarantee both).  Every processed variable
        leaves the candidate mask.

        With a ``growth_limit``, a step that leaves more than
        ``max(growth_limit, 4 * size before the step)`` terms is discarded:
        the map is restored, ``rejected_substitutions`` counts it, and its
        result reads ``-1`` so the caller can keep the variable instead.

        Returns ``(results, tripped)``: one ``(affected, size)`` pair per
        processed item — the number of terms that contained the variable
        (``-1`` for a rejected step) and the term count after the step —
        and a trip marker: ``"terms"`` when the map exceeded ``term_limit``
        right after a step that affected terms, ``"deadline"`` when
        ``deadline`` (a :func:`time.perf_counter` instant) had passed after
        one (rejected steps included), ``None`` when every item was
        processed.
        """
        self.batches += 1
        terms = self.terms
        support = self._support
        vanishing = self.vanishing
        if vanishing is not None:
            is_vanishing_mask = vanishing.is_vanishing_mask
            relevant = getattr(vanishing, "relevant_mask", -1)
        low_bits = self._low_bits
        pending = 0
        for var, _ in items:
            pending |= 1 << var
        retired = 0
        remaining = len(items)
        results: list[tuple[int, int]] = []
        tripped: str | None = None
        lists: dict[int, list[int]] | None = None
        # Map size at which a scanning batch probes the partition again.
        floor = 0
        debt = 0.0

        for var, tail in items:
            bit = 1 << var
            retired |= bit
            if (lists is None and remaining >= PARTITION_MIN_ITEMS
                    and len(terms) >= floor):
                lists = self._partition(pending)
                if lists is None:
                    floor = 4 * len(terms)
                else:
                    debt = 0.0
            pending &= ~bit
            remaining -= 1

            # Step 1: pop the live terms that contain ``var``.
            size_before = len(terms)
            if lists is not None:
                listed = lists.pop(var, None)
                if not listed:
                    results.append((0, size_before))
                    continue
                if growth_limit is not None:
                    snapshot = dict(terms)
                pop = terms.pop
                affected = [(key, coeff) for key in listed
                            if (coeff := pop(key, None)) is not None]
                upkeep = len(listed)
            else:
                if not support & bit:
                    results.append((0, size_before))
                    continue
                hits = [mask for mask in terms if mask & bit]
                if not hits:
                    # A stale bit: re-tighten the superset so later stale
                    # variables do not cost a full scan each.
                    support = union_mask(terms)
                    results.append((0, size_before))
                    continue
                if growth_limit is not None:
                    snapshot = dict(terms)
                pop = terms.pop
                affected = [(mask, pop(mask)) for mask in hits]
            if not affected:
                results.append((0, size_before))
                continue

            # Step 2: merge the expansions back in, recording created keys
            # and, under a modulus, the keys some write left a multiple.
            keep = ~bit
            get = terms.get
            created: list[int] = []
            create = created.append
            flagged: list[int] = []
            if low_bits is None:
                for mask, coeff in affected:
                    rest = mask & keep
                    for rep_mask, rep_coeff in tail:
                        prod = rest | rep_mask
                        old = get(prod)
                        if old is None:
                            # Coefficients are never stored as zero, so the
                            # product of two of them cannot cancel on creation.
                            terms[prod] = coeff * rep_coeff
                            create(prod)
                        else:
                            new = old + coeff * rep_coeff
                            if new:
                                terms[prod] = new
                            else:
                                del terms[prod]
            else:
                flag = flagged.append
                for mask, coeff in affected:
                    rest = mask & keep
                    for rep_mask, rep_coeff in tail:
                        prod = rest | rep_mask
                        old = get(prod)
                        if old is None:
                            value = coeff * rep_coeff
                            terms[prod] = value
                            create(prod)
                            if not value & low_bits:
                                flag(prod)
                        else:
                            new = old + coeff * rep_coeff
                            if new:
                                terms[prod] = new
                                if not new & low_bits:
                                    flag(prod)
                            else:
                                del terms[prod]
            if lists is None:
                for prod in created:
                    support |= prod
            else:
                for prod in created:
                    support |= prod
                    batch_bits = prod & pending
                    upkeep += batch_bits.bit_count() + 1
                    while batch_bits:
                        low = batch_bits & -batch_bits
                        batch_bits ^= low
                        slot = low.bit_length() - 1
                        entry = lists.get(slot)
                        if entry is None:
                            lists[slot] = [prod]
                        else:
                            entry.append(prod)

            # Step 3: only created terms can vanish (a key listed twice was
            # cancelled and recreated; the liveness test keeps the count
            # exact), and a key is a modulus multiple after the step exactly
            # when its last write flagged it.
            removed_vanishing = 0
            if vanishing is not None:
                for prod in created:
                    if (prod & relevant and prod in terms
                            and is_vanishing_mask(prod)):
                        del terms[prod]
                        removed_vanishing += 1
            removed_modulus = 0
            for prod in flagged:
                coeff = get(prod)
                if coeff is not None and not coeff & low_bits:
                    del terms[prod]
                    removed_modulus += 1

            # Step 4: the growth guard discards the whole step; the restored
            # map cannot trip ``term_limit``, but the deadline can pass.
            size = len(terms)
            if growth_limit is not None and size > max(growth_limit,
                                                       4 * size_before):
                terms = self.terms = snapshot
                self.rejected_substitutions += 1
                results.append((-1, size_before))
                if deadline is not None and time.perf_counter() > deadline:
                    tripped = "deadline"
                    break
                continue
            if removed_vanishing:
                vanishing.removed_count += removed_vanishing
            self.modulus_removed += removed_modulus
            self.substitutions += 1
            self.affected_terms += len(affected)
            results.append((len(affected), size))

            # Step 5: the budgets, checked right after the step.
            if term_limit is not None and size > term_limit:
                tripped = "terms"
                break
            if deadline is not None and time.perf_counter() > deadline:
                tripped = "deadline"
                break
            if lists is not None:
                # List upkeep against the scan it saved: a population that
                # turns dense in batch variables falls back to scans.
                if upkeep > size:
                    debt += upkeep / size - 1.0 if size else 1.0
                    if debt > PARTITION_DEBT_LIMIT:
                        lists = None
                        floor = 4 * size
                else:
                    debt = 0.0

        self.terms = terms
        self._support = support
        self._candidates &= ~retired
        self.batch_steps += len(results)
        return results, tripped
