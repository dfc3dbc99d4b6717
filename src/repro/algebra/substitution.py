"""The occurrence-indexed incremental substitution engine.

Every step of the membership-testing flow — Gröbner-basis reduction
(Algorithm 1), the rewriting passes (Algorithms 2/3) and the vanishing-rule
filtering that runs between their substitutions — is at heart the same
operation: replace a single variable by its defining tail inside a working
set of terms.  This module provides that one kernel.

A :class:`SubstitutionEngine` owns a mask-keyed term map (``dict[int, int]``
from packed monomial bitmasks to integer coefficients, see
:mod:`repro.algebra.monomial`) together with an incrementally maintained
*occurrence index*: for every candidate variable, the set of term masks that
currently contain it.  Substituting ``x := tail`` therefore enumerates only
the terms that actually contain ``x`` (one index lookup) instead of scanning
the whole term map — the per-substitution cost drops from ``O(#terms)`` to
``O(#occurrences of x)``, which is the dominant asymptotic improvement
available to the reduction of wide multipliers where the remainder holds
thousands of terms but each variable appears in a handful of them.

The index is *adaptive* in both directions.  Maintaining it costs a few
dictionary operations per candidate variable of every created or cancelled
term, which is pure overhead while the term map is small enough that a
linear scan is essentially free — so the engine runs in scan mode below
:data:`INDEX_THRESHOLD` terms (tracking only a cheap superset of the live
support, so substituting an absent variable is a single bit test) and
builds the index when the map outgrows the threshold.  And because a term
population *dense* in candidate variables (e.g. the MT-FO remainder, whose
terms each carry many live fanout variables) makes the upkeep cost more
than the scans it avoids, every indexed substitution meters its index
operations against the avoided scan and the engine demotes itself back to
scan mode when the upkeep keeps losing.  Rewriting tails stay small and
never pay for the index; the MT-LR reduction remainder of a wide
multiplier (sparse in candidates — mostly primary inputs) crosses the
threshold early and runs indexed to the end.

Only variables inside the engine's ``index_mask`` are substitution
candidates (primary inputs, for example, are never substituted during GB
reduction), so the indexed bookkeeping per created term is proportional to
the number of *candidate* variables it contains, not its total degree.
Once a variable has been substituted it can be *retired* — dropped from the
candidate set — because the consumer-first substitution orders used by the
verification flow guarantee an eliminated variable is never re-introduced.

Optional per-substitution services, enabled per engine:

* **vanishing-rule filtering** — terms are tested against a
  vanishing-monomial oracle (any object with ``is_vanishing_mask(mask)``, a
  ``removed_count`` attribute and an optional public ``cache`` memo, i.e.
  :class:`repro.verification.vanishing.VanishingRules`) and cancelled on the
  spot.  In indexed mode only newly created terms are tested — vanishing is
  a property of the monomial mask alone, so terms that survived an earlier
  test never vanish later.
* **coefficient-modulus dropping** — terms whose coefficient became a
  multiple of the specification modulus (``2^(2n)`` for multipliers) are
  removed after every substitution.
* **growth-limited (transactional) substitution** — the anti-blow-up guard
  of common rewriting: when the substitution would grow the term map beyond
  its limit, the step is discarded (scan mode builds the candidate out of
  place; indexed mode rolls the journal back) and the engine reports the
  rejection so the caller can keep the variable in the model instead.

Beyond the single-variable kernel, :meth:`SubstitutionEngine.substitute_batch`
inlines a whole ready level of the substitution order in one pass.  Its
semantics are exactly the equivalent sequence of single-variable
:meth:`~SubstitutionEngine.substitute` calls (same term evolution, same
vanishing/modulus filtering per step, same statistics), but the fused
indexed path defers all occurrence-index deletions to one commit at the end
of the batch: terms destroyed mid-batch are never unlinked from their
buckets (a liveness filter at consumption time replaces the eager delete),
terms created mid-batch are linked only under the batch variables still
awaiting substitution, and — because every batch variable is retired — the
per-step bucket teardown disappears entirely.
"""

from __future__ import annotations

import time
from typing import Iterable, Mapping, Sequence

from repro.algebra.monomial import union_mask

#: Term-map size at which the occurrence index starts paying for itself;
#: below it a linear scan per substitution is cheaper than index upkeep.
INDEX_THRESHOLD = 64

#: Average candidate variables per term above which the index is refused:
#: upkeep scales with candidate bits per created term, so dense populations
#: (MT-FO remainders sit far above this; MT-LR remainders far below) are
#: served better by linear scans.
INDEX_DENSITY_LIMIT = 2.0


class SubstitutionEngine:
    """One working term map plus its variable→terms occurrence index.

    Parameters
    ----------
    terms:
        Initial term map: a ``Mapping`` or iterable of
        ``(mask, coefficient)`` pairs; the engine takes a private copy.
    index_mask:
        Bitmask of the substitution-candidate variables.  Once indexed,
        the engine reports a variable outside the mask as absent, so
        callers must include every variable they intend to substitute.
        An empty mask keeps the engine in scan mode for good, where any
        variable of the support can be substituted: the one-shot path of
        :meth:`repro.algebra.polynomial.Polynomial.substitute`.
    vanishing:
        Optional vanishing-monomial oracle (duck-typed
        ``is_vanishing_mask``/``removed_count``/``cache``); when present,
        vanishing terms are removed after every substitution and the
        removals accumulate into ``vanishing.removed_count`` (the ``#CVM``
        statistic).
    coefficient_modulus:
        Optional modulus; terms whose coefficient becomes a multiple of it
        are dropped after every substitution.  Power-of-two moduli use a
        bitwise-AND fast path.

    The cumulative counters (`substitutions`, `affected_terms`,
    `vanishing_removed`, `modulus_removed`, `rejected_substitutions`,
    `peak_terms`) survive :meth:`reset` so one engine can report statistics
    for a whole rewriting pass that processes many tails.
    """

    __slots__ = ("terms", "vanishing", "_occ", "_indexed", "_index_mask",
                 "_support", "_modulus", "_low_bits", "_index_debt",
                 "_reindex_floor", "substitutions", "affected_terms",
                 "vanishing_removed", "modulus_removed",
                 "rejected_substitutions", "peak_terms", "batches",
                 "batch_steps")

    def __init__(self,
                 terms: Mapping[int, int] | Iterable[tuple[int, int]] = (),
                 index_mask: int = 0, *,
                 vanishing=None,
                 coefficient_modulus: int | None = None) -> None:
        self.vanishing = vanishing
        self._modulus = coefficient_modulus
        # Power-of-two moduli (the ``2^(2n)`` of multiplier specs) reduce the
        # multiple-of-modulus test to a bitwise AND on the low bits.
        self._low_bits = (coefficient_modulus - 1
                          if coefficient_modulus is not None
                          and coefficient_modulus & (coefficient_modulus - 1) == 0
                          else None)
        self.substitutions = 0
        self.affected_terms = 0
        self.vanishing_removed = 0
        self.modulus_removed = 0
        self.rejected_substitutions = 0
        self.peak_terms = 0
        self.batches = 0
        self.batch_steps = 0
        self.terms: dict[int, int] = {}
        self._occ: dict[int, set[int]] = {}
        self._indexed = False
        self._index_mask = 0
        self._support = 0
        self.reset(terms, index_mask)

    # -- loading / lifecycle ---------------------------------------------------

    def reset(self, terms: Mapping[int, int] | Iterable[tuple[int, int]],
              index_mask: int, support_mask: int | None = None) -> None:
        """Load a fresh term map and rebuild the index (or support superset).

        The cumulative statistics counters are *not* cleared, so a rewriting
        pass can reuse one engine across many tails and report pass-level
        totals.  The previous term dict is abandoned (callers that wrapped it
        in a :class:`~repro.algebra.polynomial.Polynomial` keep sole
        ownership).  ``support_mask`` lets callers that already know the
        loaded map's support (e.g. a polynomial's cached support) skip the
        recomputation scan.
        """
        self.terms = dict(terms)
        self._index_mask = index_mask
        self._index_debt = 0.0
        self._reindex_floor = INDEX_THRESHOLD
        if index_mask and len(self.terms) >= INDEX_THRESHOLD:
            self._build_index()
        elif support_mask is not None:
            self._occ = {}
            self._indexed = False
            self._support = support_mask
        else:
            self._occ = {}
            self._indexed = False
            self._support = union_mask(self.terms)

    def _build_index(self) -> None:
        """Build the occurrence index — or refuse, if the population is dense.

        The candidate-bit density is measured in the same pass that would
        build the buckets; refusing costs one popcount per term and raises
        the re-engage floor so the probe is not repeated on every
        substitution.
        """
        terms = self.terms
        index_mask = self._index_mask
        support = 0
        total_candidate_bits = 0
        for mask in terms:
            support |= mask
            total_candidate_bits += (mask & index_mask).bit_count()
        if terms and total_candidate_bits > INDEX_DENSITY_LIMIT * len(terms):
            self._occ = {}
            self._indexed = False
            self._index_debt = 0.0
            self._support = support
            self._reindex_floor = max(self._reindex_floor, 4 * len(terms))
            return
        occ: dict[int, set[int]] = {}
        for mask in terms:
            candidates = mask & index_mask
            while candidates:
                low = candidates & -candidates
                candidates ^= low
                var = low.bit_length() - 1
                bucket = occ.get(var)
                if bucket is None:
                    occ[var] = {mask}
                else:
                    bucket.add(mask)
        self._occ = occ
        self._indexed = True
        self._index_debt = 0.0
        # The support computed by the density probe is committed on *every*
        # exit: ``candidate_superset`` and the load-time vanishing sweep
        # read it regardless of the indexing mode.
        self._support = support

    def _drop_index(self) -> None:
        """Fall back to scan mode after the index proved uneconomical.

        Dense term populations (e.g. the MT-FO remainder, whose terms carry
        many live fanout variables each) make the per-term index upkeep cost
        more than the linear scans it avoids.  The re-engage floor rises so
        the engine does not thrash between modes.
        """
        self._occ = {}
        self._indexed = False
        self._index_debt = 0.0
        self._reindex_floor = max(self._reindex_floor, 4 * len(self.terms))
        self._support = union_mask(self.terms)

    # -- queries ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.terms)

    @property
    def indexed(self) -> bool:
        """Whether the occurrence index is currently engaged."""
        return self._indexed

    def occurrences(self, var: int) -> int:
        """Number of terms currently containing the candidate variable."""
        if self._indexed:
            bucket = self._occ.get(var)
            return len(bucket) if bucket else 0
        bit = 1 << var
        return sum(1 for mask in self.terms if mask & bit)

    def contains(self, var: int) -> bool:
        """Return ``True`` if the candidate variable occurs in some term."""
        if self._indexed:
            return bool(self._occ.get(var))
        bit = 1 << var
        return any(mask & bit for mask in self.terms)

    def active_variables(self) -> list[int]:
        """Candidate variables with at least one occurrence, ascending."""
        if self._indexed:
            return sorted(var for var, bucket in self._occ.items() if bucket)
        support = self._support = union_mask(self.terms)
        active = []
        candidates = support & self._index_mask
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            active.append(low.bit_length() - 1)
        return active

    def support_mask(self) -> int:
        """Bitmask of all variables over the current terms (full scan)."""
        return union_mask(self.terms)

    def candidate_superset(self) -> int:
        """Superset of the candidate variables possibly present — no scan.

        Built from the support superset, so a set bit may be stale (its
        variable already cancelled out); substituting such a variable is a
        cheap no-op.  Every substituted-and-retired (or unindexed) variable
        leaves the mask, so callers looping until the mask empties always
        terminate.
        """
        return self._support & self._index_mask

    # -- index maintenance -----------------------------------------------------

    def unindex(self, var: int) -> None:
        """Stop tracking a variable (it was decided to keep, not substitute)."""
        self._index_mask &= ~(1 << var)
        if self._indexed:
            self._occ.pop(var, None)

    # -- vanishing sweep -------------------------------------------------------

    @staticmethod
    def find_vanishing(masks: Iterable[int], vanishing) -> list[int]:
        """Masks from ``masks`` the oracle reports as vanishing.

        The oracle's public ``cache`` (mask → verdict memo) is probed inline
        when available, so re-sweeping already-tested terms costs one dict
        lookup each.  Shared by :meth:`prune_vanishing`, the scan-mode
        substitution path, and the polynomial-level filtering of
        :meth:`repro.verification.vanishing.VanishingRules.remove_vanishing`.
        """
        is_vanishing_mask = vanishing.is_vanishing_mask
        cache = getattr(vanishing, "cache", None)
        if cache is None:
            return [mask for mask in masks if is_vanishing_mask(mask)]
        # Masks disjoint from the oracle's relevance support cannot vanish;
        # one AND skips both the probe and the call for them.
        relevant = getattr(vanishing, "relevant_mask", -1)
        cache_get = cache.get
        doomed = []
        probe_hits = 0
        for mask in masks:
            if not mask & relevant:
                continue
            verdict = cache_get(mask)
            if verdict is None:
                verdict = is_vanishing_mask(mask)
            else:
                probe_hits += 1
            if verdict:
                doomed.append(mask)
        if probe_hits and hasattr(vanishing, "cache_hits"):
            vanishing.cache_hits += probe_hits
        return doomed

    def prune_vanishing(self) -> int:
        """Remove every vanishing monomial currently in the term map.

        This is the full sweep, run right after :meth:`reset`; afterwards
        the engine keeps the map vanishing-free after every substitution.
        Returns the number of removed terms and accumulates it into
        ``vanishing.removed_count``.
        """
        vanishing = self.vanishing
        if vanishing is None:
            return 0
        relevant = getattr(vanishing, "relevant_mask", None)
        if relevant is not None and not self._support & relevant:
            # No loaded term touches a contradiction-relevant variable
            # (``_support`` is a superset of the live support): nothing to do.
            return 0
        terms = self.terms
        doomed = self.find_vanishing(terms, vanishing)
        if doomed:
            for mask in doomed:
                del terms[mask]
            if self._indexed:
                occ = self._occ
                index_mask = self._index_mask
                for mask in doomed:
                    candidates = mask & index_mask
                    while candidates:
                        low = candidates & -candidates
                        candidates ^= low
                        bucket = occ.get(low.bit_length() - 1)
                        if bucket is not None:
                            bucket.discard(mask)
        vanishing.removed_count += len(doomed)
        self.vanishing_removed += len(doomed)
        return len(doomed)

    # -- the substitution kernel -----------------------------------------------

    def substitute(self, var: int, replacement: list[tuple[int, int]],
                   growth_limit: int | None = None,
                   retire: bool = False) -> int:
        """Substitute ``var := replacement`` in place; return #affected terms.

        ``replacement`` is a reusable sequence of ``(mask, coefficient)``
        pairs of the tail polynomial.  In indexed mode only the terms listed
        in the occurrence index under ``var`` are visited; in scan mode the
        (small) term map is scanned, guarded by a support-superset bit test
        so substituting an absent variable costs ``O(1)``.

        With ``retire=True`` the variable is dropped from the candidate set
        after the substitution — valid whenever the caller's substitution
        order guarantees the variable cannot be re-introduced (true for both
        the reduction schedule and the rewriting passes).

        With a ``growth_limit``, the substitution is transactional: if the
        resulting term count exceeds ``max(growth_limit, 4 * previous
        count)`` the step is discarded (terms, index, and statistics —
        including any vanishing removals found while evaluating the
        candidate — are untouched) and ``-1`` is returned so the caller can
        keep the variable instead.  (The verification flow never combines a
        growth limit with a vanishing oracle — common rewriting runs
        without the oracle — so full rollback is the defining semantics,
        not a compatibility constraint.)
        """
        if self._indexed:
            result = self._substitute_indexed(var, replacement, growth_limit,
                                              retire)
        else:
            result = self._substitute_scan(var, replacement, growth_limit,
                                           retire)
            if (result > 0 and not self._indexed and self._index_mask
                    and len(self.terms) >= self._reindex_floor):
                self._build_index()
        if result > 0:
            self.substitutions += 1
            self.affected_terms += result
            size = len(self.terms)
            if size > self.peak_terms:
                self.peak_terms = size
        elif result < 0:
            self.rejected_substitutions += 1
        return result

    def _substitute_scan(self, var: int, replacement: list[tuple[int, int]],
                         growth_limit: int | None, retire: bool) -> int:
        bit = 1 << var
        # ``_support`` is a superset of the live support (bits are never
        # cleared); a stale bit only costs one scan that finds no terms.
        if not self._support & bit:
            if retire:
                self._index_mask &= ~bit
            return 0
        terms = self.terms
        # Keys-only scan: the coefficients of the (few) affected terms are
        # fetched on extraction instead of tuple-unpacking every term.
        hit_masks = [mask for mask in terms if mask & bit]
        if not hit_masks:
            # The bit was stale; re-tighten the support superset so later
            # stale variables do not trigger another full scan each.
            self._support = union_mask(terms)
            if retire:
                self._index_mask &= ~bit
            return 0
        size_before = len(terms)
        keep = ~bit
        support = self._support & keep
        modulus = self._modulus

        if growth_limit is None:
            pop = terms.pop
            affected = [(mask, pop(mask)) for mask in hit_masks]
            target = terms
        else:
            # Transactional: build the candidate out of place so a rejected
            # step leaves the working map untouched.
            affected = [(mask, terms[mask]) for mask in hit_masks]
            target = {mask: coeff for mask, coeff in terms.items()
                      if not mask & bit}
        get = target.get
        vanishing = self.vanishing
        touched: list[int] | None = [] if modulus is not None else None
        created: list[int] | None = [] if vanishing is not None else None
        if created is not None:
            # Track the created terms so the vanishing filter below only
            # tests them: a term that survived an earlier test (at load
            # time, via :meth:`prune_vanishing`, or when a previous step
            # created it) never vanishes later — vanishing depends on the
            # mask alone.  This mirrors the indexed path.
            make = created.append
            touch = touched.append if touched is not None else None
            for mask, coeff in affected:
                rest = mask & keep
                for rep_mask, rep_coeff in replacement:
                    prod = rest | rep_mask
                    old = get(prod)
                    if old is None:
                        # Coefficients are never stored as zero, so the
                        # product of two of them cannot cancel on creation.
                        target[prod] = coeff * rep_coeff
                        support |= prod
                        make(prod)
                    else:
                        new = old + coeff * rep_coeff
                        if new:
                            target[prod] = new
                        else:
                            del target[prod]
                    if touch is not None:
                        touch(prod)
        elif touched is None:
            for mask, coeff in affected:
                rest = mask & keep
                for rep_mask, rep_coeff in replacement:
                    prod = rest | rep_mask
                    new = get(prod, 0) + coeff * rep_coeff
                    if new:
                        target[prod] = new
                        support |= prod
                    else:
                        del target[prod]
        else:
            append = touched.append
            for mask, coeff in affected:
                rest = mask & keep
                for rep_mask, rep_coeff in replacement:
                    prod = rest | rep_mask
                    new = get(prod, 0) + coeff * rep_coeff
                    if new:
                        target[prod] = new
                        support |= prod
                        append(prod)
                    else:
                        del target[prod]

        removed_vanishing = 0
        if created:
            # ``created`` can list a mask twice (created, cancelled,
            # recreated); the liveness check keeps the removal count exact.
            # ``relevant`` rejects monomials that cannot vanish with one AND
            # (every mask passes for oracles without a relevance mask).
            is_vanishing_mask = vanishing.is_vanishing_mask
            relevant = getattr(vanishing, "relevant_mask", -1)
            for prod in created:
                if prod & relevant and prod in target and is_vanishing_mask(prod):
                    del target[prod]
                    removed_vanishing += 1
        removed_modulus = 0
        if touched is not None:
            # Only the touched coefficients changed; untouched terms were
            # already filtered when they last changed.
            low_bits = self._low_bits
            if low_bits is not None:
                for prod in touched:
                    coeff = get(prod)
                    if coeff is not None and not coeff & low_bits:
                        del target[prod]
                        removed_modulus += 1
            else:
                for prod in touched:
                    coeff = get(prod)
                    if coeff is not None and coeff % modulus == 0:
                        del target[prod]
                        removed_modulus += 1

        if growth_limit is not None:
            if len(target) > max(growth_limit, 4 * size_before):
                return -1
            self.terms = target
        if removed_vanishing:
            vanishing.removed_count += removed_vanishing
            self.vanishing_removed += removed_vanishing
        self.modulus_removed += removed_modulus
        self._support = support
        if retire:
            self._index_mask &= ~bit
        return len(affected)

    def _substitute_indexed(self, var: int, replacement: list[tuple[int, int]],
                            growth_limit: int | None, retire: bool) -> int:
        occ = self._occ
        bucket = occ.get(var)
        if not bucket:
            if retire:
                self.unindex(var)
            return 0
        terms = self.terms
        size_before = len(terms)
        pop = terms.pop
        affected = [(mask, pop(mask)) for mask in bucket]

        # ``journal`` records the pre-step coefficient (``None`` = absent) of
        # every key the step writes: it drives the index update, the
        # created-term vanishing tests, the modulus filtering, and — for
        # growth-limited substitutions — the rollback.  ``created`` lists the
        # keys that did not exist before the step.
        journal: dict[int, int | None] = dict(affected)
        created: list[int] = []

        keep = ~(1 << var)
        get = terms.get
        for mask, coeff in affected:
            rest = mask & keep
            for rep_mask, rep_coeff in replacement:
                prod = rest | rep_mask
                old = get(prod)
                if prod not in journal:
                    journal[prod] = old
                    if old is None:
                        created.append(prod)
                if old is None:
                    # Coefficients are never stored as zero, so the product
                    # of two of them cannot cancel on creation.
                    terms[prod] = coeff * rep_coeff
                else:
                    new = old + coeff * rep_coeff
                    if new:
                        terms[prod] = new
                    else:
                        del terms[prod]

        # Vanishing-rule filtering of the newly created terms.  Terms that
        # already existed have survived an earlier test (vanishing depends
        # only on the mask), so they are skipped.
        removed_vanishing = 0
        vanishing = self.vanishing
        if vanishing is not None and created:
            is_vanishing_mask = vanishing.is_vanishing_mask
            relevant = getattr(vanishing, "relevant_mask", -1)
            for prod in created:
                if prod & relevant and prod in terms and is_vanishing_mask(prod):
                    del terms[prod]
                    removed_vanishing += 1

        # Modulus filtering of the touched coefficients; untouched terms were
        # already filtered when they last changed.
        removed_modulus = 0
        modulus = self._modulus
        if modulus is not None:
            low_bits = self._low_bits
            if low_bits is not None:
                for prod in journal:
                    coeff = get(prod)
                    if coeff is not None and not coeff & low_bits:
                        del terms[prod]
                        removed_modulus += 1
            else:
                for prod in journal:
                    coeff = get(prod)
                    if coeff is not None and coeff % modulus == 0:
                        del terms[prod]
                        removed_modulus += 1

        if growth_limit is not None and len(terms) > max(growth_limit,
                                                         4 * size_before):
            # Roll the whole step back: restore every journaled key.
            for key, old in journal.items():
                if old is None:
                    terms.pop(key, None)
                else:
                    terms[key] = old
            return -1

        # Commit: bring the occurrence index in line with the journal,
        # metering the upkeep (``index_ops``) against the full scan the
        # index saved (``len(terms)``) so a term population too dense in
        # candidate variables demotes the engine back to scan mode.
        index_ops = len(journal)
        index_mask = self._index_mask
        if retire:
            index_mask &= ~(1 << var)
            self._index_mask = index_mask
            occ.pop(var, None)
        if index_mask:
            for key, old in journal.items():
                if old is None:
                    if key in terms:
                        candidates = key & index_mask
                        index_ops += candidates.bit_count()
                        while candidates:
                            low = candidates & -candidates
                            candidates ^= low
                            slot = low.bit_length() - 1
                            entry = occ.get(slot)
                            if entry is None:
                                occ[slot] = {key}
                            else:
                                entry.add(key)
                elif key not in terms:
                    candidates = key & index_mask
                    index_ops += candidates.bit_count()
                    while candidates:
                        low = candidates & -candidates
                        candidates ^= low
                        entry = occ.get(low.bit_length() - 1)
                        if entry is not None:
                            entry.discard(key)

        if removed_vanishing:
            vanishing.removed_count += removed_vanishing
            self.vanishing_removed += removed_vanishing
        self.modulus_removed += removed_modulus

        size = len(terms)
        if index_ops > size:
            # Upkeep cost exceeded the avoided scan; a few such steps in a
            # row mean the index is a net loss for this population.
            self._index_debt += index_ops / size - 1.0 if size else 1.0
            if self._index_debt > 4.0:
                self._drop_index()
        else:
            self._index_debt = 0.0
        return len(affected)

    # -- the batched substitution kernel -----------------------------------------

    def substitute_batch(self, items: Sequence[tuple[int, list[tuple[int, int]]]],
                         growth_limit: int | None = None,
                         retire: bool = False,
                         term_limit: int | None = None,
                         deadline: float | None = None,
                         ) -> tuple[list[tuple[int, int]], str | None]:
        """Substitute a whole level ``[(var, replacement), ...]`` in order.

        Semantically this is *exactly* the equivalent sequence of
        single-variable :meth:`substitute` calls — the same term-map
        evolution, the same per-step vanishing filtering of created terms
        and modulus filtering of touched coefficients, the same growth-guard
        rollback per step, and the same statistics — so callers can batch
        any contiguous run of their substitution order without changing
        results.  The payoff is the fused indexed path (engaged when the
        index is live, every variable is retired, and no growth limit
        applies): one journal spans the whole batch, terms destroyed
        mid-batch are never unlinked from their occurrence buckets (a
        liveness filter when a bucket is consumed replaces the eager
        per-step deletes), and created terms are linked only under batch
        variables still awaiting substitution — for a fully retiring batch
        the index teardown vanishes altogether.

        Returns ``(results, tripped)``: one ``(affected, size_after)`` pair
        per processed item (``affected`` is the :meth:`substitute` return
        value, ``size_after`` the term count right after that step), and a
        trip marker — ``"terms"`` when ``term_limit`` was exceeded right
        after a term-affecting step, ``"deadline"`` when ``deadline`` (a
        :func:`time.perf_counter` instant) had passed after one, ``None``
        when every item was processed.  The checks run at exactly the
        points where the sequential loops used to check their budgets, so
        callers translate a trip marker straight into their blow-up error.
        """
        self.batches += 1
        results: list[tuple[int, int]] = []
        tripped: str | None = None
        position = 0
        total = len(items)
        scan_fusible = True
        while position < total and tripped is None:
            if growth_limit is None and retire and position < total - 1:
                if self._indexed:
                    position, tripped = self._substitute_batch_indexed(
                        items, position, results, term_limit, deadline)
                    # On a clean return the index demoted itself mid-run
                    # and the scan path below finishes the batch.
                    continue
                if (scan_fusible and len(self.terms) < INDEX_THRESHOLD
                        and total - position > 2):
                    # For one or two variables the two plain scans beat the
                    # bucket partitioning; the fused path wins from three on.
                    before = position
                    position, tripped = self._substitute_batch_scan(
                        items, position, results, term_limit, deadline)
                    if position < total and tripped is None:
                        # The partition refused (population dense in batch
                        # variables) or the per-step meter bailed: finish
                        # this batch on the per-step path.
                        scan_fusible = False
                    if position > before or tripped is not None:
                        continue
            var, replacement = items[position]
            affected = self.substitute(var, replacement, growth_limit, retire)
            position += 1
            self.batch_steps += 1
            results.append((affected, len(self.terms)))
            if affected > 0:
                if (term_limit is not None
                        and len(self.terms) > term_limit):
                    tripped = "terms"
                elif (deadline is not None
                        and time.perf_counter() > deadline):
                    tripped = "deadline"
        return results, tripped

    def _substitute_batch_indexed(self, items, start: int,
                                  results: list[tuple[int, int]],
                                  term_limit: int | None,
                                  deadline: float | None,
                                  ) -> tuple[int, str | None]:
        """Fused indexed run over ``items[start:]`` (retiring, no growth limit).

        Returns ``(position, tripped)`` — the position after the last
        processed item and the budget trip marker (see
        :meth:`substitute_batch`).  A clean return before ``len(items)``
        means the engine demoted itself to scan mode and the dispatcher
        takes over.
        """
        occ = self._occ
        terms = self.terms
        vanishing = self.vanishing
        vanishing_relevant = (-1 if vanishing is None
                              else getattr(vanishing, "relevant_mask", -1))
        modulus = self._modulus
        low_bits = self._low_bits
        batch_mask = 0
        for var, _ in items[start:]:
            batch_mask |= 1 << var
        # Keys written during the batch only need reconciling with the
        # occurrence index for candidate variables that survive the batch;
        # every batch variable is retired, so its buckets never need repair.
        # The journal records pre-batch *existence* (``True`` = the key was
        # live before the batch) — all the commit needs — and only for keys
        # carrying surviving-candidate bits.  Both verification callers
        # have ``commit_mask == 0`` (the reduction retires every candidate;
        # a rewriting batch covers every candidate present in the tail), so
        # the journal stays empty on the hot paths.
        commit_mask = self._index_mask & ~batch_mask
        journal: dict[int, bool] = {}
        removed_vanishing_total = 0
        removed_modulus_total = 0
        tripped: str | None = None
        position = start
        total = len(items)

        while position < total:
            var, replacement = items[position]
            bit = 1 << var
            position += 1
            self.batch_steps += 1
            batch_mask &= ~bit
            self._index_mask &= ~bit
            bucket = occ.pop(var, None)
            if bucket:
                # The liveness filter replaces the deferred bucket deletes:
                # keys destroyed earlier in the batch are still listed here
                # and pop with a default resolves liveness and extraction in
                # one lookup.
                pop = terms.pop
                affected = [(key, coeff) for key in bucket
                            if (coeff := pop(key, None)) is not None]
                step_ops = len(bucket)
            else:
                affected = []
            if not affected:
                results.append((0, len(terms)))
                continue

            created: list[int] = []
            keep = ~bit
            get = terms.get
            # ``flagged`` collects keys whose coefficient was a modulus
            # multiple *at some write*; only those few need the final
            # re-check, instead of every written key.  (A key is a multiple
            # after the step iff its last write flagged it.)
            flagged: list[int] | None = [] if modulus is not None else None
            if commit_mask:
                for key, _ in affected:
                    if key & commit_mask and key not in journal:
                        journal[key] = True
            if flagged is None:
                for mask, coeff in affected:
                    rest = mask & keep
                    for rep_mask, rep_coeff in replacement:
                        prod = rest | rep_mask
                        old = get(prod)
                        if old is None:
                            # Coefficients are never stored as zero, so the
                            # product of two of them cannot cancel on creation.
                            terms[prod] = coeff * rep_coeff
                            created.append(prod)
                            if (commit_mask and prod & commit_mask
                                    and prod not in journal):
                                # Journaled at creation, before any cancel
                                # in the same step can masquerade as a
                                # pre-batch deletion.
                                journal[prod] = False
                        else:
                            new = old + coeff * rep_coeff
                            if new:
                                terms[prod] = new
                            else:
                                del terms[prod]
                                if (commit_mask and prod & commit_mask
                                        and prod not in journal):
                                    journal[prod] = True
            elif low_bits is not None:
                flag = flagged.append
                for mask, coeff in affected:
                    rest = mask & keep
                    for rep_mask, rep_coeff in replacement:
                        prod = rest | rep_mask
                        old = get(prod)
                        if old is None:
                            value = coeff * rep_coeff
                            terms[prod] = value
                            created.append(prod)
                            if (commit_mask and prod & commit_mask
                                    and prod not in journal):
                                journal[prod] = False
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
                                if (commit_mask and prod & commit_mask
                                        and prod not in journal):
                                    journal[prod] = True
            else:
                flag = flagged.append
                for mask, coeff in affected:
                    rest = mask & keep
                    for rep_mask, rep_coeff in replacement:
                        prod = rest | rep_mask
                        old = get(prod)
                        if old is None:
                            value = coeff * rep_coeff
                            terms[prod] = value
                            created.append(prod)
                            if (commit_mask and prod & commit_mask
                                    and prod not in journal):
                                journal[prod] = False
                            if value % modulus == 0:
                                flag(prod)
                        else:
                            new = old + coeff * rep_coeff
                            if new:
                                terms[prod] = new
                                if new % modulus == 0:
                                    flag(prod)
                            else:
                                del terms[prod]
                                if (commit_mask and prod & commit_mask
                                        and prod not in journal):
                                    journal[prod] = True

            # Link created keys under the batch variables still awaiting
            # substitution (their buckets are consumed later) and journal
            # the ones relevant to surviving candidates.  A key created
            # for the second time (created, cancelled, recreated) is
            # already listed — the set semantics of the buckets absorb it.
            for prod in created:
                candidates = prod & batch_mask
                step_ops += candidates.bit_count() + 1
                while candidates:
                    low = candidates & -candidates
                    candidates ^= low
                    slot = low.bit_length() - 1
                    entry = occ.get(slot)
                    if entry is None:
                        occ[slot] = {prod}
                    else:
                        entry.add(prod)

            # Per-step vanishing filtering of the created terms, exactly as
            # the single-variable kernel does it.
            removed_vanishing = 0
            if vanishing is not None and created:
                is_vanishing_mask = vanishing.is_vanishing_mask
                for prod in created:
                    if (prod & vanishing_relevant and prod in terms
                            and is_vanishing_mask(prod)):
                        del terms[prod]
                        removed_vanishing += 1
                if removed_vanishing:
                    removed_vanishing_total += removed_vanishing

            # Per-step modulus filtering: only flagged keys can still be
            # multiples, and the final coefficient decides.
            if flagged:
                if low_bits is not None:
                    for prod in flagged:
                        coeff = get(prod)
                        if coeff is not None and not coeff & low_bits:
                            del terms[prod]
                            removed_modulus_total += 1
                            if (commit_mask and prod & commit_mask
                                    and prod not in journal):
                                journal[prod] = True
                else:
                    for prod in flagged:
                        coeff = get(prod)
                        if coeff is not None and coeff % modulus == 0:
                            del terms[prod]
                            removed_modulus_total += 1
                            if (commit_mask and prod & commit_mask
                                    and prod not in journal):
                                journal[prod] = True

            size = len(terms)
            self.substitutions += 1
            self.affected_terms += len(affected)
            if size > self.peak_terms:
                self.peak_terms = size
            results.append((len(affected), size))

            if term_limit is not None and size > term_limit:
                tripped = "terms"
                break
            if deadline is not None and time.perf_counter() > deadline:
                tripped = "deadline"
                break
            # The same per-step upkeep-vs-avoided-scan meter as the
            # sequential indexed kernel: populations that turn dense in
            # candidate variables demote the engine to scan mode quickly.
            if step_ops > size:
                self._index_debt += step_ops / size - 1.0 if size else 1.0
                if self._index_debt > 4.0:
                    break
            else:
                self._index_debt = 0.0

        if removed_vanishing_total:
            vanishing.removed_count += removed_vanishing_total
            self.vanishing_removed += removed_vanishing_total
        self.modulus_removed += removed_modulus_total
        self._commit_batch(journal, commit_mask, batch_mask)
        if position < total and tripped is None and self._indexed:
            self._drop_index()
        return position, tripped

    def _substitute_batch_scan(self, items, start: int,
                               results: list[tuple[int, int]],
                               term_limit: int | None,
                               deadline: float | None,
                               ) -> tuple[int, str | None]:
        """Fused scan-mode run over ``items[start:]`` (retiring, no growth limit).

        One scan over the (small) term map partitions the live terms over
        every batch variable at once — replacing the per-variable full scans
        of the sequential path — and created terms are appended to the
        buckets of variables still awaiting substitution.  Liveness is
        re-checked when a bucket is consumed, so no delete bookkeeping is
        ever performed.  Semantics per step are exactly those of
        :meth:`substitute`.
        """
        terms = self.terms
        vanishing = self.vanishing
        vanishing_relevant = (-1 if vanishing is None
                              else getattr(vanishing, "relevant_mask", -1))
        modulus = self._modulus
        low_bits = self._low_bits
        batch_mask = 0
        for var, _ in items[start:]:
            batch_mask |= 1 << var
        buckets: dict[int, list[int]] = {}
        support = 0
        total_candidate_bits = 0
        for mask in terms:
            support |= mask
            candidates = mask & batch_mask
            total_candidate_bits += candidates.bit_count()
            while candidates:
                low = candidates & -candidates
                candidates ^= low
                slot = low.bit_length() - 1
                entry = buckets.get(slot)
                if entry is None:
                    buckets[slot] = [mask]
                else:
                    entry.append(mask)
        if (terms and total_candidate_bits
                > INDEX_DENSITY_LIMIT * len(terms)):
            # Dense in batch variables (the MT-FO/naive populations): the
            # per-created bucket upkeep would cost more than the plain
            # scans it replaces — refuse, and let the dispatcher run the
            # per-step path for the rest of the batch.
            return start, None
        tripped: str | None = None
        position = start
        total = len(items)

        while position < total:
            var, replacement = items[position]
            bit = 1 << var
            position += 1
            self.batch_steps += 1
            batch_mask &= ~bit
            self._index_mask &= ~bit
            bucket = buckets.pop(var, None)
            if not bucket:
                results.append((0, len(terms)))
                continue
            pop = terms.pop
            affected = [(key, coeff) for key in bucket
                        if (coeff := pop(key, None)) is not None]
            if not affected:
                results.append((0, len(terms)))
                continue
            step_ops = len(bucket)

            created: list[int] = []
            keep = ~bit
            get = terms.get
            # Flag-at-write modulus tracking, as in the indexed kernel.
            flagged: list[int] | None = [] if modulus is not None else None
            if flagged is None:
                for mask, coeff in affected:
                    rest = mask & keep
                    for rep_mask, rep_coeff in replacement:
                        prod = rest | rep_mask
                        old = get(prod)
                        if old is None:
                            # Coefficients are never stored as zero, so the
                            # product of two of them cannot cancel on creation.
                            terms[prod] = coeff * rep_coeff
                            created.append(prod)
                        else:
                            new = old + coeff * rep_coeff
                            if new:
                                terms[prod] = new
                            else:
                                del terms[prod]
            elif low_bits is not None:
                flag = flagged.append
                for mask, coeff in affected:
                    rest = mask & keep
                    for rep_mask, rep_coeff in replacement:
                        prod = rest | rep_mask
                        old = get(prod)
                        if old is None:
                            value = coeff * rep_coeff
                            terms[prod] = value
                            created.append(prod)
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
            else:
                flag = flagged.append
                for mask, coeff in affected:
                    rest = mask & keep
                    for rep_mask, rep_coeff in replacement:
                        prod = rest | rep_mask
                        old = get(prod)
                        if old is None:
                            value = coeff * rep_coeff
                            terms[prod] = value
                            created.append(prod)
                            if value % modulus == 0:
                                flag(prod)
                        else:
                            new = old + coeff * rep_coeff
                            if new:
                                terms[prod] = new
                                if new % modulus == 0:
                                    flag(prod)
                            else:
                                del terms[prod]

            for prod in created:
                support |= prod
                candidates = prod & batch_mask
                step_ops += candidates.bit_count() + 1
                while candidates:
                    low = candidates & -candidates
                    candidates ^= low
                    slot = low.bit_length() - 1
                    entry = buckets.get(slot)
                    if entry is None:
                        buckets[slot] = [prod]
                    else:
                        entry.append(prod)

            removed_vanishing = 0
            if vanishing is not None and created:
                is_vanishing_mask = vanishing.is_vanishing_mask
                for prod in created:
                    if (prod & vanishing_relevant and prod in terms
                            and is_vanishing_mask(prod)):
                        del terms[prod]
                        removed_vanishing += 1
                if removed_vanishing:
                    vanishing.removed_count += removed_vanishing
                    self.vanishing_removed += removed_vanishing

            if flagged:
                if low_bits is not None:
                    for prod in flagged:
                        coeff = get(prod)
                        if coeff is not None and not coeff & low_bits:
                            del terms[prod]
                            self.modulus_removed += 1
                else:
                    for prod in flagged:
                        coeff = get(prod)
                        if coeff is not None and coeff % modulus == 0:
                            del terms[prod]
                            self.modulus_removed += 1

            size = len(terms)
            self.substitutions += 1
            self.affected_terms += len(affected)
            if size > self.peak_terms:
                self.peak_terms = size
            results.append((len(affected), size))

            if term_limit is not None and size > term_limit:
                tripped = "terms"
                break
            if deadline is not None and time.perf_counter() > deadline:
                tripped = "deadline"
                break
            # The same upkeep-vs-avoided-scan meter as the indexed kernels:
            # a population turning dense mid-batch bails to per-step scans.
            if step_ops > size:
                self._index_debt += step_ops / size - 1.0 if size else 1.0
                if self._index_debt > 4.0:
                    self._index_debt = 0.0
                    break
            else:
                self._index_debt = 0.0

        self._support = support
        if (tripped is None and self._index_mask
                and len(terms) >= self._reindex_floor):
            self._build_index()
        return position, tripped

    def _commit_batch(self, journal: dict[int, bool], commit_mask: int,
                      remaining_mask: int) -> None:
        """Reconcile the occurrence index after a fused batch run.

        ``journal`` records pre-batch existence of every written key that
        touches a surviving candidate variable; buckets of those variables
        gain the keys that now exist and drop the ones that no longer do.
        ``remaining_mask`` covers batch variables left unprocessed by an
        early exit — their buckets were augmented batch-locally and may
        list destroyed keys, so they are rebuilt from liveness before
        regular single-variable substitutions resume.
        """
        occ = self._occ
        terms = self.terms
        if commit_mask and journal:
            for key, existed in journal.items():
                if not existed:
                    if key in terms:
                        candidates = key & commit_mask
                        while candidates:
                            low = candidates & -candidates
                            candidates ^= low
                            slot = low.bit_length() - 1
                            entry = occ.get(slot)
                            if entry is None:
                                occ[slot] = {key}
                            else:
                                entry.add(key)
                elif key not in terms:
                    candidates = key & commit_mask
                    while candidates:
                        low = candidates & -candidates
                        candidates ^= low
                        entry = occ.get(low.bit_length() - 1)
                        if entry is not None:
                            entry.discard(key)
        if remaining_mask:
            while remaining_mask:
                low = remaining_mask & -remaining_mask
                remaining_mask ^= low
                slot = low.bit_length() - 1
                bucket = occ.get(slot)
                if bucket:
                    occ[slot] = {key for key in bucket if key in terms}
