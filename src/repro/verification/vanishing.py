"""The XOR-AND vanishing rule and its structural generalisation.

A *vanishing monomial* always evaluates to zero on the circuit.  The paper's
core observation is the XOR-AND rule: a monomial containing both
``X = a xor b`` and ``D = a and b`` vanishes because ``(a xor b)(a and b) = 0``.

During rewriting the same contradiction can surface through slightly
different variable sets (``X*a*b`` once ``D`` has been inlined, or the
``one/two`` select signals of a Booth cell, where ``two = x2 and (not one)``).
To catch these soundly this module derives, once per model, a set of
*implied literals* for every variable:

* ``must1(v)``  — literals that are forced when ``v = 1``;
* ``must0(v)``  — literals that are forced when ``v = 0``.

For a monomial ``M`` (a conjunction of its variables) the union of
``must1(v)`` over ``v in M`` must be consistent; if it contains both
polarities of some signal, or if it violates the XOR/XNOR constraint of a
gate whose output is in ``M``, the monomial is identically zero and can be
removed.  The paper's rule is the special case "XOR output + AND output over
the same input pair".

Everything is packed into integer bitmasks.  An implied-literal set is a
``(pos, neg)`` pair of variable masks, their union over a monomial is two OR
reductions, and the contradiction test is ``pos & neg != 0``.  Because every
variable trivially implies its own positive literal, ``pos`` always contains
the monomial mask itself — so the accumulation loop only has to visit the
variables whose table holds *more* than the self-literal (AND/OR-family
gates; XOR outputs and primary inputs are skipped wholesale through one AND
with the precomputed :attr:`VanishingRules._nontrivial_mask`).  The XOR/XNOR
consistency checks run on per-gate input-support masks, so the whole rule
touches no Python sets or tuples on the hot path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.algebra.monomial import bits_of, mask_of, Monomial
from repro.algebra.polynomial import Polynomial
from repro.circuit.gates import GateType
from repro.modeling.model import AlgebraicModel

#: A literal is ``(variable, polarity)`` with polarity ``True`` for positive.
Literal = tuple[int, bool]

#: An implied-literal table entry: ``(pos, neg)`` bitmasks over variables.
MustMasks = tuple[int, int]

#: Default cap on the mask->verdict memo (:attr:`VanishingRules.cache_limit`);
#: a ``vanishing_cache_limit`` budget of ``None`` means this cap.
DEFAULT_CACHE_LIMIT = 1_000_000


@dataclass(slots=True)
class VanishingRules:
    """Structural vanishing-monomial detector for one circuit model.

    Parameters
    ----------
    model:
        The algebraic model whose gate structure is used.
    xor_and_only:
        Restrict detection to the paper's literal XOR-AND rule (an XOR output
        and an AND output over the same two inputs).  The default ``False``
        enables the sound implied-literal generalisation described in
        DESIGN.md §4, which is required to catch the Booth-cell vanishing
        monomials once their AND gates have been inlined.
    max_implied_literals:
        Cap on the size of the implied-literal sets (memory guard for very
        deep AND/OR chains); truncation only weakens the rule, never makes it
        unsound.
    cache_limit:
        Cap on the mask→verdict memo; when the cache is full at the next
        insertion of a computed verdict, the whole cache is reset (counted
        in :attr:`cache_resets`).  ``None`` disables the bound.
    """

    model: AlgebraicModel
    xor_and_only: bool = False
    max_implied_literals: int = 256
    cache_limit: int | None = DEFAULT_CACHE_LIMIT
    removed_count: int = 0
    #: Verdicts served from :attr:`cache` (including the inline probes of
    #: :meth:`remove_vanishing`).
    cache_hits: int = 0
    #: Verdicts that had to be computed by the rule.
    cache_misses: int = 0
    #: Whole-cache resets forced by :attr:`cache_limit`.
    cache_resets: int = 0
    _must1: dict[int, MustMasks] = field(default_factory=dict, repr=False)
    _must0: dict[int, MustMasks] = field(default_factory=dict, repr=False)
    _xor_support: dict[int, tuple[int, ...]] = field(default_factory=dict, repr=False)
    _xnor_support: dict[int, tuple[int, ...]] = field(default_factory=dict, repr=False)
    _and_support: dict[int, frozenset[int]] = field(default_factory=dict, repr=False)
    #: Per-gate input support masks of the XOR/XNOR gates (bit ``a`` | bit ``b``).
    _pair_mask: dict[int, int] = field(default_factory=dict, repr=False)
    #: All XOR (resp. XNOR) gate outputs, packed into one mask each.
    _xor_out_mask: int = field(default=0, repr=False)
    _xnor_out_mask: int = field(default=0, repr=False)
    #: Variables with a stored ``must1`` entry; all other variables imply
    #: only themselves and are folded into the accumulated ``pos`` mask in
    #: one AND.
    _nontrivial_mask: int = field(default=0, repr=False)
    #: When set, every mask proven to vanish is appended to
    #: :attr:`proven_masks` (survives cache resets) so a certificate
    #: emitter can justify each cancellation independently.
    record_proven: bool = False
    proven_masks: list[int] = field(default_factory=list, repr=False)
    #: Public mask→verdict memo; :meth:`remove_vanishing` probes it
    #: inline when sweeping a tail before it is rewritten.
    cache: dict[int, bool] = field(default_factory=dict, repr=False)
    #: Variables a vanishing monomial must touch: a monomial disjoint from
    #: every non-trivial ``must1`` table and every XOR/XNOR output has
    #: ``pos == mask`` and ``neg == 0``, which cannot trip any rule check —
    #: one AND against this mask rejects it (and whole tails of such
    #: monomials) without probing the cache or running the rule.
    relevant_mask: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        self._build_structural_tables()

    # -- construction of the structural tables ---------------------------------

    def _build_structural_tables(self) -> None:
        """One ascending pass over the gate records builds every table.

        Variables are numbered topologically (children first), so the pass
        meets every gate after its inputs and fills, besides the XOR/XNOR
        support structures:

        * the implied-literal tables ``must1``/``must0``, with exactly the
          entries that can exceed the self-literal — ``must1`` of AND, BUF,
          NOT, NOR and CONST0 outputs (a 1 there forces the inputs high,
          forces them low, or cannot happen), ``must0`` of OR, BUF, NOT,
          NAND and CONST1 outputs.  A missing entry is the self-literal,
          and so is an entry past :attr:`max_implied_literals`, which is
          not stored.  The variables with a ``must1`` entry make up
          :attr:`_nontrivial_mask`;
        * the *relevance* closure flags.  The implied-literal rule can only
          answer ``True`` when some variable of the monomial either carries
          a *negative* implied literal in its ``must1`` closure (only
          NOT/NOR/CONST0 gates, or AND/BUF chains reaching one, produce
          those — they feed the ``pos & neg`` contradiction and the
          ``neg``-gated XOR/XNOR checks), or has a closure whose positive
          part touches an XOR output (the only check left when no negative
          literal exists: an XOR forced high with both inputs forced high).

        A monomial over pure-positive AND/BUF cones (e.g. the partial
        products of a multiplier and their accumulation trees) is always
        satisfiable — force every involved input high — so the union of the
        two flags is an exact necessary condition; it becomes
        :attr:`relevant_mask`, the one-AND prefilter of every vanishing
        test.  The flags live in flat arrays (big-int shifts would make this
        pass quadratic).
        """
        records = self.model.records
        gate_xor = GateType.XOR
        gate_xnor = GateType.XNOR
        gate_and = GateType.AND
        gate_or = GateType.OR
        gate_not = GateType.NOT
        gate_buf = GateType.BUF
        gate_nand = GateType.NAND
        gate_nor = GateType.NOR
        gate_const0 = GateType.CONST0
        gate_const1 = GateType.CONST1
        neg_roots = (gate_not, gate_nor, gate_const0)
        and_like = (gate_and, gate_buf)
        size = (max(records) + 1) if records else 0
        neg1 = bytearray(size)   # must1 closure contains a negative literal
        xr1 = bytearray(size)    # must1 closure's positive part touches an XOR
        nontrivial = 0
        xor_pairs = self._xor_support
        xnor_pairs = self._xnor_support
        pair_mask = self._pair_mask
        xor_out_mask = 0
        xnor_out_mask = 0
        tables = not self.xor_and_only
        must1 = self._must1
        must0 = self._must0
        cap = self.max_implied_literals
        for var, record in records.items():
            gate = record.gate_type
            if gate is None:
                continue
            inputs = record.inputs
            if gate is gate_xor:
                if len(inputs) == 2:
                    xor_pairs[var] = inputs
                    xor_out_mask |= 1 << var
                    a, b = inputs
                    pair_mask[var] = (1 << a) | (1 << b)
                xr1[var] = 1
                continue
            if gate is gate_xnor:
                if len(inputs) == 2:
                    xnor_pairs[var] = inputs
                    xnor_out_mask |= 1 << var
                    a, b = inputs
                    pair_mask[var] = (1 << a) | (1 << b)
                continue
            if gate in and_like:
                for child in inputs:
                    if neg1[child]:
                        neg1[var] = 1
                        break
                for child in inputs:
                    if xr1[child]:
                        xr1[var] = 1
                        break
            elif gate in neg_roots:
                # NOT/NOR closures can also reach an XOR output through the
                # inverted side, but these gates make the variable relevant
                # through ``neg1`` already, so tracking that reach would
                # never change ``neg1 | xr1``.
                neg1[var] = 1
            if not tables:
                continue
            # ``high``/``low``: the must1/must0 entry, seeded with the
            # output's own literal and ORed with the inputs' entries.
            bit = 1 << var
            high = low = None
            if gate is gate_and:
                high = _union(must1, inputs, True, bit, 0)
            elif gate is gate_or:
                low = _union(must0, inputs, False, 0, bit)
            elif gate is gate_buf:
                high = _union(must1, inputs, True, bit, 0)
                low = _union(must0, inputs, False, 0, bit)
            elif gate is gate_not:
                high = _union(must0, inputs, False, bit, 0)
                low = _union(must1, inputs, True, 0, bit)
            elif gate is gate_nor:
                high = _union(must0, inputs, False, bit, 0)
            elif gate is gate_nand:
                low = _union(must1, inputs, True, 0, bit)
            elif gate is gate_const0:
                # A constant-0 output can never be 1: mark as self-contradictory.
                high = (bit, bit)
            elif gate is gate_const1:
                low = (bit, bit)
            if high is not None and (high[0].bit_count()
                                     + high[1].bit_count()) <= cap:
                must1[var] = high
                nontrivial |= bit
            if low is not None and (low[0].bit_count()
                                    + low[1].bit_count()) <= cap:
                must0[var] = low
        self._xor_out_mask = xor_out_mask
        self._xnor_out_mask = xnor_out_mask
        if self.xor_and_only:
            # The strict rule requires an XOR output inside the monomial,
            # and it is the only consumer of the AND-gate support sets.
            self.relevant_mask = xor_out_mask
            for var, record in records.items():
                if (record.gate_type is gate_and
                        and len(record.inputs) == 2):
                    self._and_support[var] = frozenset(record.inputs)
        else:
            self._nontrivial_mask = nontrivial
            relevant = 0
            for var in range(size):
                if neg1[var] or xr1[var]:
                    relevant |= 1 << var
            self.relevant_mask = relevant

    # -- literal views (reference/compatibility) --------------------------------

    def implied_literals(self, var: int, value: bool) -> frozenset[Literal]:
        """The implied-literal set of ``var = value`` as ``(var, polarity)`` pairs.

        The packed ``(pos, neg)`` masks are the storage format; this view
        exists for tests and debugging, not for the hot path.
        """
        table, default = ((self._must1, (1 << var, 0)) if value
                          else (self._must0, (0, 1 << var)))
        pos, neg = table.get(var, default)
        return frozenset([(v, True) for v in bits_of(pos)]
                         + [(v, False) for v in bits_of(neg)])

    # -- the vanishing test ------------------------------------------------------

    def is_vanishing(self, monomial: Monomial) -> bool:
        """Return ``True`` if the monomial always evaluates to zero."""
        return self.is_vanishing_mask(mask_of(monomial))

    def is_vanishing_mask(self, mask: int) -> bool:
        """Mask-level :meth:`is_vanishing` (the rewriting fast path)."""
        if not mask & self.relevant_mask:
            # The monomial touches no variable that could contribute a
            # contradiction: it cannot vanish under either rule.
            return False
        cached = self.cache.get(mask)
        if cached is not None:
            self.cache_hits += 1
            return cached
        return self._test_new_mask(mask)

    def _test_new_mask(self, mask: int) -> bool:
        """Uncached-verdict path: callers guarantee a relevance-checked miss."""
        if mask.bit_count() < 2:
            # Cached so the inline probes of repeated sweeps hit instead of
            # falling through to a call; the verdict is always ``False``
            # (a single variable or the constant ``1`` never vanishes).
            result = False
        else:
            self.cache_misses += 1
            result = (self._xor_and_rule(mask) if self.xor_and_only
                      else self._implied_literal_rule(mask))
            if result and self.record_proven:
                self.proven_masks.append(mask)
        cache = self.cache
        if self.cache_limit is not None and len(cache) >= self.cache_limit:
            cache.clear()
            self.cache_resets += 1
        cache[mask] = result
        return result

    def _xor_and_rule(self, mask: int) -> bool:
        """The literal rule from the paper: XOR and AND over the same pair."""
        xor_pairs = [frozenset(self._xor_support[v]) for v in bits_of(mask)
                     if v in self._xor_support]
        if not xor_pairs:
            return False
        and_pairs = {self._and_support[v] for v in bits_of(mask)
                     if v in self._and_support}
        return any(pair in and_pairs for pair in xor_pairs)

    def _implied_literal_rule(self, mask: int) -> bool:
        """Sound generalisation via implied-literal consistency.

        Every variable implies its own positive literal, so the accumulated
        ``pos`` mask starts as the monomial mask itself and the loop only
        visits variables whose table holds more (one AND with
        :attr:`_nontrivial_mask` selects them — XOR outputs and primary
        inputs, the bulk of rewriting monomials, are skipped wholesale).
        A contradiction is one AND; the XOR/XNOR follow-up only visits gate
        outputs that are actually implied, checking each against its
        precomputed input-support mask.
        """
        pos = mask
        neg = 0
        must1 = self._must1
        remaining = mask & self._nontrivial_mask
        while remaining:
            low = remaining & -remaining
            remaining ^= low
            var = low.bit_length() - 1
            entry = must1[var]
            pos |= entry[0]
            neg |= entry[1]
        if pos & neg:
            return True
        # XOR outputs implied positive and XNOR outputs implied negative
        # force their inputs to *differ*: contradiction if both inputs are
        # forced to the same polarity.  The converse gates force *equal*
        # inputs: contradiction if the inputs are forced to differ (one
        # positive, one negative — ``pos`` and ``neg`` are disjoint here).
        # Without negative literals (the common pure-positive monomial) only
        # the positive-side check of the first form can fire.
        pair_mask = self._pair_mask
        if not neg:
            differing = pos & self._xor_out_mask
            while differing:
                low = differing & -differing
                differing ^= low
                support = pair_mask[low.bit_length() - 1]
                if pos & support == support:
                    return True
            return False
        differing = (pos & self._xor_out_mask) | (neg & self._xnor_out_mask)
        while differing:
            low = differing & -differing
            differing ^= low
            support = pair_mask[low.bit_length() - 1]
            if pos & support == support or neg & support == support:
                return True
        equal = (neg & self._xor_out_mask) | (pos & self._xnor_out_mask)
        while equal:
            low = equal & -equal
            equal ^= low
            support = pair_mask[low.bit_length() - 1]
            if pos & support and neg & support:
                return True
        return False

    # -- polynomial filtering ------------------------------------------------------

    def remove_vanishing(self, polynomial):
        """Remove vanishing monomials from a polynomial, counting removals.

        The inline sweep resolves already-tested masks with one cache
        probe each; the removals accumulate in
        :attr:`removed_count` (the ``#CVM`` statistic of Table III).  The
        rewriting pass sweeps every tail once before rewriting it; the
        substitution engine then keeps its working tail vanishing-free
        incrementally, testing only newly created terms.
        """
        relevant = self.relevant_mask
        if not polynomial.support_mask() & relevant:
            # No variable of this polynomial can contribute a contradiction:
            # skip the sweep outright (one AND instead of a probe per term).
            return polynomial
        # The sweep runs once per candidate-free tail of a rewriting
        # pass, so it is inlined — the call layers count at that rate.
        cache_get = self.cache.get
        test_new_mask = self._test_new_mask
        doomed = None
        probe_hits = 0
        for mask in polynomial.mask_view():
            if not mask & relevant:
                continue
            verdict = cache_get(mask)
            if verdict is None:
                verdict = test_new_mask(mask)
            else:
                probe_hits += 1
            if verdict:
                if doomed is None:
                    doomed = [mask]
                else:
                    doomed.append(mask)
        if probe_hits:
            self.cache_hits += probe_hits
        if not doomed:
            return polynomial
        terms = dict(polynomial.term_masks())
        for mask in doomed:
            del terms[mask]
        self.removed_count += len(doomed)
        return Polynomial._raw(terms)


def _union(table: dict[int, MustMasks], inputs: tuple[int, ...],
           value: bool, pos: int, neg: int) -> MustMasks:
    """``(pos, neg)`` ORed with the entries of ``inputs`` in ``table``.

    ``table`` is ``must1`` (``value`` ``True``) or ``must0``; a missing
    entry is the input's own literal of that polarity.
    """
    for child in inputs:
        entry = table.get(child)
        if entry is not None:
            pos |= entry[0]
            neg |= entry[1]
        elif value:
            pos |= 1 << child
        else:
            neg |= 1 << child
    return pos, neg
