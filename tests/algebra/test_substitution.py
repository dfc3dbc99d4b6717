"""Tests for the batch substitution kernel.

The engine's one kernel, :meth:`SubstitutionEngine.substitute_batch`, runs
every rewriting and reduction step, so every case here is checked against
an independent reference: a step-by-step run of the out-of-place
:func:`_reference_substitute` that applies the growth rule, vanishing on
created terms, the power-of-two modulus and both budget trips itself.
Where the terms containing a variable come from (partition lists or a
scan) must never change a result, only costs; the mode tests observe the
source by wrapping ``_partition`` and check the results all the same.
"""

from __future__ import annotations

import random
import re
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.algebra.polynomial import Polynomial
from repro.algebra.substitution import (
    PARTITION_MIN_ITEMS,
    SubstitutionEngine,
)


def _random_terms(rng: random.Random, num_terms: int, num_vars: int,
                  density: float = 0.2) -> dict[int, int]:
    terms: dict[int, int] = {}
    for _ in range(num_terms):
        mask = 0
        for var in range(num_vars):
            if rng.random() < density:
                mask |= 1 << var
        coeff = rng.choice([-3, -2, -1, 1, 2, 3])
        new = terms.get(mask, 0) + coeff
        if new:
            terms[mask] = new
        else:
            terms.pop(mask, None)
    return terms


def _reference_substitute(terms: dict[int, int], var: int,
                          replacement) -> dict[int, int]:
    """Independent out-of-place model of a single substitution."""
    bit = 1 << var
    acc: dict[int, int] = {}
    for mask, coeff in terms.items():
        if mask & bit:
            for rep_mask, rep_coeff in replacement:
                prod = (mask & ~bit) | rep_mask
                new = acc.get(prod, 0) + coeff * rep_coeff
                if new:
                    acc[prod] = new
                else:
                    del acc[prod]
        else:
            new = acc.get(mask, 0) + coeff
            if new:
                acc[mask] = new
            else:
                del acc[mask]
    return acc


class _Reference:
    """Step-by-step model of ``substitute_batch`` on top of the reference.

    It expects what the verification flow guarantees: the loaded map holds
    no doomed mask (the caller's sweep) and no modulus multiple (the
    reduction drops them up front), so every doomed or multiple term after
    a step is one the step created or touched.
    """

    def __init__(self, terms, *, doomed=frozenset(), modulus=None):
        self.terms = dict(terms)
        self.doomed = doomed
        self.modulus = modulus
        self.substitutions = 0
        self.affected_terms = 0
        self.modulus_removed = 0
        self.rejected_substitutions = 0
        self.vanishing_removed = 0
        self.batches = 0
        self.batch_steps = 0

    def substitute_batch(self, items, growth_limit=None, term_limit=None,
                         deadline=None):
        self.batches += 1
        results = []
        tripped = None
        for var, tail in items:
            self.batch_steps += 1
            terms = self.terms
            affected = sum(1 for mask in terms if mask >> var & 1)
            if not affected:
                results.append((0, len(terms)))
                continue
            after = _reference_substitute(terms, var, tail)
            vanished = [mask for mask in after
                        if _vanishes(mask, self.doomed)]
            for mask in vanished:
                del after[mask]
            multiples = ([mask for mask, coeff in after.items()
                          if coeff % self.modulus == 0]
                         if self.modulus is not None else [])
            for mask in multiples:
                del after[mask]
            if growth_limit is not None and len(after) > max(
                    growth_limit, 4 * len(terms)):
                self.rejected_substitutions += 1
                results.append((-1, len(terms)))
                if deadline is not None and time.perf_counter() > deadline:
                    tripped = "deadline"
                    break
                continue
            self.terms = after
            self.substitutions += 1
            self.affected_terms += affected
            self.vanishing_removed += len(vanished)
            self.modulus_removed += len(multiples)
            results.append((affected, len(after)))
            if term_limit is not None and len(after) > term_limit:
                tripped = "terms"
                break
            if deadline is not None and time.perf_counter() > deadline:
                tripped = "deadline"
                break
        return results, tripped


def _vanishes(mask: int, doomed) -> bool:
    """A mask vanishes when it is a multiple of a doomed mask (the rule of
    :class:`repro.verification.vanishing.VanishingRules` is monotone too)."""
    return any(mask & factor == factor for factor in doomed)


class _FakeOracle:
    """Vanishing oracle that dooms the multiples of a set of masks."""

    def __init__(self, doomed: set[int]) -> None:
        self.doomed = doomed
        self.removed_count = 0

    def is_vanishing_mask(self, mask: int) -> bool:
        return _vanishes(mask, self.doomed)


def _run_both(terms, items, *, doomed=None, modulus=None, **budgets):
    """Run the engine and the reference; assert every observable agrees."""
    oracle = _FakeOracle(set(doomed)) if doomed is not None else None
    engine = SubstitutionEngine(terms, sum(1 << var for var, _ in items),
                                vanishing=oracle,
                                coefficient_modulus=modulus)
    reference = _Reference(terms, doomed=frozenset(doomed or ()),
                           modulus=modulus)
    outcome = engine.substitute_batch(items, **budgets)
    assert outcome == reference.substitute_batch(items, **budgets)
    assert engine.terms == reference.terms
    for counter in ("substitutions", "affected_terms", "modulus_removed",
                    "rejected_substitutions", "batches", "batch_steps"):
        assert getattr(engine, counter) == getattr(reference, counter), counter
    if oracle is not None:
        assert oracle.removed_count == reference.vanishing_removed
    return engine, outcome


def _tails(rng: random.Random, order: list[int]) -> list[tuple[int, list]]:
    """One tail per variable, over strictly lower variables."""
    items = []
    for var in order:
        tail = _random_terms(rng, rng.randint(1, 4), var)
        items.append((var, list(tail.items()) or [(0, 1)]))
    return items


@pytest.fixture
def sources(monkeypatch):
    """Record where each step's terms come from.

    Every ``_partition`` call is logged as ``(map size, built)``, and the
    lists it builds log the variable of every step they serve; a step that
    affects terms without a list entry was served by a scan.
    """
    log = {"partitions": [], "listed": []}
    original = SubstitutionEngine._partition

    class RecordingLists(dict):
        def pop(self, key, *default):
            log["listed"].append(key)
            return super().pop(key, *default)

    def recording(self, batch_mask):
        lists = original(self, batch_mask)
        log["partitions"].append((len(self.terms), lists is not None))
        return None if lists is None else RecordingLists(lists)

    monkeypatch.setattr(SubstitutionEngine, "_partition", recording)
    return log


# ---------------------------------------------------------------------------
# results against the reference
# ---------------------------------------------------------------------------

def test_random_chains_match_the_reference():
    rng = random.Random(7)
    for _ in range(25):
        terms = _random_terms(rng, 40, 10)
        items = _tails(rng, list(range(9, 2, -1)))
        _run_both(terms, items)


def test_sparse_map_partitions_and_matches_the_reference(sources):
    rng = random.Random(3)
    batch = list(range(19, 13, -1))
    # Each term carries at most one batch variable over filler variables.
    terms = {}
    for i in range(200):
        mask = rng.getrandbits(12) | 1 << (30 + i % 7)
        if i % 2:
            mask |= 1 << rng.choice(batch)
        terms[mask] = rng.choice([-2, -1, 1, 2])
    items = _tails(rng, batch)
    _run_both(terms, items)
    assert sources["partitions"] == [(len(terms), True)]
    assert sources["listed"] == batch


def test_dense_map_scans_and_matches_the_reference(sources):
    rng = random.Random(11)
    terms = _random_terms(rng, 200, 12, density=0.7)
    items = _tails(rng, list(range(11, 3, -1)))
    _run_both(terms, items)
    assert sources["partitions"] == [(len(terms), False)]
    assert sources["listed"] == []


@pytest.mark.parametrize("count", range(1, PARTITION_MIN_ITEMS))
def test_one_or_two_items_always_scan(sources, count):
    rng = random.Random(count)
    terms = _random_terms(rng, 60, 12)
    items = _tails(rng, [11, 10][:count])
    _run_both(terms, items)
    assert sources["partitions"] == []


def test_debt_meter_falls_back_to_scans(sources):
    """Created terms dense in pending batch variables demote the batch."""
    batch = list(range(20, 10, -1))
    terms = {1 << var | 1 << (40 + var): 1 for var in batch}
    pending = sum(1 << var for var in batch[1:])
    # The first tail creates terms carrying every pending batch variable,
    # so the list upkeep dwarfs the avoided scan; the later tails are
    # constants, so the map never grows enough to partition again.
    first = [(pending | 1 << (60 + j), 1) for j in range(16)]
    items = [(batch[0], first)] + [(var, [(0, 1)]) for var in batch[1:]]
    _run_both(terms, items)
    assert sources["partitions"] == [(len(terms), True)]
    assert sources["listed"] == batch[:1]


def test_refused_batch_probes_again_after_fourfold_growth(sources):
    """A refusal is not re-probed until the map has grown four times."""
    batch = list(range(12, 4, -1))
    dense = sum(1 << var for var in batch)
    terms = {dense | 1 << (20 + i): 1 for i in range(4)}
    # The first tail multiplies the 4 terms by 16 filler terms (64 terms,
    # still dense: the second probe refuses too); the constant tails after
    # it never grow the map to the next floor of 256.
    items = [(batch[0], [(1 << (30 + j), 1) for j in range(16)])]
    items += [(var, [(0, 1)]) for var in batch[1:]]
    _run_both(terms, items)
    assert sources["partitions"] == [(4, False), (64, False)]
    assert sources["listed"] == []


def test_scan_batch_partitions_once_the_grown_map_is_sparse(sources):
    """After a refusal, growth into a sparse population partitions."""
    batch = list(range(12, 4, -1))
    dense = sum(1 << var for var in batch)
    # One term carries all 8 batch variables, three carry only the first:
    # 11 batch bits over 4 terms is too dense.
    terms = {dense | 1 << 20: 1}
    terms.update({1 << batch[0] | 1 << (40 + i): 1 for i in range(3)})
    # Substituting the first variable by 40 filler terms yields 40 terms
    # with 7 batch bits and 120 with none: 1.75 bits per term.
    items = [(batch[0], [(1 << (60 + j), 1) for j in range(40)])]
    items += [(var, [(0, 1)]) for var in batch[1:]]
    _run_both(terms, items)
    assert sources["partitions"] == [(4, False), (160, True)]
    # Lists serve the steps from the second on (until the dead entries the
    # constant tails leave behind push the meter into a fallback).
    assert sources["listed"][:3] == batch[1:4]


def test_recreated_key_is_consumed_once(sources):
    """A key created, cancelled and recreated is listed twice, popped once."""
    x, y, z = 9, 8, 7
    filler = 1 << 20
    key = 1 << z | filler
    # x := key creates ``key``; y := -z turns ``y * filler`` into ``-key``
    # and cancels it; the third item creates it again, so z's list names
    # ``key`` twice.
    terms = {1 << x: 1, 1 << y | filler: 1, 1 << 6: 1}
    items = [(x, [(key, 1)]), (y, [(1 << z, -1)]),
             (6, [(key, 1), (1 << 3, 1)]), (z, [(1 << 2, 1)])]
    engine, (results, _) = _run_both(terms, items)
    assert sources["partitions"] == [(3, True)]
    assert results[-1] == (1, 2)
    assert engine.terms == {filler | 1 << 2: 1, 1 << 3: 1}


# ---------------------------------------------------------------------------
# the filters, the growth guard and the budgets
# ---------------------------------------------------------------------------

def test_absent_variable_is_a_cheap_noop():
    engine, (results, tripped) = _run_both({0b1: 1}, [(2, [(0, 1)])])
    assert results == [(0, 1)] and tripped is None
    assert engine.terms == {0b1: 1}
    assert engine.substitutions == 0


def test_stale_support_bit_finds_no_terms():
    """A cancelled variable stays in the support superset; its step is a no-op."""
    a, b = 5, 4
    # a := -b cancels the only b term, leaving b's bit stale.
    terms = {1 << a: 1, 1 << b: 1, 1: 3}
    engine, (results, _) = _run_both(terms, [(a, [(1 << b, -1)]),
                                             (b, [(1 << 1, 1)])])
    assert results == [(1, 1), (0, 1)]
    assert engine.terms == {1: 3}


@pytest.mark.parametrize("extra_items", [0, PARTITION_MIN_ITEMS])
def test_growth_limit_rejects_and_restores(sources, extra_items):
    var = 15
    terms = {1 << var | 1 << i: 1 for i in range(4)}
    terms[1 << 20] = 7
    wide = [(1 << (30 + j), 1) for j in range(50)]
    items = [(var, wide)] + [(10 - i, [(0, 1)]) for i in range(extra_items)]
    engine, (results, _) = _run_both(terms, items, growth_limit=10)
    assert results[0] == (-1, 5)
    assert engine.rejected_substitutions == 1
    assert engine.terms == terms
    assert bool(sources["partitions"]) == bool(extra_items)


def test_rejected_variable_leaves_the_candidates():
    var = 5
    terms = {1 << var | 1 << i: 1 for i in range(4)}
    engine = SubstitutionEngine(terms, 1 << var)
    assert engine.candidate_superset() == 1 << var
    results, _ = engine.substitute_batch(
        [(var, [(1 << (30 + j), 1) for j in range(50)])], growth_limit=10)
    assert results == [(-1, 4)]
    assert engine.candidate_superset() == 0
    assert engine.terms == terms


@pytest.mark.parametrize("extra_items", [0, PARTITION_MIN_ITEMS])
def test_vanishing_removes_created_terms(extra_items):
    x, d, a = 3, 4, 15
    doomed = {1 << x | 1 << d}
    terms = {1 << a | 1 << x: 1, 1 << a: 2}
    items = [(a, [(1 << d, 1)])] + [(10 - i, [(0, 1)])
                                     for i in range(extra_items)]
    engine, _ = _run_both(terms, items, doomed=doomed)
    assert engine.terms == {1 << d: 2}
    assert engine.vanishing.removed_count == 1


def test_rejected_step_counts_no_vanishing():
    a = 6
    terms = {1 << a | 1 << i: 1 for i in range(3)}
    wide = [(1 << (10 + j), 1) for j in range(20)]
    doomed = {1 << 10 | 1 << 0}
    engine, (results, _) = _run_both(terms, [(a, wide)], doomed=doomed,
                                     growth_limit=4)
    assert results == [(-1, 3)]
    assert engine.vanishing.removed_count == 0


@pytest.mark.parametrize("extra_items", [0, PARTITION_MIN_ITEMS])
def test_modulus_drops_touched_multiples(extra_items):
    var = 12
    terms = {1 << var: 3, 0: 5, 1 << 1: 6}
    # var := 1 adds 3 to the constant 5 -> 8, a modulus multiple; the
    # untouched 6 stays.
    items = [(var, [(0, 1)])] + [(10 - i, [(0, 1)])
                                 for i in range(extra_items)]
    engine, _ = _run_both(terms, items, modulus=8)
    assert engine.terms == {1 << 1: 6}
    assert engine.modulus_removed == 1


@pytest.mark.parametrize("modulus", [6, 12, 0, -8])
def test_modulus_must_be_a_positive_power_of_two(modulus):
    with pytest.raises(ValueError, match="power of two"):
        SubstitutionEngine(coefficient_modulus=modulus)


@pytest.mark.parametrize("extra_items", [0, PARTITION_MIN_ITEMS])
def test_term_limit_trips_right_after_the_step(extra_items):
    var_a, var_b = 20, 19
    terms = {1 << var_a | 1: 1, 1 << var_b | 2: 1}
    wide = [(1 << (30 + j), 1) for j in range(30)]
    items = [(var_a, wide), (var_b, wide)] + [
        (10 - i, [(0, 1)]) for i in range(extra_items)]
    engine, (results, tripped) = _run_both(terms, items, term_limit=10)
    assert tripped == "terms"
    assert results == [(1, 31)]
    # The unprocessed variables stay candidates.
    assert engine.candidate_superset() & 1 << var_b


def test_deadline_trips_after_the_first_affecting_step():
    terms = {1 << 9: 1, 1 << 8: 1}
    items = [(10, [(0, 1)]), (9, [(1 << 1, 1)]), (8, [(1 << 2, 1)])]
    engine, (results, tripped) = _run_both(terms, items,
                                           deadline=time.perf_counter() - 1)
    assert tripped == "deadline"
    assert results == [(0, 2), (1, 2)]


@pytest.mark.parametrize("extra_items", [0, PARTITION_MIN_ITEMS])
def test_deadline_trips_after_a_rejected_step(extra_items):
    """A run of steps the growth guard rejects still reads the clock."""
    terms = {1 << var | 1 << i: 1 for var in (20, 19, 18) for i in range(3)}
    wide = [(1 << (30 + j), 1) for j in range(20)]
    items = [(20, wide), (19, wide), (18, wide)] + [
        (10 - i, [(0, 1)]) for i in range(extra_items)]
    engine, (results, tripped) = _run_both(terms, items, growth_limit=4,
                                           deadline=time.perf_counter() - 1)
    assert tripped == "deadline"
    assert results == [(-1, 9)]
    assert engine.rejected_substitutions == 1
    assert engine.terms == terms


def test_counters_accumulate_across_resets():
    engine = SubstitutionEngine({1 << 5 | 1: 2}, 1 << 5)
    engine.substitute_batch([(5, [(1 << 2, 1), (0, 1)])])
    engine.reset({1 << 4: 1, 1 << 4 | 1 << 3: 1}, 1 << 4)
    engine.substitute_batch([(4, [(1 << 1, -1)])])
    assert (engine.substitutions, engine.affected_terms) == (2, 3)
    assert (engine.batches, engine.batch_steps) == (2, 2)
    assert engine.terms == {1 << 1: -1, 1 << 3 | 1 << 1: -1}


def test_candidate_superset_drains_as_batches_retire():
    terms = {1 << 7 | 1 << 6: 1, 1 << 5: 2}
    engine = SubstitutionEngine(terms, 1 << 7 | 1 << 6 | 1 << 5)
    assert engine.candidate_superset() == 1 << 7 | 1 << 6 | 1 << 5
    engine.substitute_batch([(7, [(1 << 1, 1)]), (6, [(0, 1)])])
    assert engine.candidate_superset() == 1 << 5
    engine.substitute_batch([(5, [(1 << 2, 3)])])
    assert engine.candidate_superset() == 0
    assert engine.terms == {1 << 1: 1, 1 << 2: 6}


# Uniform 12-bit masks are dense in batch variables (scans); masks of at
# most three variables are sparse (partitions).
masks = st.one_of(
    st.integers(min_value=0, max_value=(1 << 12) - 1),
    st.lists(st.integers(min_value=0, max_value=11), max_size=3).map(
        lambda variables: sum({1 << var for var in variables})))
coefficients = st.sampled_from([-3, -2, -1, 1, 2, 3, 5, 8])


@st.composite
def batch_cases(draw):
    """A term map, a descending batch with tails over lower variables, and
    optional growth limit, modulus, oracle and term limit."""
    terms = draw(st.dictionaries(masks, coefficients, max_size=40))
    order = sorted(draw(st.sets(st.integers(min_value=1, max_value=11),
                                max_size=7)), reverse=True)
    items = []
    for var in order:
        tail = draw(st.dictionaries(
            st.integers(min_value=0, max_value=(1 << var) - 1), coefficients,
            min_size=1, max_size=12))
        items.append((var, list(tail.items())))
    modulus = draw(st.sampled_from([None, 2, 4, 16]))
    if modulus is not None:
        terms = {mask: coeff for mask, coeff in terms.items()
                 if coeff % modulus}
    # Pairs of variables, as the XOR-AND rule dooms them; the constant
    # monomial never vanishes.
    pairs = st.sets(st.integers(min_value=0, max_value=11), min_size=2,
                    max_size=2).map(lambda pair: sum(1 << var for var in pair))
    doomed = draw(st.none() | st.sets(pairs, max_size=4))
    if doomed is not None:
        terms = {mask: coeff for mask, coeff in terms.items()
                 if not _vanishes(mask, doomed)}
    budgets = {
        "growth_limit": draw(st.none() | st.integers(1, 8)),
        "term_limit": draw(st.none() | st.integers(0, 30)),
    }
    return terms, items, doomed, modulus, budgets


@settings(max_examples=300, deadline=None)
@given(batch_cases())
def test_property_batch_matches_the_reference(case):
    terms, items, doomed, modulus, budgets = case
    _run_both(terms, items, doomed=doomed, modulus=modulus, **budgets)


# ---------------------------------------------------------------------------
# Polynomial.substitute: the checker's own loop
# ---------------------------------------------------------------------------

def test_polynomial_substitute_matches_the_reference():
    p = Polynomial.from_terms([(2, [0, 3]), (1, [1]), (4, [3])])
    replacement = Polynomial.from_terms([(1, [1]), (-1, [])])
    result = p.substitute(3, replacement)
    expected = _reference_substitute(
        dict(p.term_masks()), 3, list(replacement.term_masks()))
    assert dict(result.term_masks()) == expected


@pytest.mark.parametrize("size", [8, 63, 64, 256])
def test_polynomial_substitute_matches_the_engine(size):
    """The checker's one-shot loop and the batch kernel are independent
    implementations of the same steps; they must agree on every map."""
    rng = random.Random(size)
    num_vars = 14
    for _ in range(8):
        terms: dict[int, int] = {}
        while len(terms) < size:
            terms[rng.getrandbits(num_vars)] = rng.choice([-3, -2, -1, 1, 2, 3])
        expected = Polynomial.from_term_masks(terms)
        items = _tails(rng, sorted(rng.sample(range(2, num_vars), 4),
                                   reverse=True))
        for var, tail in items:
            expected = expected.substitute(var, Polynomial.from_term_masks(
                dict(tail)))
        engine = SubstitutionEngine(terms)
        engine.substitute_batch(items)
        assert engine.terms == dict(expected.term_masks())


def test_no_private_substitution_loops_outside_the_engine():
    """reduction/rewriting/vanishing must not re-implement the kernel.

    The kernel's signature move is merging an expanded product back into a
    term dict (``rest | rep_mask`` style).  Outside substitution.py, the
    verification modules must not contain it.  ``Polynomial.substitute``
    holds the certificate checker's own loop on purpose, independent of
    the engine, so ``algebra/polynomial.py`` is not listed.
    """
    src = Path(__file__).resolve().parents[2] / "src" / "repro"
    pattern = re.compile(r"rest\s*\|\s*rep|rep_mask|substitute_term_masks")
    for module in ("verification/reduction.py", "verification/rewriting.py",
                   "verification/vanishing.py"):
        text = (src / module).read_text(encoding="utf-8")
        assert not pattern.search(text), (
            f"{module} contains a private substitution loop")
