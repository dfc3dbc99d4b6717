"""Tests for the occurrence-indexed substitution engine.

The engine is the single substitution kernel behind GB reduction, the
rewriting passes and the vanishing-rule filtering, so these tests pin down:

* scan-mode / indexed-mode equivalence (the adaptive threshold must never
  change results, only costs),
* incremental index maintenance across create/merge/cancel/retire,
* the transactional growth guard in both modes,
* the vanishing and modulus filtering hooks,
* that the verification modules actually delegate to the engine (no
  surviving private substitution loops).
"""

from __future__ import annotations

import random
import re
from pathlib import Path

import pytest

from repro.algebra.polynomial import Polynomial
from repro.algebra.substitution import INDEX_THRESHOLD, SubstitutionEngine


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
                          replacement: list[tuple[int, int]]) -> dict[int, int]:
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


class _FakeOracle:
    """Vanishing oracle that dooms a fixed set of masks."""

    def __init__(self, doomed: set[int]) -> None:
        self.doomed = doomed
        self.removed_count = 0
        self.cache: dict[int, bool] = {}

    def is_vanishing_mask(self, mask: int) -> bool:
        verdict = mask in self.doomed
        self.cache[mask] = verdict
        return verdict


def test_scan_and_indexed_modes_agree_on_random_chains():
    rng = random.Random(7)
    for trial in range(25):
        terms = _random_terms(rng, 40, 10)
        replacements = {
            var: list(_random_terms(rng, 3, var).items()) or [(0, 1)]
            for var in range(3, 10)}
        order = sorted(replacements, reverse=True)

        expected = dict(terms)
        for var in order:
            expected = _reference_substitute(expected, var, replacements[var])

        # Force both modes by biasing the threshold through term count:
        # the scan engine gets the map as-is, the indexed engine is forced
        # by building the index up front via a large index_mask and enough
        # terms (we call the private builder directly to pin the mode).
        index_mask = sum(1 << v for v in range(3, 10))
        scan = SubstitutionEngine(terms, index_mask)
        indexed = SubstitutionEngine(terms, index_mask)
        indexed._build_index()
        assert indexed.indexed
        for var in order:
            scan.substitute(var, replacements[var], retire=True)
            indexed.substitute(var, replacements[var], retire=True)
        assert scan.terms == expected, f"scan mode diverged on trial {trial}"
        assert indexed.terms == expected, f"indexed mode diverged on trial {trial}"


def test_dense_populations_refuse_the_index_but_stay_correct():
    """A term map dense in candidate variables must stay in scan mode
    (index upkeep would dominate) and still produce exact results."""
    rng = random.Random(11)
    terms = _random_terms(rng, 200, 12, density=0.7)
    index_mask = sum(1 << v for v in range(4, 12))
    engine = SubstitutionEngine(terms, index_mask)
    assert not engine.indexed, "dense population must refuse the index"
    replacement = [(1 << 1, 1), (0, -1)]
    expected = _reference_substitute(dict(terms), 7, replacement)
    engine.substitute(7, replacement, retire=True)
    assert engine.terms == expected


def test_index_demotes_itself_when_upkeep_dominates():
    """An engaged index whose upkeep keeps losing to the scan must drop."""
    var = 0
    # Sparse at engagement: pairs {var, filler_i} with unindexed fillers.
    terms = {(1 << var) | (1 << (300 + i)): 1 for i in range(80)}
    index_mask = sum(1 << v for v in range(200))
    engine = SubstitutionEngine(terms, index_mask)
    assert engine.indexed
    # Every created term is dense in candidate variables, so the step's
    # index upkeep far exceeds the avoided scan and the debt spikes.
    dense_mask = sum(1 << v for v in range(100, 140))
    expected = _reference_substitute(dict(terms), var, [(dense_mask, 1)])
    engine.substitute(var, [(dense_mask, 1)], retire=True)
    assert not engine.indexed, "engine should have demoted to scan mode"
    assert engine.terms == expected


def test_engine_switches_to_indexed_mode_when_growing():
    # One substitution blows the map across the threshold.
    var = 60
    terms = {(1 << var) | (1 << i): 1 for i in range(8)}
    replacement = [(1 << (10 + j), 1) for j in range(2 * INDEX_THRESHOLD)]
    engine = SubstitutionEngine(terms, 1 << var)
    assert not engine.indexed
    affected = engine.substitute(var, replacement)
    assert affected == 8
    assert len(engine) == 8 * 2 * INDEX_THRESHOLD
    assert engine.indexed


def test_occurrence_index_tracks_create_merge_cancel():
    a, b, c = 0, 1, 2
    terms = {(1 << a) | (1 << b): 2, (1 << b): 1, (1 << c): 5}
    engine = SubstitutionEngine(terms, (1 << a) | (1 << b) | (1 << c))
    engine._build_index()
    assert engine.occurrences(a) == 1
    assert engine.occurrences(b) == 2
    # a := -b/2? integers only: substitute a := c so ab -> bc.
    engine.substitute(a, [(1 << c, 1)], retire=True)
    assert engine.terms == {(1 << b) | (1 << c): 2, (1 << b): 1, (1 << c): 5}
    assert engine.occurrences(b) == 2
    assert engine.occurrences(c) == 2
    assert engine.active_variables() == [b, c]
    # b := -c cancels the bc term against nothing; bc -> -c*c = -c (idempotent),
    # merging into the existing c term: 5 + (-2) = 3; b -> -c merges 1*(-1).
    engine.substitute(b, [(1 << c, -1)], retire=True)
    assert engine.terms == {(1 << c): 2}
    assert engine.active_variables() == [c]


def test_substituting_absent_variable_is_a_cheap_noop():
    engine = SubstitutionEngine({0b1: 1}, 0b110)
    assert engine.substitute(1, [(0, 1)]) == 0
    assert engine.substitute(2, [(0, 1)], retire=True) == 0
    assert engine.terms == {0b1: 1}
    assert engine.substitutions == 0


@pytest.mark.parametrize("force_index", [False, True])
def test_growth_limit_rolls_back_both_modes(force_index):
    var = 5
    terms = {(1 << var) | (1 << i): 1 for i in range(4)}
    terms[1 << 20] = 7
    replacement = [(1 << (30 + j), 1) for j in range(50)]
    engine = SubstitutionEngine(terms, 1 << var)
    if force_index:
        engine._build_index()
    before = dict(engine.terms)
    result = engine.substitute(var, replacement, growth_limit=10)
    assert result == -1
    assert engine.terms == before
    assert engine.rejected_substitutions == 1
    # The variable is still substitutable afterwards (smaller replacement).
    assert engine.substitute(var, [(0, 1)], growth_limit=10) == 4
    assert engine.peak_terms == len(engine)


@pytest.mark.parametrize("force_index", [False, True])
def test_vanishing_hook_removes_and_counts(force_index):
    x, d, a = 3, 4, 5
    doomed_mask = (1 << x) | (1 << d)
    oracle = _FakeOracle({doomed_mask})
    terms = {(1 << a) | (1 << x): 1, (1 << a): 2}
    engine = SubstitutionEngine(terms, 1 << a, vanishing=oracle)
    if force_index:
        engine._build_index()
    # a := d turns the first term into x*d (vanishing) and the second into d.
    engine.substitute(a, [(1 << d, 1)])
    assert engine.terms == {(1 << d): 2}
    assert oracle.removed_count == 1
    assert engine.vanishing_removed == 1


def test_prune_vanishing_sweeps_loaded_terms():
    oracle = _FakeOracle({0b11})
    engine = SubstitutionEngine({0b11: 4, 0b1: 1}, 0b11, vanishing=oracle)
    assert engine.prune_vanishing() == 1
    assert engine.terms == {0b1: 1}
    assert oracle.removed_count == 1


@pytest.mark.parametrize("force_index", [False, True])
def test_modulus_filter_drops_touched_multiples(force_index):
    var = 2
    terms = {(1 << var): 3, 0: 5}
    engine = SubstitutionEngine(terms, 1 << var, coefficient_modulus=8)
    if force_index:
        engine._build_index()
    # var := 1 merges 3 into ... nothing; make it hit 8: var := 1 adds 3 to
    # the constant 5 -> 8, a modulus multiple, which must vanish.
    engine.substitute(var, [(0, 1)])
    assert engine.terms == {}
    assert engine.modulus_removed == 1


def test_polynomial_substitute_delegates_to_engine():
    p = Polynomial.from_terms([(2, [0, 3]), (1, [1]), (4, [3])])
    replacement = Polynomial.from_terms([(1, [1]), (-1, [])])
    result = p.substitute(3, replacement)
    expected = _reference_substitute(
        dict(p.term_masks()), 3, list(replacement.term_masks()))
    assert dict(result.term_masks()) == expected


@pytest.mark.parametrize("size", [INDEX_THRESHOLD // 2, INDEX_THRESHOLD - 1,
                                  INDEX_THRESHOLD, 4 * INDEX_THRESHOLD])
def test_polynomial_substitute_matches_the_indexed_engine(size):
    """The one-shot scan path yields the indexed path's term map."""
    rng = random.Random(size)
    num_vars = 14
    for _ in range(8):
        terms: dict[int, int] = {}
        while len(terms) < size:
            terms[rng.getrandbits(num_vars)] = rng.choice([-3, -2, -1, 1, 2, 3])
        poly = Polynomial.from_term_masks(terms)
        for var in rng.sample(range(2, num_vars), 4):
            tail = _random_terms(rng, rng.randint(1, 4), var) or {0: 1}
            indexed = SubstitutionEngine(terms, 1 << var)
            indexed._build_index()
            assert indexed.indexed
            indexed.substitute(var, list(tail.items()))
            result = poly.substitute(var, Polynomial.from_term_masks(tail))
            assert dict(result.term_masks()) == indexed.terms


# ---------------------------------------------------------------------------
# substitute_batch: differential equivalence with the sequential kernel
# ---------------------------------------------------------------------------

def _random_replacements(rng: random.Random,
                         order: list[int]) -> list[tuple[int, list]]:
    """One replacement per variable, over strictly smaller variables."""
    items = []
    for var in order:
        tail = _random_terms(rng, rng.randint(1, 4), max(var, 1))
        items.append((var, list(tail.items()) or [(0, 1)]))
    return items


def _sequential_engine(terms, index_mask, items, *, force_index=False,
                       growth_limit=None, retire=True, vanishing=None,
                       modulus=None):
    engine = SubstitutionEngine(terms, index_mask, vanishing=vanishing,
                                coefficient_modulus=modulus)
    if force_index:
        engine._build_index()
    outcomes = []
    for var, replacement in items:
        affected = engine.substitute(var, replacement, growth_limit, retire)
        outcomes.append((affected, len(engine.terms)))
    return engine, outcomes


@pytest.mark.parametrize("force_index", [False, True])
@pytest.mark.parametrize("modulus", [None, 16])
def test_substitute_batch_matches_sequential_substitute(force_index, modulus):
    """Term maps, per-step results, and statistics are batch-identical."""
    rng = random.Random(42)
    for trial in range(20):
        terms = _random_terms(rng, 50, 14)
        order = sorted(rng.sample(range(4, 14), rng.randint(2, 7)),
                       reverse=True)
        items = _random_replacements(rng, order)
        index_mask = sum(1 << var for var in order)

        reference, expected = _sequential_engine(
            terms, index_mask, items, force_index=force_index,
            modulus=modulus)

        engine = SubstitutionEngine(terms, index_mask,
                                    coefficient_modulus=modulus)
        if force_index:
            engine._build_index()
        results, tripped = engine.substitute_batch(items, retire=True)
        assert tripped is None
        assert results == expected, f"per-step results differ on trial {trial}"
        assert engine.terms == reference.terms, f"term map differs on {trial}"
        assert engine.substitutions == reference.substitutions
        assert engine.affected_terms == reference.affected_terms
        assert engine.modulus_removed == reference.modulus_removed
        assert engine.peak_terms == reference.peak_terms
        # Remaining candidates were retired in both.
        assert engine.active_variables() == reference.active_variables()


@pytest.mark.parametrize("force_index", [False, True])
def test_substitute_batch_vanishing_matches_sequential(force_index):
    """Per-step created-term filtering and #CVM are batch-identical."""
    rng = random.Random(17)
    for trial in range(15):
        terms = _random_terms(rng, 40, 12)
        order = sorted(rng.sample(range(4, 12), rng.randint(2, 6)),
                       reverse=True)
        items = _random_replacements(rng, order)
        index_mask = sum(1 << var for var in order)
        doomed = {mask for mask in _random_terms(rng, 6, 10)}

        ref_oracle = _FakeOracle(set(doomed))
        reference, expected = _sequential_engine(
            terms, index_mask, items, force_index=force_index,
            vanishing=ref_oracle)

        oracle = _FakeOracle(set(doomed))
        engine = SubstitutionEngine(terms, index_mask, vanishing=oracle)
        if force_index:
            engine._build_index()
        results, tripped = engine.substitute_batch(items, retire=True)
        assert tripped is None
        assert results == expected
        assert engine.terms == reference.terms
        assert oracle.removed_count == ref_oracle.removed_count
        assert engine.vanishing_removed == reference.vanishing_removed


def test_substitute_batch_growth_guard_rolls_back_per_step():
    """Rejected steps report -1 and leave the map exactly as sequential."""
    rng = random.Random(5)
    for trial in range(15):
        terms = _random_terms(rng, 30, 12)
        order = sorted(rng.sample(range(4, 12), 5), reverse=True)
        items = []
        for var in order:
            if rng.random() < 0.4:
                # A wide tail that will trip the growth guard.
                replacement = [(1 << (20 + j), 1) for j in range(40)]
            else:
                replacement = list(
                    _random_terms(rng, 2, max(var, 1)).items()) or [(0, 1)]
            items.append((var, replacement))

        reference, expected = _sequential_engine(
            terms, sum(1 << v for v in order), items, growth_limit=8)
        engine = SubstitutionEngine(terms, sum(1 << v for v in order))
        results, tripped = engine.substitute_batch(items, growth_limit=8,
                                                   retire=True)
        assert tripped is None
        assert results == expected
        assert engine.terms == reference.terms
        assert engine.rejected_substitutions == reference.rejected_substitutions
        assert any(affected < 0 for affected, _ in results) or trial


def test_substitute_batch_term_limit_trips_like_sequential_budget():
    """The batch stops right after the step that exceeds the term limit."""
    var_a, var_b = 10, 11
    terms = {(1 << var_a) | 1: 1, (1 << var_b) | 2: 1}
    wide = [(1 << (20 + j), 1) for j in range(30)]
    items = [(var_a, wide), (var_b, wide)]
    engine = SubstitutionEngine(terms, (1 << var_a) | (1 << var_b))
    results, tripped = engine.substitute_batch(items, retire=True,
                                               term_limit=10)
    assert tripped == "terms"
    assert len(results) == 1 and results[0][0] == 1
    assert results[0][1] > 10
    # The second variable was never processed.
    assert engine.contains(var_b)


def test_substitute_batch_mixed_mode_transition():
    """A batch that grows the map across the index threshold stays exact."""
    rng = random.Random(23)
    terms = _random_terms(rng, 20, 10)
    order = sorted(rng.sample(range(3, 10), 5), reverse=True)
    items = []
    for var in order:
        replacement = [(1 << (12 + j), 1) for j in range(INDEX_THRESHOLD // 2)]
        items.append((var, replacement))
    index_mask = sum(1 << v for v in order)

    reference, expected = _sequential_engine(terms, index_mask, items)
    engine = SubstitutionEngine(terms, index_mask)
    results, tripped = engine.substitute_batch(items, retire=True)
    assert tripped is None
    assert results == expected
    assert engine.terms == reference.terms


def test_no_private_substitution_loops_outside_the_engine():
    """reduction/rewriting/vanishing must not re-implement the kernel.

    The kernel's signature move is merging an expanded product back into a
    term dict (``rest | rep_mask`` style).  Outside substitution.py, the
    verification modules must not contain it.
    """
    src = Path(__file__).resolve().parents[2] / "src" / "repro"
    pattern = re.compile(r"rest\s*\|\s*rep|rep_mask|substitute_term_masks")
    for module in ("verification/reduction.py", "verification/rewriting.py",
                   "verification/vanishing.py", "algebra/polynomial.py"):
        text = (src / module).read_text(encoding="utf-8")
        assert not pattern.search(text), (
            f"{module} contains a private substitution loop")


def test_build_index_commits_support_for_candidate_superset():
    """Regression: an indexed reset must expose the loaded map's support.

    ``candidate_superset`` (and the load-time vanishing sweep) read
    ``_support`` in indexed mode too; a stale mask would hide candidates
    from ``gb_rewrite`` and drop their polynomials without inlining them.
    """
    var = 70
    small = {0b1: 1}
    big = {(1 << var) | (1 << i): 1 for i in range(2 * INDEX_THRESHOLD)}
    engine = SubstitutionEngine(small, 1 << var)
    assert engine.candidate_superset() == 0
    engine.reset(big, 1 << var)
    assert engine.indexed
    assert engine.candidate_superset() == 1 << var
    results, tripped = engine.substitute_batch([(var, [(0, 1)])], retire=True)
    assert tripped is None
    assert results[0][0] == 2 * INDEX_THRESHOLD
