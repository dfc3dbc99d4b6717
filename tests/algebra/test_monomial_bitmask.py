"""Property tests: the bitmask Monomial agrees with the old set semantics.

The seed implementation modelled a monomial as a ``frozenset`` of variable
indices; the packed-bitmask core must be observationally identical.  Every
algebraic operation is checked against its set-theoretic reference on
randomized inputs, and the mask ordering is checked against the descending
variable-tuple lex key it replaces.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.algebra.monomial import Monomial, bits_of, iter_bits, mask_of
from repro.algebra.ordering import DEGLEX, LEX

variable_sets = st.frozensets(st.integers(min_value=0, max_value=80),
                              max_size=12)
monomial_pairs = st.tuples(variable_sets, variable_sets)


@settings(max_examples=300, deadline=None)
@given(monomial_pairs)
def test_multiplication_is_set_union(pair):
    a, b = pair
    assert set(Monomial(a) * Monomial(b)) == a | b


@settings(max_examples=300, deadline=None)
@given(monomial_pairs)
def test_lcm_gcd_match_union_intersection(pair):
    a, b = pair
    assert set(Monomial(a).lcm(Monomial(b))) == a | b
    assert set(Monomial(a).gcd(Monomial(b))) == a & b


@settings(max_examples=300, deadline=None)
@given(monomial_pairs)
def test_divides_is_subset_and_division_is_difference(pair):
    a, b = pair
    ma, mb = Monomial(a), Monomial(b)
    assert ma.divides(mb) == a.issubset(b)
    if a.issubset(b):
        assert set(mb / ma) == b - a


@settings(max_examples=300, deadline=None)
@given(monomial_pairs)
def test_relatively_prime_is_disjointness(pair):
    a, b = pair
    assert Monomial(a).relatively_prime(Monomial(b)) == a.isdisjoint(b)


@settings(max_examples=300, deadline=None)
@given(variable_sets)
def test_set_protocol_matches_frozenset(variables):
    mono = Monomial(variables)
    assert len(mono) == len(variables)
    assert mono.degree == len(variables)
    assert list(mono) == sorted(variables)
    assert list(mono.variables()) == sorted(variables)
    assert mono.is_constant == (not variables)
    for var in variables:
        assert var in mono
    assert (max(variables) + 1 if variables else 0) not in mono
    # Equality and hash stay compatible with the historical representation.
    assert mono == frozenset(variables)
    assert hash(mono) == hash(frozenset(variables))


@settings(max_examples=300, deadline=None)
@given(variable_sets)
def test_mask_round_trip(variables):
    mono = Monomial(variables)
    assert Monomial.from_mask(mono.mask) == mono
    assert mask_of(variables) == mono.mask
    assert bits_of(mono.mask) == sorted(variables)
    assert list(iter_bits(mono.mask)) == sorted(variables)


@settings(max_examples=300, deadline=None)
@given(monomial_pairs)
def test_mask_order_realises_lex_order(pair):
    """Integer comparison of masks == lex comparison of descending tuples."""
    a, b = pair
    ma, mb = Monomial(a), Monomial(b)
    tuple_order = ma.sort_key() > mb.sort_key()
    assert (ma.mask > mb.mask) == tuple_order
    assert LEX.greater(ma, mb) == tuple_order
    assert LEX.mask_key(ma.mask) == ma.mask


@settings(max_examples=300, deadline=None)
@given(monomial_pairs)
def test_deglex_mask_key_matches_tuple_key(pair):
    a, b = pair
    ma, mb = Monomial(a), Monomial(b)
    reference = (ma.degree, ma.sort_key()) > (mb.degree, mb.sort_key())
    assert (DEGLEX.mask_key(ma.mask) > DEGLEX.mask_key(mb.mask)) == reference
    assert DEGLEX.greater(ma, mb) == reference


@settings(max_examples=200, deadline=None)
@given(variable_sets, st.integers(min_value=0, max_value=1),
       st.data())
def test_evaluation_matches_set_semantics(variables, default, data):
    assignment = {var: data.draw(st.integers(min_value=0, max_value=1))
                  for var in variables}
    mono = Monomial(variables)
    expected = 1 if all(assignment[v] for v in variables) else 0
    assert mono.evaluate(assignment) == expected


def test_union_mask_is_the_support_of_a_term_map():
    from repro.algebra.monomial import union_mask

    assert union_mask([]) == 0
    assert union_mask([0b101, 0b011, 0]) == 0b111
    assert union_mask({0b1000: 3, 0b0001: -1}) == 0b1001
