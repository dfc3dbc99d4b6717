"""Property-based tests (hypothesis) for the polynomial algebra.

The key soundness property of the whole verification flow is that the
polynomial operations agree with evaluation over the Boolean domain; these
tests check ring axioms and the substitution/evaluation commutation on
randomly generated polynomials.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.algebra.polynomial import Polynomial

NUM_VARS = 5

monomials = st.frozensets(st.integers(min_value=0, max_value=NUM_VARS - 1),
                          max_size=NUM_VARS)
coefficients = st.integers(min_value=-8, max_value=8)
polynomials = st.dictionaries(monomials, coefficients, max_size=8).map(
    lambda terms: Polynomial.from_terms(
        (coeff, mono) for mono, coeff in terms.items()))
assignments = st.lists(st.integers(min_value=0, max_value=1),
                       min_size=NUM_VARS, max_size=NUM_VARS)


@settings(max_examples=200, deadline=None)
@given(polynomials, polynomials, assignments)
def test_addition_commutes_with_evaluation(p, q, bits):
    assignment = dict(enumerate(bits))
    assert (p + q).evaluate(assignment) == p.evaluate(assignment) + q.evaluate(assignment)


@settings(max_examples=200, deadline=None)
@given(polynomials, polynomials, assignments)
def test_multiplication_commutes_with_evaluation(p, q, bits):
    assignment = dict(enumerate(bits))
    assert (p * q).evaluate(assignment) == p.evaluate(assignment) * q.evaluate(assignment)


@settings(max_examples=100, deadline=None)
@given(polynomials, polynomials, polynomials)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert p * (q + r) == p * q + p * r
    assert p - p == Polynomial.zero()


@settings(max_examples=150, deadline=None)
@given(polynomials, st.integers(min_value=0, max_value=NUM_VARS - 1),
       polynomials, assignments)
def test_substitution_commutes_with_evaluation(p, var, replacement, bits):
    """Substituting then evaluating equals evaluating with the replaced value.

    The replacement value must be Boolean for the idempotence reduction to be
    valid, so the replacement polynomial is evaluated modulo 2.
    """
    assignment = dict(enumerate(bits))
    replacement_value = replacement.evaluate(assignment)
    if replacement_value not in (0, 1):
        replacement_value %= 2
        replacement = Polynomial.constant(replacement_value)
    substituted = p.substitute(var, replacement)
    direct = dict(assignment)
    direct[var] = replacement_value
    assert substituted.evaluate(assignment) == p.evaluate(direct)


@settings(max_examples=150, deadline=None)
@given(polynomials, assignments)
def test_negation_and_scalar_multiplication(p, bits):
    assignment = dict(enumerate(bits))
    assert (-p).evaluate(assignment) == -p.evaluate(assignment)
    assert (3 * p).evaluate(assignment) == 3 * p.evaluate(assignment)


@settings(max_examples=100, deadline=None)
@given(polynomials)
def test_drop_coefficient_multiples_is_congruent(p):
    """Dropping multiples of m never changes the value modulo m."""
    modulus = 4
    reduced = p.drop_coefficient_multiples(modulus)
    assignment = {v: 1 for v in range(NUM_VARS)}
    assert (p.evaluate(assignment) - reduced.evaluate(assignment)) % modulus == 0


@settings(max_examples=200, deadline=None)
@given(polynomials, st.integers(min_value=0, max_value=NUM_VARS - 1),
       polynomials, st.sampled_from([2, 3, 4, 6, 8]))
def test_substitute_with_modulus_drops_multiples_in_one_pass(
        p, var, replacement, modulus):
    """On inputs free of multiples, the one-pass modulus step is the
    two-pass ``substitute`` + ``drop_coefficient_multiples``."""
    p = p.drop_coefficient_multiples(modulus)
    expected = p.substitute(var, replacement).drop_coefficient_multiples(
        modulus)
    assert p.substitute(var, replacement, modulus) == expected
