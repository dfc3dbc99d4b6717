"""Sparse multilinear polynomials with integer coefficients.

A :class:`Polynomial` is a finite sum of terms ``c * M`` where ``c`` is a
Python integer (arbitrary precision, as needed for the ``2^(2n)`` weights of
multiplier specifications) and ``M`` is a :class:`~repro.algebra.monomial.Monomial`
over Boolean variables.  All operations keep the representation multilinear,
i.e. the Boolean ideal ``<x^2 - x>`` is applied implicitly.

Internally the term map is a ``dict[int, int]`` from packed monomial
bitmasks (see :mod:`repro.algebra.monomial`) to coefficients.  The two hot
operations of the verification flow — term-wise addition and single-variable
substitution — are pure integer-key dict merges with bitwise monomial
arithmetic, with no intermediate set or Monomial objects.  The public API
still accepts and returns :class:`Monomial` instances; the raw-mask view is
available through :meth:`term_masks` / :meth:`support_mask` for callers that
want to stay on the fast path (e.g. the vanishing-monomial rules).
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Mapping

from repro.algebra.monomial import Monomial, iter_bits, mask_of
from repro.algebra.ordering import MonomialOrder, LEX
from repro.errors import AlgebraError


class Polynomial:
    """An immutable sparse polynomial ``c1*M1 + ... + ct*Mt``.

    Terms with zero coefficient are never stored.  The class is designed for
    the two hot operations of the verification flow: term-wise addition and
    substitution of a single variable by another polynomial.
    """

    __slots__ = ("_terms", "_support")

    def __init__(self, terms: Mapping[Monomial, int] | None = None) -> None:
        clean: dict[int, int] = {}
        if terms:
            for mono, coeff in terms.items():
                if coeff:
                    mask = mask_of(mono)
                    new = clean.get(mask, 0) + coeff
                    if new:
                        clean[mask] = new
                    else:
                        clean.pop(mask, None)
        self._terms = clean
        self._support = None

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls) -> "Polynomial":
        """The zero polynomial."""
        return cls()

    @classmethod
    def constant(cls, value: int) -> "Polynomial":
        """The constant polynomial ``value``."""
        if value == 0:
            return cls._raw({})
        return cls._raw({0: value})

    @classmethod
    def variable(cls, var: int, coefficient: int = 1) -> "Polynomial":
        """The polynomial ``coefficient * x_var``."""
        if coefficient == 0:
            return cls._raw({})
        return cls._raw({1 << var: coefficient})

    @classmethod
    def term(cls, coefficient: int, variables: Iterable[int]) -> "Polynomial":
        """A single term ``coefficient * prod(variables)``."""
        if coefficient == 0:
            return cls._raw({})
        return cls._raw({mask_of(variables): coefficient})

    @classmethod
    def from_terms(cls, terms: Iterable[tuple[int, Iterable[int]]]) -> "Polynomial":
        """Build from ``(coefficient, variables)`` pairs, summing duplicates."""
        acc: dict[int, int] = {}
        for coeff, variables in terms:
            mask = mask_of(variables)
            acc[mask] = acc.get(mask, 0) + coeff
        return cls._raw({m: c for m, c in acc.items() if c})

    @classmethod
    def from_term_masks(cls, terms: Mapping[int, int]) -> "Polynomial":
        """Build from a mask-keyed term map (zero coefficients are dropped)."""
        if any(not coeff for coeff in terms.values()):
            terms = {m: c for m, c in terms.items() if c}
        return cls._raw(dict(terms))

    # -- basic queries --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        """Return ``True`` if this is the zero polynomial."""
        return not self._terms

    @property
    def is_constant(self) -> bool:
        """Return ``True`` if the polynomial has no variables."""
        return all(mask == 0 for mask in self._terms)

    @property
    def num_terms(self) -> int:
        """Number of monomials with non-zero coefficient (``#M`` per poly)."""
        return len(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def terms(self) -> Iterator[tuple[Monomial, int]]:
        """Iterate over ``(monomial, coefficient)`` pairs (unordered)."""
        return ((Monomial.from_mask(mask), coeff)
                for mask, coeff in self._terms.items())

    def term_masks(self) -> Iterator[tuple[int, int]]:
        """Iterate over raw ``(bitmask, coefficient)`` pairs (unordered)."""
        return iter(self._terms.items())

    def masks(self) -> Iterator[int]:
        """Iterate over the raw monomial bitmasks (unordered)."""
        return iter(self._terms)

    def mask_view(self):
        """Set-like view of the raw monomial bitmasks (supports set algebra)."""
        return self._terms.keys()

    def term_view(self):
        """Re-iterable ``(bitmask, coefficient)`` view of the term map.

        Unlike :meth:`term_masks` (a one-shot iterator) the view can be
        walked repeatedly, so it can feed substitution kernels that expand
        a replacement once per affected term without a defensive copy.
        """
        return self._terms.items()

    def monomials(self) -> Iterator[Monomial]:
        """Iterate over the monomials (unordered)."""
        return (Monomial.from_mask(mask) for mask in self._terms)

    def coefficient(self, monomial: Monomial | Iterable[int]) -> int:
        """Coefficient of ``monomial`` (0 if absent)."""
        return self._terms.get(mask_of(monomial), 0)

    def constant_term(self) -> int:
        """Coefficient of the constant monomial ``1``."""
        return self._terms.get(0, 0)

    def support_mask(self) -> int:
        """Bitmask of all variables appearing in the polynomial (cached)."""
        support = self._support
        if support is None:
            support = 0
            for mask in self._terms:
                support |= mask
            self._support = support
        return support

    def support(self) -> set[int]:
        """Set of variables appearing in the polynomial (``Vars(p)``)."""
        return set(iter_bits(self.support_mask()))

    def max_monomial_degree(self) -> int:
        """Largest number of variables in any monomial (``#VM`` statistic)."""
        if not self._terms:
            return 0
        return max(mask.bit_count() for mask in self._terms)

    def contains_variable(self, var: int) -> bool:
        """Return ``True`` if ``var`` occurs in some monomial."""
        return (self.support_mask() >> var) & 1 == 1

    # -- leading term ---------------------------------------------------------

    def leading_monomial(self, order: MonomialOrder = LEX) -> Monomial:
        """``lm(p)`` — the largest monomial w.r.t. ``order``."""
        if not self._terms:
            raise AlgebraError("the zero polynomial has no leading monomial")
        return Monomial.from_mask(order.max_mask(self._terms.keys()))

    def leading_coefficient(self, order: MonomialOrder = LEX) -> int:
        """``lc(p)`` — the coefficient of the leading monomial."""
        return self._terms[self.leading_monomial(order).mask]

    def leading_term(self, order: MonomialOrder = LEX) -> tuple[Monomial, int]:
        """``lt(p)`` as a ``(monomial, coefficient)`` pair."""
        mono = self.leading_monomial(order)
        return mono, self._terms[mono.mask]

    # -- arithmetic -----------------------------------------------------------

    def __neg__(self) -> "Polynomial":
        return Polynomial._raw({m: -c for m, c in self._terms.items()})

    def __add__(self, other: "Polynomial | int") -> "Polynomial":
        if isinstance(other, int):
            other = Polynomial.constant(other)
        if len(self._terms) < len(other._terms):
            small, big = self._terms, dict(other._terms)
        else:
            small, big = other._terms, dict(self._terms)
        for mask, coeff in small.items():
            new = big.get(mask, 0) + coeff
            if new:
                big[mask] = new
            else:
                big.pop(mask, None)
        return Polynomial._raw(big)

    __radd__ = __add__

    def __sub__(self, other: "Polynomial | int") -> "Polynomial":
        if isinstance(other, int):
            other = Polynomial.constant(other)
        return self + (-other)

    def __rsub__(self, other: int) -> "Polynomial":
        return Polynomial.constant(other) + (-self)

    def __mul__(self, other: "Polynomial | int") -> "Polynomial":
        if isinstance(other, int):
            if other == 0:
                return Polynomial.zero()
            if other == 1:
                return self
            return Polynomial._raw({m: c * other for m, c in self._terms.items()})
        acc: dict[int, int] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                prod = m1 | m2
                new = acc.get(prod, 0) + c1 * c2
                if new:
                    acc[prod] = new
                else:
                    acc.pop(prod, None)
        return Polynomial._raw(acc)

    __rmul__ = __mul__

    def multiply_term(self, coefficient: int, monomial: Monomial) -> "Polynomial":
        """Multiply by a single term ``coefficient * monomial``."""
        if coefficient == 0:
            return Polynomial.zero()
        factor = mask_of(monomial)
        acc: dict[int, int] = {}
        for mask, coeff in self._terms.items():
            prod = mask | factor
            new = acc.get(prod, 0) + coeff * coefficient
            if new:
                acc[prod] = new
            else:
                acc.pop(prod, None)
        return Polynomial._raw(acc)

    # -- substitution (the hot path of GB reduction / rewriting) --------------

    def substitute(self, var: int, replacement: "Polynomial",
                   modulus: int | None = None) -> "Polynomial":
        """Substitute ``var := replacement`` and return the new polynomial.

        This realises one division (S-polynomial) step against a gate
        polynomial ``-var + tail`` whose leading monomial is the single
        variable ``var``: every occurrence of ``var`` in a monomial is
        replaced by the tail polynomial, with Boolean idempotence applied.

        With ``modulus``, a product this step merged whose coefficient is a
        multiple of it is dropped as well (the ``r <- r mod 2^(2n)`` step
        of :meth:`drop_coefficient_multiples`, any positive modulus).  Only
        merged products are tested, so on a polynomial with no such term
        the result equals ``substitute(var, replacement)
        .drop_coefficient_multiples(modulus)`` without copying it twice.

        The loop is deliberately independent of the batch kernel of
        :mod:`repro.algebra.substitution` that the reduction and rewriting
        passes run: the certificate checker replays proofs with this one,
        so its trusted base does not include the engine it checks.
        """
        if modulus is not None and modulus <= 0:
            raise AlgebraError("modulus must be positive")
        bit = 1 << var
        if not self.support_mask() & bit:
            return self
        terms = dict(self._terms)
        pop = terms.pop
        expanded = [(mask ^ bit, pop(mask)) for mask in self._terms
                    if mask & bit]
        tail = replacement._terms.items()
        for rest, coeff in expanded:
            for tail_mask, tail_coeff in tail:
                prod = rest | tail_mask
                new = terms.get(prod, 0) + coeff * tail_coeff
                if new:
                    terms[prod] = new
                else:
                    del terms[prod]
        if modulus is not None:
            # A filter pass over the merged products, not a set of them
            # kept by the loop above: the callers without a modulus (the
            # checker's vanishing stage, the emitter's cone proofs) would
            # pay for that set.
            for rest, _ in expanded:
                for tail_mask in replacement._terms:
                    prod = rest | tail_mask
                    coeff = terms.get(prod)
                    if coeff is not None and not coeff % modulus:
                        del terms[prod]
        return Polynomial._raw(terms)

    def substitute_many(self, replacements: Mapping[int, "Polynomial"]) -> "Polynomial":
        """Substitute several variables one after another (arbitrary order)."""
        result = self
        for var, poly in replacements.items():
            result = result.substitute(var, poly)
        return result

    # -- coefficient filtering -------------------------------------------------

    def drop_coefficient_multiples(self, modulus: int) -> "Polynomial":
        """Remove terms whose coefficient is a multiple of ``modulus``.

        This implements the paper's ``r <- r mod 2^(2n)`` step for multiplier
        specifications: terms with coefficients that are multiples of
        ``2^(2n)`` are removed from the remainder.
        """
        if modulus <= 0:
            raise AlgebraError("modulus must be positive")
        if modulus & (modulus - 1) == 0:
            # Power-of-two modulus (the ``2^(2n)`` case): a bitwise AND with
            # ``modulus - 1`` is much cheaper than ``%`` on big coefficients.
            low_bits = modulus - 1
            return Polynomial._raw(
                {m: c for m, c in self._terms.items() if c & low_bits})
        return Polynomial._raw(
            {m: c for m, c in self._terms.items() if c % modulus != 0})

    def reduce_coefficients(self, modulus: int) -> "Polynomial":
        """Reduce every coefficient into the symmetric range modulo ``modulus``."""
        if modulus <= 0:
            raise AlgebraError("modulus must be positive")
        acc: dict[int, int] = {}
        half = modulus // 2
        for mask, coeff in self._terms.items():
            red = coeff % modulus
            if red > half:
                red -= modulus
            if red:
                acc[mask] = red
        return Polynomial._raw(acc)

    def filter_monomials(self, keep: Callable[[Monomial], bool]) -> tuple["Polynomial", int]:
        """Keep only monomials for which ``keep`` returns ``True``.

        Returns the filtered polynomial and the number of removed terms
        (used to count cancelled vanishing monomials, ``#CVM``).
        """
        return self.filter_term_masks(lambda mask: keep(Monomial.from_mask(mask)))

    def filter_term_masks(self, keep: Callable[[int], bool]) -> tuple["Polynomial", int]:
        """Mask-level :meth:`filter_monomials` (no Monomial wrappers)."""
        kept: dict[int, int] = {}
        removed = 0
        for mask, coeff in self._terms.items():
            if keep(mask):
                kept[mask] = coeff
            else:
                removed += 1
        if removed == 0:
            return self, 0
        return Polynomial._raw(kept), removed

    # -- evaluation -----------------------------------------------------------

    def evaluate(self, assignment: Mapping[int, int]) -> int:
        """Evaluate under a Boolean assignment of the support variables."""
        total = 0
        for mask, coeff in self._terms.items():
            value = coeff
            for var in iter_bits(mask):
                if not assignment[var]:
                    value = 0
                    break
            total += value
        return total

    # -- comparison / formatting ----------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            if other == 0:
                return not self._terms
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def sorted_terms(self, order: MonomialOrder = LEX) -> list[tuple[Monomial, int]]:
        """Terms sorted leading-first according to ``order``."""
        return [(Monomial.from_mask(mask), coeff)
                for mask, coeff in order.sorted_mask_items(self._terms.items())]

    def to_str(self, names=None, order: MonomialOrder = LEX) -> str:
        """Render as a human-readable sum, leading term first."""
        if not self._terms:
            return "0"
        parts: list[str] = []
        for mono, coeff in self.sorted_terms(order):
            if mono.is_constant:
                text = str(abs(coeff))
            else:
                mono_str = mono.to_str(names)
                text = mono_str if abs(coeff) == 1 else f"{abs(coeff)}*{mono_str}"
            sign = "-" if coeff < 0 else "+"
            if not parts:
                parts.append(f"-{text}" if coeff < 0 else text)
            else:
                parts.append(f" {sign} {text}")
        return "".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Polynomial({self.to_str()})"

    # -- internal -------------------------------------------------------------

    @classmethod
    def _raw(cls, terms: dict[int, int]) -> "Polynomial":
        """Wrap an already-clean mask-keyed term dict without re-normalising."""
        poly = object.__new__(cls)
        poly._terms = terms
        poly._support = None
        return poly


ZERO = Polynomial.zero()
ONE = Polynomial.constant(1)
