"""Monomials over Boolean variables, packed into integer bitmasks.

In the Boolean domain every variable satisfies ``x^2 = x`` (the ideal
``<x^2 - x>`` is built into the representation, as in the paper), so a
monomial is fully described by the *set* of variables it contains.  A
:class:`Monomial` encodes that set as an arbitrary-precision integer
bitmask: bit ``v`` is set iff variable ``v`` occurs in the monomial.  The
empty monomial (mask ``0``) is the constant ``1``.

The bitmask encoding turns every algebraic operation into one machine-level
integer operation:

========================= ======================
multiplication / lcm      ``a | b``
gcd                       ``a & b``
divisibility              ``a & b == a``
exact division            ``a & ~b``
relative primality        ``a & b == 0``
total degree              ``popcount(a)``
lex comparison            integer comparison
========================= ======================

The last row is the key to the fast core: for multilinear monomials the
lexicographic order induced by ``x_n > x_{n-1} > ... > x_0`` coincides with
the numeric order of the bitmasks (the highest differing variable decides
both comparisons), so leading-monomial selection needs no tuple keys.

:class:`Monomial` keeps the public API of the earlier ``frozenset``-based
implementation, including iteration over variable indices, containment
tests, and equality/hash compatibility with ``frozenset`` instances over
the same variables.  The :class:`~repro.algebra.polynomial.Polynomial`
layer bypasses the wrapper entirely and stores raw masks.
"""

from __future__ import annotations

from typing import Iterable, Iterator


def mask_of(variables: Iterable[int]) -> int:
    """Pack an iterable of variable indices into a bitmask."""
    if isinstance(variables, Monomial):
        return variables._mask
    mask = 0
    for var in variables:
        mask |= 1 << var
    return mask


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def bits_of(mask: int) -> list[int]:
    """Set bit positions of ``mask`` as an ascending list.

    Functionally :func:`iter_bits`, but a plain loop into a list beats the
    generator resume cost on the hot paths that visit every variable.
    """
    out = []
    while mask:
        low = mask & -mask
        mask ^= low
        out.append(low.bit_length() - 1)
    return out


def union_mask(masks: Iterable[int]) -> int:
    """OR-union of an iterable of bitmasks (the support of a term map)."""
    support = 0
    for mask in masks:
        support |= mask
    return support


class Monomial:
    """An immutable product of distinct Boolean variables.

    Variables are integer indices into a
    :class:`repro.algebra.ring.PolynomialRing`, stored as set bits of an
    integer mask.  Multiplication is bitwise OR (Boolean idempotence),
    division clears bits, and divisibility is the submask relation.
    """

    __slots__ = ("_mask", "_hash")

    ONE: "Monomial"

    def __init__(self, variables: Iterable[int] = ()) -> None:
        self._mask = mask_of(variables)
        self._hash = None

    @classmethod
    def from_mask(cls, mask: int) -> "Monomial":
        """Wrap an already-packed bitmask (no validation)."""
        mono = object.__new__(cls)
        mono._mask = mask
        mono._hash = None
        return mono

    @property
    def mask(self) -> int:
        """The packed bitmask (bit ``v`` set iff variable ``v`` occurs)."""
        return self._mask

    # -- algebraic operations -------------------------------------------------

    def __mul__(self, other: "Monomial") -> "Monomial":
        """Product of two monomials (``x^2`` collapses to ``x``)."""
        return Monomial.from_mask(self._mask | mask_of(other))

    def divides(self, other: "Monomial") -> bool:
        """Return ``True`` if this monomial divides ``other``."""
        mask = self._mask
        return mask & mask_of(other) == mask

    def __truediv__(self, other: "Monomial") -> "Monomial":
        """Exact division; ``other`` must divide ``self``."""
        other_mask = mask_of(other)
        if other_mask & self._mask != other_mask:
            raise ValueError(f"{other!r} does not divide {self!r}")
        return Monomial.from_mask(self._mask & ~other_mask)

    def lcm(self, other: "Monomial") -> "Monomial":
        """Least common multiple (bitwise OR for multilinear monomials)."""
        return Monomial.from_mask(self._mask | mask_of(other))

    def gcd(self, other: "Monomial") -> "Monomial":
        """Greatest common divisor (bitwise AND)."""
        return Monomial.from_mask(self._mask & mask_of(other))

    def relatively_prime(self, other: "Monomial") -> bool:
        """Return ``True`` if the two monomials share no variable (Lemma 1)."""
        return self._mask & mask_of(other) == 0

    # -- set protocol ---------------------------------------------------------

    def __iter__(self) -> Iterator[int]:
        return iter_bits(self._mask)

    def __len__(self) -> int:
        return self._mask.bit_count()

    def __contains__(self, var: int) -> bool:
        return var >= 0 and (self._mask >> var) & 1 == 1

    def __bool__(self) -> bool:
        return self._mask != 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Monomial):
            return self._mask == other._mask
        if isinstance(other, (frozenset, set)):
            # Compatibility with the historical frozenset representation.
            try:
                return self._mask == mask_of(other)
            except (TypeError, ValueError):
                return False
        return NotImplemented

    def __hash__(self) -> int:
        # Hash-compatible with ``frozenset`` over the same variables, so
        # monomials keep working as drop-in dict/set keys next to sets.  The
        # hash is computed lazily and cached; the polynomial hot paths key
        # their term dicts by raw masks and never hash Monomial objects.
        cached = self._hash
        if cached is None:
            cached = self._hash = hash(frozenset(iter_bits(self._mask)))
        return cached

    # -- queries --------------------------------------------------------------

    @property
    def degree(self) -> int:
        """Total degree, i.e. the number of distinct variables."""
        return self._mask.bit_count()

    @property
    def is_constant(self) -> bool:
        """Return ``True`` for the constant monomial ``1``."""
        return self._mask == 0

    def variables(self) -> Iterator[int]:
        """Iterate over the variable indices in ascending order."""
        return iter_bits(self._mask)

    def sort_key(self) -> tuple[int, ...]:
        """Key realising the lexicographic order induced by the variable order.

        Variable indices are compared from the largest downwards, so a
        monomial containing a higher variable is larger than any monomial
        over strictly lower variables — exactly the property required for
        gate polynomials whose leading monomial must be the gate output.
        For raw masks the same order is plain integer comparison; this tuple
        form is kept for API compatibility and custom orders.
        """
        return tuple(sorted(iter_bits(self._mask), reverse=True))

    def evaluate(self, assignment) -> int:
        """Evaluate under a Boolean assignment (mapping or sequence)."""
        for var in iter_bits(self._mask):
            if not assignment[var]:
                return 0
        return 1

    # -- formatting -----------------------------------------------------------

    def to_str(self, names=None) -> str:
        """Render as ``a*b*c`` using ``names`` (or raw indices)."""
        if not self._mask:
            return "1"
        ordered = sorted(iter_bits(self._mask), reverse=True)
        if names is None:
            return "*".join(f"x{v}" for v in ordered)
        return "*".join(str(names(v)) if callable(names) else str(names[v])
                        for v in ordered)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Monomial({list(iter_bits(self._mask))})"


Monomial.ONE = Monomial()
