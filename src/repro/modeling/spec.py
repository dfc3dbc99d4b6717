"""Specification polynomials for adders and multipliers.

The specification of an ``n x n`` unsigned multiplier is (paper, Section V):

.. math::

    p_{spec} = \\sum_{i=0}^{2n-1} -2^i s_i
             + \\Big(\\sum_{i=0}^{n-1} 2^i a_i\\Big)
               \\Big(\\sum_{i=0}^{n-1} 2^i b_i\\Big)  \\pmod{2^{2n}}

The ``mod 2^(2n)`` part is realised by removing remainder terms whose
coefficient is a multiple of ``2^(2n)`` — this is what makes the
specification match Booth and redundant-addition architectures whose
internal encodings only agree with the product modulo ``2^(2n)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.algebra.polynomial import Polynomial
from repro.errors import ModelingError
from repro.modeling.model import AlgebraicModel


@dataclass(frozen=True)
class Specification:
    """A specification polynomial plus the optional coefficient modulus."""

    polynomial: Polynomial
    modulus: int | None = None
    description: str = ""

    def __post_init__(self) -> None:
        # The reduction drops coefficient multiples with a bitwise AND, so
        # only power-of-two moduli (the ``2^(2n)`` of every builder) exist.
        modulus = self.modulus
        if modulus is not None and (modulus <= 0 or modulus & (modulus - 1)):
            raise ModelingError(
                "specification modulus must be a positive power of two, "
                f"got {modulus}")

    def apply_modulus(self, remainder: Polynomial) -> Polynomial:
        """Drop remainder terms whose coefficients are multiples of the modulus."""
        if self.modulus is None:
            return remainder
        return remainder.drop_coefficient_multiples(self.modulus)


def _weighted_word(variables: Sequence[int], negate: bool = False) -> Polynomial:
    terms = []
    for i, var in enumerate(variables):
        weight = 1 << i
        terms.append((-weight if negate else weight, (var,)))
    return Polynomial.from_terms(terms)


def multiplier_specification(model: AlgebraicModel, a_prefix: str = "a",
                             b_prefix: str = "b", out_prefix: str = "s",
                             use_modulus: bool = True) -> Specification:
    """Build the unsigned-multiplier specification for a circuit model.

    The operand and result words are located by their signal-name prefixes
    (``a``, ``b`` and ``s`` for generated multipliers).
    """
    a_vars = model.word(a_prefix)
    b_vars = model.word(b_prefix)
    s_vars = model.word(out_prefix, from_outputs=True)
    if len(s_vars) < len(a_vars) + len(b_vars):
        raise ModelingError(
            "multiplier output word is narrower than the full product; "
            f"got {len(s_vars)} bits for {len(a_vars)}x{len(b_vars)}")
    operand_a = _weighted_word(a_vars)
    operand_b = _weighted_word(b_vars)
    outputs = _weighted_word(s_vars, negate=True)
    spec_poly = outputs + operand_a * operand_b
    modulus = (1 << len(s_vars)) if use_modulus else None
    return Specification(
        polynomial=spec_poly, modulus=modulus,
        description=(f"{len(a_vars)}x{len(b_vars)} unsigned multiplier"
                     + (f" mod 2^{len(s_vars)}" if use_modulus else "")))


def adder_specification(model: AlgebraicModel, a_prefix: str = "a",
                        b_prefix: str = "b", out_prefix: str = "s",
                        carry_in: str | None = None,
                        use_modulus: bool = False) -> Specification:
    """Build the adder specification ``sum(2^i s_i) = A + B (+ cin)``."""
    a_vars = model.word(a_prefix)
    b_vars = model.word(b_prefix)
    s_vars = model.word(out_prefix, from_outputs=True)
    spec_poly = (_weighted_word(s_vars, negate=True)
                 + _weighted_word(a_vars) + _weighted_word(b_vars))
    if carry_in is not None:
        spec_poly = spec_poly + Polynomial.variable(model.ring.index(carry_in))
    modulus = (1 << len(s_vars)) if use_modulus else None
    return Specification(
        polynomial=spec_poly, modulus=modulus,
        description=f"{len(a_vars)}-bit adder"
                    + (" with carry-in" if carry_in else ""))


def custom_specification(polynomial: Polynomial, modulus: int | None = None,
                         description: str = "custom") -> Specification:
    """Wrap a user-provided specification polynomial."""
    return Specification(polynomial=polynomial, modulus=modulus,
                         description=description)
