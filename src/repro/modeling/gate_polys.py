"""Translation of logic gates into polynomials over the Boolean domain.

Each gate with output ``z`` and inputs ``a, b, ...`` is modelled as
``g := -z + tail`` where ``tail`` is the unique multilinear polynomial that
agrees with the gate function on Boolean inputs (Section II-B, Step 1 of the
paper):

====== =============================
NOT    ``1 - a``
AND    ``a*b``
OR     ``a + b - a*b``
XOR    ``a + b - 2*a*b``
====== =============================

Multi-input gates are folded two inputs at a time; the inverting variants are
``1 - tail`` of their non-inverting counterpart.
"""

from __future__ import annotations

from typing import Sequence

from repro.algebra.polynomial import Polynomial
from repro.circuit.gates import Gate, GateType
from repro.errors import ModelingError


def _and_terms(input_vars: Sequence[int]) -> dict[int, int]:
    mask = 0
    for var in input_vars:
        mask |= 1 << var
    return {mask: 1}


def _fold(terms: dict[int, int], var: int, cross_coeff: int) -> dict[int, int]:
    """One De Morgan fold step: ``r + v + cross_coeff * r * v``.

    ``cross_coeff`` is ``-1`` for OR and ``-2`` for XOR; Boolean idempotence
    is applied through the bitwise OR of the term masks.
    """
    bit = 1 << var
    acc = dict(terms)
    acc[bit] = acc.get(bit, 0) + 1
    for mask, coeff in terms.items():
        prod = mask | bit
        new = acc.get(prod, 0) + cross_coeff * coeff
        if new:
            acc[prod] = new
        else:
            del acc[prod]
    return acc


def _fold_tail(input_vars: Sequence[int], cross_coeff: int) -> dict[int, int]:
    terms = {1 << input_vars[0]: 1}
    for var in input_vars[1:]:
        terms = _fold(terms, var, cross_coeff)
    return terms


def _complement(terms: dict[int, int]) -> dict[int, int]:
    acc = {mask: -coeff for mask, coeff in terms.items()}
    new = acc.get(0, 0) + 1
    if new:
        acc[0] = new
    else:
        del acc[0]
    return acc


# Enum members bound once: ``GateType.AND`` is a class-attribute lookup
# that costs more than the ``is`` test it feeds.
_AND, _OR, _XOR = GateType.AND, GateType.OR, GateType.XOR
_NAND, _NOR, _XNOR = GateType.NAND, GateType.NOR, GateType.XNOR


def gate_tail(gate_type: GateType, input_vars: Sequence[int]) -> Polynomial:
    """Polynomial in the gate inputs that equals the gate function.

    The returned polynomial is the ``tail`` of the gate polynomial
    ``-z + tail``; substituting a gate-output variable during Gröbner-basis
    reduction replaces it by exactly this polynomial.  Tails are built
    directly as mask-keyed term maps — model extraction creates one per gate,
    which made the generic polynomial arithmetic a measurable startup cost.
    """
    if len(input_vars) == 2 and input_vars[0] != input_vars[1]:
        # Direct term maps for the two-input gates — the overwhelmingly
        # common case of synthesized netlists — skip the fold machinery.
        a, b = 1 << input_vars[0], 1 << input_vars[1]
        if gate_type is _AND:
            return Polynomial._raw({a | b: 1})
        if gate_type is _XOR:
            return Polynomial._raw({a: 1, b: 1, a | b: -2})
        if gate_type is _OR:
            return Polynomial._raw({a: 1, b: 1, a | b: -1})
        if gate_type is _NAND:
            return Polynomial._raw({0: 1, a | b: -1})
        if gate_type is _XNOR:
            return Polynomial._raw({0: 1, a: -1, b: -1, a | b: 2})
        if gate_type is _NOR:
            return Polynomial._raw({0: 1, a: -1, b: -1, a | b: 1})
    if gate_type is GateType.CONST0:
        return Polynomial.zero()
    if gate_type is GateType.CONST1:
        return Polynomial.constant(1)
    if not input_vars:
        raise ModelingError(f"gate type {gate_type.value!r} requires inputs")
    if gate_type is GateType.BUF:
        return Polynomial.variable(input_vars[0])
    if gate_type is GateType.NOT:
        return Polynomial._raw(
            _complement({1 << input_vars[0]: 1}))
    if gate_type is GateType.AND:
        return Polynomial._raw(_and_terms(input_vars))
    if gate_type is GateType.NAND:
        return Polynomial._raw(_complement(_and_terms(input_vars)))
    if gate_type is GateType.OR:
        return Polynomial._raw(_fold_tail(input_vars, -1))
    if gate_type is GateType.NOR:
        return Polynomial._raw(
            _complement(_fold_tail(input_vars, -1)))
    if gate_type is GateType.XOR:
        return Polynomial._raw(_fold_tail(input_vars, -2))
    if gate_type is GateType.XNOR:
        return Polynomial._raw(
            _complement(_fold_tail(input_vars, -2)))
    raise ModelingError(f"unsupported gate type {gate_type!r}")


def gate_polynomial(output_var: int, gate_type: GateType,
                    input_vars: Sequence[int]) -> Polynomial:
    """Full gate polynomial ``-z + tail`` with leading variable ``z``."""
    return Polynomial.variable(output_var, -1) + gate_tail(gate_type, input_vars)


def gate_polynomial_for(gate: Gate, var_index) -> Polynomial:
    """Gate polynomial for a netlist gate, mapping signal names with ``var_index``."""
    return gate_polynomial(var_index(gate.output), gate.gate_type,
                           [var_index(s) for s in gate.inputs])
