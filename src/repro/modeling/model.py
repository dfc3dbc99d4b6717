"""The algebraic circuit model: a Gröbner basis extracted from a netlist.

Step 1 of the membership-testing algorithm: every gate becomes a polynomial
``-z + tail`` and the variables are ordered by their reverse topological
level, so every leading monomial is the (single) gate-output variable and
all leading monomials are relatively prime — the model is a Gröbner basis by
construction (Definition 2 of the paper).

The model also keeps the *structural* information needed by the logic
reduction rewriting: for every variable, the gate function and input
variables it was defined by.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple

from repro.algebra.monomial import Monomial
from repro.algebra.ordering import LEX
from repro.algebra.polynomial import Polynomial
from repro.algebra.ring import PolynomialRing
from repro.circuit.analysis import fanout_counts
from repro.circuit.gates import GateType
from repro.circuit.netlist import Netlist
from repro.errors import ModelingError
from repro.modeling.gate_polys import gate_tail


class GateRecord(NamedTuple):
    """Structural information attached to a model variable.

    A named tuple rather than a frozen dataclass: model extraction builds
    one per signal, and a tuple is built without a per-field
    ``object.__setattr__``.
    """

    variable: int
    gate_type: GateType | None          # ``None`` for primary inputs
    inputs: tuple[int, ...]
    level: int

    @property
    def is_input(self) -> bool:
        """Return ``True`` for primary-input variables."""
        return self.gate_type is None


class AlgebraicModel:
    """Gröbner-basis model of a circuit plus its structural metadata."""

    def __init__(self, ring: PolynomialRing, tails: dict[int, Polynomial],
                 records: dict[int, GateRecord], input_vars: list[int],
                 output_vars: list[int], netlist: Netlist | None = None) -> None:
        self.ring = ring
        self.tails = tails
        self.records = records
        self.input_vars = input_vars
        self.output_vars = output_vars
        self.netlist = netlist
        self._input_set = set(input_vars)

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_netlist(cls, netlist: Netlist) -> "AlgebraicModel":
        """Extract the algebraic model of a netlist.

        Variables are numbered by ascending topological level (primary
        inputs first), so a larger index means a later (closer to the
        outputs) signal; the induced lex order realises the paper's reverse
        topological substitution order.
        """
        # The netlist's topology checks every driver when it is sorted, so
        # the netlist is not validated separately.
        order, levels = netlist.topology()
        # Stable sort by level keeps same-level signals in construction order,
        # which groups sum/carry cells that share inputs next to each other —
        # the secondary criterion of the paper's substitution ordering.
        ordered = sorted(order, key=levels.__getitem__)

        ring = PolynomialRing.from_ordered(ordered)

        # Direct index-map access skips the per-lookup error wrapping of
        # ``ring.index`` — this loop resolves every gate input of the model.
        index_of = ring._index.__getitem__
        gate_of = netlist.gate_of
        # The primary inputs open the topological order at level 0 and the
        # stable sort keeps them there: they are variables 0 .. n-1.
        input_vars = list(range(len(netlist.inputs)))
        records: dict[int, GateRecord] = {
            var: GateRecord(var, None, (), 0) for var in input_vars}
        tails: dict[int, Polynomial] = {}
        for var in range(len(input_vars), len(ordered)):
            signal = ordered[var]
            gate = gate_of(signal)
            gate_type = gate.gate_type
            inputs = tuple(map(index_of, gate.inputs))
            records[var] = GateRecord(var, gate_type, inputs, levels[signal])
            tails[var] = gate_tail(gate_type, inputs)

        output_vars = [index_of(s) for s in netlist.outputs]
        return cls(ring, tails, records, input_vars, output_vars, netlist)

    # -- queries ---------------------------------------------------------------

    @property
    def num_polynomials(self) -> int:
        """Number of gate polynomials in the model (``#P``)."""
        return len(self.tails)

    def is_input_variable(self, var: int) -> bool:
        """Return ``True`` if ``var`` is a primary input."""
        return var in self._input_set

    def variables(self) -> Iterator[int]:
        """All model variables in ascending order."""
        return iter(range(self.ring.num_variables))

    def polynomial(self, var: int) -> Polynomial:
        """Full gate polynomial ``-var + tail`` for a driven variable."""
        if var not in self.tails:
            raise ModelingError(
                f"variable {self.ring.name(var)!r} has no gate polynomial")
        return Polynomial.variable(var, -1) + self.tails[var]

    def polynomials(self) -> list[Polynomial]:
        """All gate polynomials (arbitrary order)."""
        return [self.polynomial(var) for var in self.tails]

    def tail(self, var: int) -> Polynomial:
        """The tail of the gate polynomial with leading variable ``var``."""
        if var not in self.tails:
            raise ModelingError(
                f"variable {self.ring.name(var)!r} has no gate polynomial")
        return self.tails[var]

    def level(self, var: int) -> int:
        """Reverse-topological level of a variable."""
        return self.records[var].level

    def fanout_variables(self) -> set[int]:
        """Variables with more than one reader in the original netlist."""
        if self.netlist is None:
            raise ModelingError("model was built without a netlist reference")
        counts = fanout_counts(self.netlist)
        return {self.ring.index(signal) for signal, count in counts.items()
                if count > 1}

    def xor_variables(self, include_xnor: bool = False) -> set[int]:
        """Input and output variables of XOR (optionally XNOR) gates."""
        kinds = {GateType.XOR}
        if include_xnor:
            kinds.add(GateType.XNOR)
        selected: set[int] = set()
        for var, record in self.records.items():
            if record.gate_type in kinds:
                selected.add(var)
                selected.update(record.inputs)
        return selected

    def word(self, prefix: str, from_outputs: bool = False) -> list[int]:
        """Variable indices of an input (or output) word ``prefix<i>``."""
        if self.netlist is None:
            raise ModelingError("model was built without a netlist reference")
        names = (self.netlist.output_word(prefix) if from_outputs
                 else self.netlist.input_word(prefix))
        if not names:
            raise ModelingError(f"no word with prefix {prefix!r}")
        return [self.ring.index(name) for name in names]

    # -- sanity checks ---------------------------------------------------------

    def check_groebner_by_construction(self) -> bool:
        """Verify Definition 2: every leading monomial is a distinct single variable.

        By construction the leading monomial (w.r.t. the lex order induced by
        the topological variable numbering) of every gate polynomial is its
        output variable, hence all leading monomials are relatively prime.
        """
        seen: set[int] = set()
        for var in self.tails:
            poly = self.polynomial(var)
            lead = poly.leading_monomial(LEX)
            if lead != Monomial((var,)):
                return False
            if var in seen:
                return False
            seen.add(var)
        return True

    def evaluate(self, assignment: dict[int, int]) -> dict[int, int]:
        """Evaluate all variables bottom-up from a primary-input assignment.

        Used by property-based tests to confirm that model polynomials all
        vanish on consistent circuit valuations.
        """
        values = dict(assignment)
        for var in sorted(self.tails):
            values[var] = self.tails[var].evaluate(values) & 1 \
                if self.records[var].gate_type in (GateType.XOR, GateType.XNOR,
                                                   GateType.AND, GateType.OR,
                                                   GateType.NAND, GateType.NOR,
                                                   GateType.NOT, GateType.BUF,
                                                   GateType.CONST0, GateType.CONST1) \
                else self.tails[var].evaluate(values)
        return values

    def describe(self) -> str:
        """Short summary used by the CLI and examples."""
        return (f"model of {self.netlist.name if self.netlist else '<circuit>'}: "
                f"{self.num_polynomials} polynomials over "
                f"{self.ring.num_variables} variables")

    def render_polynomials(self, variables: Iterable[int] | None = None) -> str:
        """Pretty-print (a subset of) the gate polynomials."""
        chosen = sorted(self.tails if variables is None else variables,
                        reverse=True)
        lines = []
        for var in chosen:
            lines.append(f"{self.ring.name(var)}: "
                         f"{self.ring.render(self.polynomial(var))}")
        return "\n".join(lines)
