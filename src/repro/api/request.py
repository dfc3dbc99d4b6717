"""Typed verification requests: circuit source + specification + budgets.

A :class:`VerificationRequest` normalizes the three ways a circuit can
reach the service — a generated architecture (name + operand width), an
in-memory :class:`~repro.circuit.netlist.Netlist`, or gate-level Verilog
(path or text) — together with the specification and a single
:class:`Budgets` bundle replacing the historical kwargs sprawl
(``monomial_budget=...``, ``time_budget_s=...``, ``vanishing_cache_limit=...``,
``counterexample_tries=...``, ``sat_conflict_budget=...``, ...).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.api.registry import get_backend
from repro.circuit.netlist import Netlist
from repro.errors import VerificationError

#: Circuit kinds a request can describe (selects generator + default spec).
CIRCUIT_KINDS = ("multiplier", "adder")


@dataclass(frozen=True)
class Budgets:
    """Every resource budget of every backend, in one place.

    The defaults match the historical per-function defaults, so
    ``Budgets()`` reproduces the behaviour of calling the old entry points
    without budget kwargs.  ``None`` disables the corresponding guard,
    except ``vanishing_cache_limit`` (``None`` = the default 1,000,000
    cap) and ``counterexample_tries`` (always bounded).
    """

    #: Abort the GB reduction when the remainder exceeds this many monomials.
    monomial_budget: int | None = 2_000_000
    #: Abort any backend after this many wall-clock seconds.
    time_budget_s: float | None = None
    #: CDCL conflict budget of the SAT baseline.
    sat_conflict_budget: int | None = 200_000
    #: ROBDD node budget of the BDD baseline.
    bdd_node_budget: int | None = 1_000_000
    #: Cap on the vanishing-rule verdict cache (whole-cache reset on
    #: overflow); ``None`` = the default 1,000,000 cap.
    vanishing_cache_limit: int | None = None
    #: Random assignments tried when searching for a counterexample.
    counterexample_tries: int = 4096
    #: Hard per-job wall-clock limit of batch runs (enforced by killing the
    #: worker process; ``None`` relies on the in-process budgets).
    task_timeout_s: float | None = None

    def replace(self, **changes) -> "Budgets":
        """A copy with the given fields changed."""
        return replace(self, **changes)


@dataclass(frozen=True)
class VerificationRequest:
    """One verification problem: circuit source, specification, method, budgets.

    Exactly one circuit source must be provided: ``architecture`` (with
    ``width``), ``netlist``, ``verilog_path``, or ``verilog_text``.  The
    :meth:`from_architecture` / :meth:`from_netlist` / :meth:`from_verilog`
    constructors are the convenient spellings.
    """

    method: str = "mt-lr"
    architecture: str | None = None
    width: int | None = None
    netlist: Netlist | None = None
    verilog_path: str | os.PathLike | None = None
    verilog_text: str | None = None
    #: ``"multiplier"`` or ``"adder"`` — selects the generator for
    #: architecture sources and the default specification.
    circuit_kind: str = "multiplier"
    #: ``"multiplier"`` / ``"adder"`` / a ready
    #: :class:`~repro.modeling.spec.Specification`; ``None`` derives it
    #: from ``circuit_kind``.
    specification: object | None = None
    budgets: Budgets = field(default_factory=Budgets)
    find_counterexample: bool = True
    #: Restrict the vanishing rule to the paper's literal XOR-AND pattern.
    xor_and_only: bool = False
    #: Emit a checkable proof certificate (:mod:`repro.certify` format) on
    #: the report; requires a backend whose spec declares ``certifiable``.
    certificate: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        get_backend(self.method)        # unknown methods fail fast
        if self.circuit_kind not in CIRCUIT_KINDS:
            raise VerificationError(
                f"unknown circuit kind {self.circuit_kind!r}; "
                f"expected one of {CIRCUIT_KINDS}")
        sources = [source for source in
                   (self.architecture, self.netlist, self.verilog_path,
                    self.verilog_text) if source is not None]
        if len(sources) != 1:
            raise VerificationError(
                "exactly one circuit source required: architecture (+width), "
                "netlist, verilog_path, or verilog_text")
        if self.architecture is not None and self.width is None:
            raise VerificationError(
                "architecture sources need an operand width")

    # -- constructors ----------------------------------------------------------

    @classmethod
    def from_architecture(cls, architecture: str, width: int,
                          method: str = "mt-lr", **kwargs) -> "VerificationRequest":
        """Request on a generated architecture, e.g. ``("BP-WT-CL", 8)``."""
        return cls(method=method, architecture=architecture, width=width,
                   **kwargs)

    @classmethod
    def from_netlist(cls, netlist: Netlist, method: str = "mt-lr",
                     **kwargs) -> "VerificationRequest":
        """Request on an in-memory gate-level netlist."""
        return cls(method=method, netlist=netlist, **kwargs)

    @classmethod
    def from_verilog(cls, path: str | os.PathLike | None = None,
                     text: str | None = None, method: str = "mt-lr",
                     **kwargs) -> "VerificationRequest":
        """Request on gate-level Verilog, from a file path or source text."""
        return cls(method=method, verilog_path=path, verilog_text=text,
                   **kwargs)

    # -- resolution ------------------------------------------------------------

    def resolve_netlist(self) -> Netlist:
        """Materialize the circuit under verification."""
        if self.netlist is not None:
            return self.netlist
        if self.architecture is not None:
            if self.circuit_kind == "adder":
                from repro.generators.adders import generate_adder
                return generate_adder(self.architecture, self.width)
            from repro.generators.multipliers import generate_multiplier
            return generate_multiplier(self.architecture, self.width)
        from repro.circuit.verilog import load_verilog, parse_verilog
        if self.verilog_path is not None:
            return load_verilog(str(self.verilog_path))
        return parse_verilog(self.verilog_text)

    def resolve_specification(self):
        """The specification argument handed to the verification engine."""
        if self.specification is not None:
            return self.specification
        return self.circuit_kind

    def display_name(self, netlist: Netlist | None = None) -> str:
        """Circuit identity used in reports: architecture or module name."""
        if self.architecture is not None:
            return self.architecture
        if netlist is not None:
            return netlist.name
        if self.netlist is not None:
            return self.netlist.name
        from repro.circuit.verilog import module_name
        if self.verilog_path is None:
            return module_name(self.verilog_text) or "verilog"
        stem = Path(self.verilog_path).stem
        try:
            text = Path(self.verilog_path).read_text(encoding="utf-8")
        except (OSError, ValueError):
            return stem
        return module_name(text) or stem
