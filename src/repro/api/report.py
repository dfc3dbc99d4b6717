"""The unified verification report — one schema over every backend.

A :class:`VerificationReport` wraps the outcome of any registered backend
(the membership-testing :class:`~repro.verification.result.VerificationResult`,
the SAT baseline's :class:`~repro.baselines.sat.miter.SatCheckResult`, the
BDD baseline's :class:`~repro.baselines.bdd.equivalence.BddCheckResult`, or
a budget trip) behind one verdict/timing/counter schema with stable JSON
round-tripping.  The same schema is what ``repro-verify ... --json`` emits,
what the on-disk :class:`~repro.experiments.runner.ResultCache` persists,
and what the experiment runner's table rows flatten losslessly.

Serialization is *canonical*: :meth:`VerificationReport.to_json` always
emits the top-level keys in the fixed schema order with the backend
counters in their declared order, so ``from_json(to_json(r)).to_json()``
is byte-identical to ``to_json(r)`` for every backend.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.errors import VerificationError

#: Version of the report JSON schema (see ``repro/api/__init__.py``).
#: Version 3 added the ``certificate`` and ``cross_check`` fields;
#: version 4 added the ``attempts`` retry/fallback history; version 5
#: added an ``incremental`` cone-counter block, which version 6 removed
#: again.  :meth:`VerificationReport.from_dict` reads only this version.
REPORT_SCHEMA = 6

#: Verdicts a report can carry.
VERDICTS = ("verified", "refuted", "budget", "not_applicable", "error")

#: Legacy table-row ``status`` values and the verdict each one maps to.
STATUS_TO_VERDICT = {
    "ok": "verified",
    "mismatch": "refuted",
    "TO": "budget",
    "n/a": "not_applicable",
    "error": "error",
    "crash": "error",
}

#: Exit codes of the CLI commands, driven by the report verdict:
#: 0 = verified, 1 = usage or infrastructure error, 2 = refuted,
#: 3 = budget trip / timeout.  ``not_applicable`` maps to 0 (nothing was
#: refuted and no budget tripped).
EXIT_CODES = {
    "verified": 0,
    "refuted": 2,
    "budget": 3,
    "not_applicable": 0,
    "error": 1,
}

#: Report fields a table row carries only when they are set, in row order.
_ROW_OPTIONAL_KEYS = ("specification", "reason", "counterexample",
                      "remainder", "certificate", "cross_check", "attempts")

#: Table-row keys that are schema fields rather than backend counters.
_ROW_BASE_KEYS = frozenset((
    "architecture", "width", "method", "status", "time", "time_s",
    "verified") + _ROW_OPTIONAL_KEYS)


def format_seconds(seconds: float) -> str:
    """Render a duration as ``HH:MM:SS.ss`` (the paper tables' time format)."""
    hours = int(seconds // 3600)
    minutes = int((seconds % 3600) // 60)
    secs = seconds % 60
    return f"{hours:02d}:{minutes:02d}:{secs:05.2f}"


@dataclass
class VerificationReport:
    """Outcome of one verification run, uniform across all backends."""

    #: One of :data:`VERDICTS`.
    verdict: str
    #: Backend name (a :mod:`repro.api.registry` entry).
    method: str
    #: Circuit identity: architecture name for generated circuits,
    #: netlist/module name otherwise.
    circuit: str
    #: Legacy table-row status (``ok``/``mismatch``/``TO``/``n/a``/
    #: ``error``/``crash``); kept so cached rows reproduce exactly.
    status: str = ""
    #: Operand width in bits, when known.
    width: int | None = None
    #: Human-readable specification description, when known.
    specification: str | None = None
    #: Display time: ``HH:MM:SS.ss``, ``"TO"`` on a budget trip, ``"-"``
    #: when no time was measured.
    time: str = "-"
    #: Total wall-clock seconds (``None`` when not measured).
    time_s: float | None = None
    #: Budget-trip or failure reason (``None`` when the run completed).
    reason: str | None = None
    #: Primary-input assignment exposing a mismatch, if one was found.
    counterexample: dict[str, int] | None = None
    #: Non-zero remainder rendered with signal names (algebraic refutations).
    remainder: str | None = None
    #: Backend-specific engine counters, in the backend's declared order.
    counters: dict[str, Any] = field(default_factory=dict)
    #: Wrapped proof-certificate document (``repro.certify`` format), when
    #: the run was asked to emit one and the backend is certifiable.
    certificate: dict | None = None
    #: Counterexample cross-check record attached to ``refuted`` verdicts
    #: (SAT-backend agreement + counterexample simulation), when available.
    cross_check: dict | None = None
    #: Retry/fallback history (``repro.resilience``): one record per
    #: attempt when the run needed more than one, ``None`` on the common
    #: first-attempt-succeeded path so resilience-off output is unchanged.
    attempts: list | None = None
    #: The wrapped backend result object (in-process runs only; never
    #: serialized — ``from_json`` reports carry ``None``).
    result: Any = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.verdict not in VERDICTS:
            raise VerificationError(
                f"unknown verdict {self.verdict!r}; expected one of {VERDICTS}")
        if not self.status:
            self.status = next(s for s, v in STATUS_TO_VERDICT.items()
                               if v == self.verdict)

    # -- derived views ---------------------------------------------------------

    @property
    def verified(self) -> bool | None:
        """Tri-state verdict of the table rows: ``True``/``False``/``None``."""
        if self.verdict == "verified":
            return True
        if self.verdict == "refuted":
            return False
        return None

    @property
    def exit_code(self) -> int:
        """CLI exit code mandated by the verdict (see :data:`EXIT_CODES`)."""
        return EXIT_CODES[self.verdict]

    def summary(self) -> str:
        """One-line human-readable summary."""
        label = {"verified": "VERIFIED", "refuted": "MISMATCH",
                 "budget": "TIMEOUT/BLOW-UP", "not_applicable": "N/A",
                 "error": "ERROR"}[self.verdict]
        timing = f" (total {self.time_s:.2f}s)" if self.time_s is not None else ""
        return f"[{self.method}] {self.circuit}: {label}{timing}"

    # -- canonical JSON --------------------------------------------------------

    def to_dict(self) -> dict:
        """The report as a JSON-ready dict in canonical key order."""
        return {
            "schema": REPORT_SCHEMA,
            "verdict": self.verdict,
            "status": self.status,
            "method": self.method,
            "circuit": self.circuit,
            "width": self.width,
            "specification": self.specification,
            "time": self.time,
            "time_s": self.time_s,
            "reason": self.reason,
            "counterexample": self.counterexample,
            "remainder": self.remainder,
            "counters": dict(self.counters),
            "certificate": self.certificate,
            "cross_check": self.cross_check,
            "attempts": self.attempts,
        }

    def to_json(self, indent: int | None = None) -> str:
        """Canonical JSON (compact by default; byte-stable round trip)."""
        separators = (",", ":") if indent is None else None
        return json.dumps(self.to_dict(), ensure_ascii=False,
                          separators=separators, indent=indent)

    @classmethod
    def from_dict(cls, document: Mapping[str, Any]) -> "VerificationReport":
        """Rebuild a report from :meth:`to_dict` output.

        Only :data:`REPORT_SCHEMA` documents parse; any other version is
        an error rather than a guess at the fields it lacks.
        """
        schema = document.get("schema")
        if schema != REPORT_SCHEMA:
            raise VerificationError(
                f"unsupported report schema {schema!r}; "
                f"expected {REPORT_SCHEMA}")
        counterexample = document.get("counterexample")
        return cls(
            verdict=document["verdict"],
            status=document.get("status", ""),
            method=document["method"],
            circuit=document["circuit"],
            width=document.get("width"),
            specification=document.get("specification"),
            time=document.get("time", "-"),
            time_s=document.get("time_s"),
            reason=document.get("reason"),
            counterexample=dict(counterexample)
            if counterexample is not None else None,
            remainder=document.get("remainder"),
            counters=dict(document.get("counters") or {}),
            certificate=document.get("certificate"),
            cross_check=document.get("cross_check"),
            attempts=list(document["attempts"])
            if document.get("attempts") is not None else None)

    @classmethod
    def from_json(cls, text: str) -> "VerificationReport":
        """Parse a report emitted by :meth:`to_json`."""
        return cls.from_dict(json.loads(text))

    # -- table-row interoperability --------------------------------------------

    def to_row(self) -> dict:
        """The report as an experiment-runner table row (a flat dict).

        The row is lossless: :meth:`from_row` rebuilds the same report.
        Key order matters: cached rows must serialize byte-identically to
        freshly executed ones, so the base keys come first, each optional
        field only when set, and the counters in their stored order.
        """
        row = {
            "architecture": self.circuit,
            "width": self.width,
            "method": self.method,
            "status": self.status,
            "time": self.time,
            "time_s": self.time_s,
            "verified": self.verified,
        }
        for key in _ROW_OPTIONAL_KEYS:
            value = getattr(self, key)
            if value is not None:
                row[key] = value
        row.update(self.counters)
        return row

    @classmethod
    def from_row(cls, row: Mapping[str, Any]) -> "VerificationReport":
        """Wrap an experiment-runner table row (exact inverse of :meth:`to_row`)."""
        status = row["status"]
        try:
            verdict = STATUS_TO_VERDICT[status]
        except KeyError:
            raise VerificationError(
                f"unknown row status {status!r}; expected one of "
                f"{tuple(STATUS_TO_VERDICT)}") from None
        counters = {key: value for key, value in row.items()
                    if key not in _ROW_BASE_KEYS}
        return cls(
            verdict=verdict,
            status=status,
            method=row["method"],
            circuit=row["architecture"],
            width=row["width"],
            time=row["time"],
            time_s=row["time_s"],
            counters=counters,
            **{key: row.get(key) for key in _ROW_OPTIONAL_KEYS})

    # -- backend-result constructors -------------------------------------------

    @classmethod
    def from_result(cls, result, circuit: str | None = None,
                    width: int | None = None) -> "VerificationReport":
        """Wrap a membership-testing :class:`VerificationResult`."""
        stats = result.model_statistics
        counters = {
            "cancelled_vanishing_monomials": result.cancelled_vanishing_monomials,
            "reduction_time_s": result.reduction_time_s,
            "rewrite_time_s": result.rewrite_time_s,
            "num_polynomials": stats.num_polynomials,
            "num_monomials": stats.num_monomials,
            "max_polynomial_terms": stats.max_polynomial_terms,
            "max_monomial_variables": stats.max_monomial_variables,
            "peak_remainder": result.reduction_trace.peak_monomials,
        }
        return cls(
            verdict="verified" if result.verified else "refuted",
            status="ok" if result.verified else "mismatch",
            method=result.method,
            circuit=circuit if circuit is not None else result.circuit,
            width=width,
            specification=result.specification,
            time=format_seconds(result.total_time_s),
            time_s=result.total_time_s,
            counterexample=result.counterexample,
            remainder=result.remainder_text if not result.verified else None,
            counters=counters,
            result=result)

    @classmethod
    def from_simulation(cls, tripped: "VerificationReport",
                        counterexample: dict[str, int], vectors: int,
                        elapsed_s: float) -> "VerificationReport":
        """A budget trip that the service's simulation stage refuted.

        The algebra did not finish, so there is no remainder and no engine
        counters: ``counters`` holds only ``simulated_vectors``, and
        ``reason`` keeps the trip's message.
        """
        return cls(
            verdict="refuted", status="mismatch", method=tripped.method,
            circuit=tripped.circuit, width=tripped.width,
            time=format_seconds(elapsed_s), time_s=elapsed_s,
            reason=tripped.reason, counterexample=counterexample,
            counters={"simulated_vectors": vectors})

    @classmethod
    def from_blowup(cls, error, method: str, circuit: str,
                    width: int | None = None,
                    elapsed_s: float | None = None) -> "VerificationReport":
        """Wrap a :class:`~repro.errors.BlowUpError` budget trip."""
        return cls(
            verdict="budget", status="TO", method=method, circuit=circuit,
            width=width, time="TO", time_s=elapsed_s, reason=str(error))

    @classmethod
    def from_failure(cls, request, status: str, reason: str,
                     time_s: float | None = None) -> "VerificationReport":
        """The report of a request that produced no report of its own.

        ``status`` is ``"error"`` (the run raised, or nothing could run
        it), ``"crash"`` (its worker process died) or ``"TO"`` (its hard
        task timeout killed the worker).  The circuit is the request's
        :meth:`~repro.api.request.VerificationRequest.display_name`, so an
        entry without an architecture still names what it was.
        """
        return cls(
            verdict=STATUS_TO_VERDICT[status], status=status,
            method=request.method, circuit=request.display_name(),
            width=request.width, time="TO" if status == "TO" else "-",
            time_s=time_s, reason=reason)

    @classmethod
    def from_sat_result(cls, result, circuit: str, width: int | None = None,
                        method: str = "sat-cec") -> "VerificationReport":
        """Wrap a SAT-miter :class:`SatCheckResult`."""
        status = {"equivalent": "ok", "different": "mismatch",
                  "unknown": "TO"}[result.status]
        return cls(
            verdict=STATUS_TO_VERDICT[status],
            status=status,
            method=method,
            circuit=circuit,
            width=width,
            time="TO" if result.timed_out else format_seconds(result.elapsed_s),
            time_s=result.elapsed_s,
            counterexample=result.counterexample,
            counters={"conflicts": result.conflicts,
                      "clauses": result.num_clauses},
            result=result)

    @classmethod
    def from_bdd_result(cls, result, circuit: str, width: int | None = None,
                        method: str = "bdd-cec") -> "VerificationReport":
        """Wrap a BDD :class:`BddCheckResult`."""
        status = {"equivalent": "ok", "different": "mismatch",
                  "unknown": "TO"}[result.status]
        return cls(
            verdict=STATUS_TO_VERDICT[status],
            status=status,
            method=method,
            circuit=circuit,
            width=width,
            time="TO" if result.timed_out else format_seconds(result.elapsed_s),
            time_s=result.elapsed_s,
            counters={"bdd_nodes": result.num_nodes},
            result=result)

    @classmethod
    def not_applicable(cls, method: str, circuit: str,
                       width: int | None = None) -> "VerificationReport":
        """A ``-`` table entry: the backend does not apply to this circuit."""
        return cls(verdict="not_applicable", status="n/a", method=method,
                   circuit=circuit, width=width, time="-", time_s=None)
