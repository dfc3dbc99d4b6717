"""Regeneration of the paper's evaluation tables.

* :func:`table1_rows` — Table I: simple-partial-product multipliers, columns
  for the conventional CEC baselines (stand-ins for the commercial tool and
  the CPP approach), MT-FO and MT-LR.
* :func:`table2_rows` — Table II: Booth multipliers (CPP stand-in reported
  as not applicable, as in the paper).
* :func:`table3_rows` — Table III: MT-LR statistics (#CVM, GB-reduction
  time, #P, #M, #MP, #VM).
* :func:`adder_blowup_rows` — the Section III observation that plain GB
  reduction blows up on parallel-prefix adders.
* :func:`ablation_rows` — XOR rewriting without common rewriting
  (Section IV-B remark).

Each function returns a list of dictionaries; :func:`format_table` renders
them in a paper-like fixed-width layout.  The operand widths default to
Python-feasible sizes (4/8 bit) and can be extended through
``REPRO_BENCH_BITS``, as documented in EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.api.registry import (
    ABLATION_METHODS,
    ADDER_BLOWUP_METHODS,
    COMPARISON_METHODS,
    TABLE1_BASELINES,
    TABLE2_BASELINES,
)
from repro.api.request import Budgets, VerificationRequest
from repro.api.service import VerificationService
from repro.errors import BlowUpError
from repro.experiments.runner import ExperimentConfig
from repro.generators.adders import generate_adder
from repro.generators.catalog import TABLE1_ARCHITECTURES, TABLE2_ARCHITECTURES, \
    TABLE3_ARCHITECTURES
from repro.verification.engine import verify_adder


def _merge_method_columns(architecture: str, width: int, columns: dict) -> dict:
    row = {"benchmark": architecture, "bits": f"{width}/{2 * width}"}
    row.update(columns)
    return row


def _service(config: ExperimentConfig) -> VerificationService:
    return VerificationService(jobs=config.jobs, cache_dir=config.cache_dir)


def _method_grid(architectures: Sequence[str], widths: Sequence[int],
                 methods: Sequence[str], config: ExperimentConfig,
                 ) -> dict[tuple[str, int, str], dict]:
    """All (architecture, width, method) table rows, keyed for column assembly.

    Runs through :meth:`VerificationService.run_grid`, so with
    ``config.jobs > 1`` the whole grid is fanned across worker processes.
    """
    reports = _service(config).run_grid(architectures, widths, methods,
                                        config.budgets)
    return {(report.circuit, report.width, report.method): report.to_row()
            for report in reports}


def table1_rows(config: ExperimentConfig | None = None,
                architectures: Sequence[str] = TABLE1_ARCHITECTURES,
                include_baselines: bool = True) -> list[dict]:
    """Verification results for simple-partial-product multipliers (Table I)."""
    config = config or ExperimentConfig.from_environment()
    methods = (list(TABLE1_BASELINES) if include_baselines else [])
    methods += list(COMPARISON_METHODS)
    grid = _method_grid(architectures, config.widths, methods, config)
    rows = []
    for width in config.widths:
        for architecture in architectures:
            columns = {}
            if include_baselines:
                for baseline in TABLE1_BASELINES:
                    columns[baseline] = grid[architecture, width, baseline]["time"]
            for method in COMPARISON_METHODS:
                columns[method] = grid[architecture, width, method]["time"]
            primary = grid[architecture, width, COMPARISON_METHODS[-1]]
            columns["verified"] = primary["verified"]
            rows.append(_merge_method_columns(architecture, width, columns))
    return rows


def table2_rows(config: ExperimentConfig | None = None,
                architectures: Sequence[str] = TABLE2_ARCHITECTURES,
                include_baselines: bool = True) -> list[dict]:
    """Verification results for Booth multipliers (Table II).

    The CPP stand-in column is reported as ``-`` because the approach does
    not support Booth partial products (see the paper's Table II).
    """
    config = config or ExperimentConfig.from_environment()
    methods = (list(TABLE2_BASELINES) if include_baselines else [])
    methods += list(COMPARISON_METHODS)
    grid = _method_grid(architectures, config.widths, methods, config)
    rows = []
    for width in config.widths:
        for architecture in architectures:
            columns = {}
            if include_baselines:
                for baseline in TABLE2_BASELINES:
                    columns[baseline] = grid[architecture, width, baseline]["time"]
                # The CPP stand-in (sat-cec) does not support Booth
                # partial products.
                columns["cpp"] = ("-" if architecture.upper().startswith("BP")
                                  else grid[architecture, width,
                                            "sat-cec"]["time"])
            for method in COMPARISON_METHODS:
                columns[method] = grid[architecture, width, method]["time"]
            primary = grid[architecture, width, COMPARISON_METHODS[-1]]
            columns["verified"] = primary["verified"]
            rows.append(_merge_method_columns(architecture, width, columns))
    return rows


def table3_rows(config: ExperimentConfig | None = None,
                architectures: Sequence[str] = TABLE3_ARCHITECTURES) -> list[dict]:
    """MT-LR statistics (Table III): #CVM, GB-reduction time, #P, #M, #MP, #VM."""
    config = config or ExperimentConfig.from_environment()
    rows = []
    width = max(config.widths)
    # Table III reports the paper's primary method (the last comparison
    # column, MT-LR).
    method = COMPARISON_METHODS[-1]
    runs = _method_grid(architectures, [width], [method], config)
    for architecture in architectures:
        run = runs[architecture, width, method]
        if run["status"] in ("TO", "error", "crash"):
            rows.append({"benchmark": architecture, "bits": f"{width}/{2 * width}",
                         "#CVM": "TO", "GB reduction": "TO", "#P": "-",
                         "#M": "-", "#MP": "-", "#VM": "-"})
            continue
        rows.append({
            "benchmark": architecture,
            "bits": f"{width}/{2 * width}",
            "#CVM": run["cancelled_vanishing_monomials"],
            "GB reduction": f"{run['reduction_time_s']:.2f}s",
            "#P": run["num_polynomials"],
            "#M": run["num_monomials"],
            "#MP": run["max_polynomial_terms"],
            "#VM": run["max_monomial_variables"],
        })
    return rows


def adder_blowup_rows(widths: Iterable[int] = (4, 8, 12, 16, 24, 32),
                      adder_kind: str = "KS",
                      monomial_budget: int = 100_000,
                      time_budget_s: float = 20.0) -> list[dict]:
    """Section III observation: parallel-prefix adders under the three methods.

    Reference [8] of the paper reports that plain symbolic computer algebra
    cannot verify Kogge-Stone adders beyond 6 bits; MT-LR handles them
    easily because the vanishing monomials are removed during rewriting.
    """
    rows = []
    for width in widths:
        row = {"adder": f"{adder_kind}-{width}"}
        for method in ADDER_BLOWUP_METHODS:
            netlist = generate_adder(adder_kind, width)
            try:
                result = verify_adder(netlist, method=method,
                                      budgets=Budgets(
                                          monomial_budget=monomial_budget,
                                          time_budget_s=time_budget_s),
                                      find_counterexample=False)
                row[method] = f"{result.total_time_s:.2f}s"
                row[f"{method}-peak"] = result.reduction_trace.peak_monomials
            except BlowUpError:
                row[method] = "TO"
                row[f"{method}-peak"] = f">{monomial_budget}"
        rows.append(row)
    return rows


def ablation_rows(config: ExperimentConfig | None = None,
                  architectures: Sequence[str] = ("SP-CT-BK", "BP-WT-CL"),
                  ) -> list[dict]:
    """Ablation of the two rewriting passes (Section IV-B).

    Compares full MT-LR against XOR rewriting without the common-rewriting
    pass (``mt-xor``) and against fanout rewriting (``mt-fo``).
    """
    config = config or ExperimentConfig.from_environment()
    # Fresh in-process runs (submit never reads the cache): the ablation
    # compares timings.
    service = _service(config)
    rows = []
    width = max(config.widths)
    for architecture in architectures:
        row = {"benchmark": architecture, "bits": f"{width}/{2 * width}"}
        for method in ABLATION_METHODS:
            run = service.submit(VerificationRequest.from_architecture(
                architecture, width, method, budgets=config.budgets,
                find_counterexample=False)).to_row()
            row[method] = run["time"]
            row[f"{method}-peak"] = run.get("peak_remainder", "-")
        rows.append(row)
    return rows


def format_table(rows: Sequence[dict], title: str = "") -> str:
    """Render rows as a fixed-width text table (paper-style)."""
    if not rows:
        return f"{title}\n(no rows)\n"
    columns = list(rows[0].keys())
    widths = {col: max(len(str(col)),
                       max(len(str(row.get(col, ""))) for row in rows))
              for col in columns}
    lines = []
    if title:
        lines.append(title)
    header = " | ".join(str(col).ljust(widths[col]) for col in columns)
    lines.append(header)
    lines.append("-+-".join("-" * widths[col] for col in columns))
    for row in rows:
        lines.append(" | ".join(str(row.get(col, "")).ljust(widths[col])
                                for col in columns))
    return "\n".join(lines) + "\n"


def main(argv: Sequence[str] | None = None) -> int:
    """``python -m repro.experiments.tables table1|table2|table3|adders|ablation``.

    ``--jobs N`` fans the underlying verification runs across ``N`` worker
    processes (see :class:`repro.experiments.runner.ParallelRunner`).
    """
    import sys

    argv = list(sys.argv[1:] if argv is None else argv)
    jobs = None
    if "--jobs" in argv:
        position = argv.index("--jobs")
        try:
            jobs = int(argv[position + 1])
        except (IndexError, ValueError):
            print("--jobs requires an integer argument", file=sys.stderr)
            return 1
        del argv[position:position + 2]
    target = argv[0] if argv else "table1"
    config = ExperimentConfig.from_environment()
    if jobs is not None:
        config.jobs = jobs
    if target == "table1":
        print(format_table(table1_rows(config), "Table I (simple partial products)"))
    elif target == "table2":
        print(format_table(table2_rows(config), "Table II (Booth partial products)"))
    elif target == "table3":
        print(format_table(table3_rows(config), "Table III (MT-LR statistics)"))
    elif target == "adders":
        print(format_table(adder_blowup_rows(), "Parallel adder blow-up (Section III)"))
    elif target == "ablation":
        print(format_table(ablation_rows(config), "Rewriting ablation (Section IV-B)"))
    else:
        print(f"unknown table {target!r}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
