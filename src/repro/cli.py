"""Command-line interface.

Examples
--------

Generate and verify a multiplier::

    repro-verify verify --architecture BP-WT-CL --width 8 --method mt-lr

Verify a gate-level Verilog netlist::

    repro-verify verify-verilog mult.v --spec multiplier

Emit a proof certificate and re-check it independently of the engine::

    repro-verify verify -a SP-AR-RC -w 4 --certificate proof.json
    repro-verify check-certificate proof.json

Export a generated multiplier as Verilog::

    repro-verify generate --architecture SP-CT-BK --width 16 --output mult.v

Print one of the paper's tables (optionally across 4 worker processes)::

    repro-verify table table1 --jobs 4

Verify a whole architecture catalog in parallel::

    repro-verify batch --width 4 --methods mt-lr,mt-fo --jobs 4

Serve verification over HTTP (endpoints in ``docs/http-api.md``)::

    repro-verify serve --port 8585 --jobs 4 --cache .bench-cache

Verify every single-gate mutant of an architecture; each refutation is
cross-checked against the SAT miter and a disagreement exits 1::

    repro-verify campaign -a SP-AR-RC -w 4 --out campaign.jsonl

Exit codes (driven by the report verdict, uniform across ``verify``,
``verify-verilog`` and ``batch``):

* ``0`` — verified (or nothing applicable to check),
* ``1`` — usage or infrastructure error,
* ``2`` — refuted (a mismatch was proven),
* ``3`` — a budget/timeout tripped before a verdict (``batch`` also uses
  3 when any row crashed or errored without a refutation).

``check-certificate`` maps the checker verdict the same way — 0 when the
certificate proves ``verified``, 2 when it proves ``refuted``, 1 when it
is malformed or fails to check — without importing the engine, so its
exit code is independent of the machinery that emitted the proof.

``--json`` makes ``verify``/``verify-verilog`` emit one
:class:`~repro.api.report.VerificationReport` JSON object and ``batch``
one JSON line per row — the same schema the Python API returns (see
``repro/api/__init__.py``).
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.api.registry import backend_names, has_backend
from repro.api.report import VerificationReport
from repro.api.request import Budgets, VerificationRequest
from repro.api.service import VerificationService
from repro.circuit.verilog import save_verilog
from repro.errors import BlowUpError, ReproError
from repro.experiments.runner import ExperimentConfig
from repro.experiments.tables import main as tables_main
from repro.generators.adders import generate_adder
from repro.generators.catalog import (
    TABLE1_ARCHITECTURES,
    TABLE2_ARCHITECTURES,
    architecture_names,
)
from repro.generators.multipliers import generate_multiplier
from repro.resilience.policy import FallbackPolicy, RetryPolicy


def _add_fallback_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--fallback", default="none", metavar="SPEC",
                        help="graceful degradation when a budget trips: "
                             "'none' (default), 'default' (registry chains: "
                             "escalate budgets x4, then the backend's "
                             "degrades-to baseline, e.g. sat-cec), or an "
                             "explicit chain like 'escalate:8,sat-cec'")


def _add_budget_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--method", default="mt-lr",
                        choices=list(backend_names()),
                        help="verification backend (default: mt-lr)")
    parser.add_argument("--monomial-budget", type=int,
                        help="abort when the remainder exceeds this many monomials")
    parser.add_argument("--time-budget", type=float,
                        help="abort after this many seconds")
    parser.add_argument("--stats", action="store_true",
                        help="print the substitution-engine counters of the "
                             "rewriting passes and the GB reduction")
    parser.add_argument("--vanishing-cache-limit", type=int,
                        help="cap on the vanishing-rule verdict cache "
                             "(whole-cache reset on overflow; unset = the "
                             "default 1,000,000 cap)")
    parser.add_argument("--json", action="store_true",
                        help="emit the verification report as one JSON "
                             "object (schema in repro/api/__init__.py)")
    parser.add_argument("--certificate", default=None, metavar="PATH",
                        help="emit a checkable proof certificate to PATH "
                             "(algebraic backends only; re-check it with "
                             "'repro-verify check-certificate PATH')")


#: Budget flags (argparse ``dest``) and the ``Budgets`` field each sets.
_BUDGET_FLAGS = {"monomial_budget": "monomial_budget",
                 "time_budget": "time_budget_s",
                 "vanishing_cache_limit": "vanishing_cache_limit",
                 "task_timeout": "task_timeout_s"}


def _budgets_from_args(args: argparse.Namespace,
                       base: Budgets = Budgets()) -> Budgets:
    """The budget flags a user set (unset ones are ``None``) over ``base``."""
    return base.replace(**{
        field: getattr(args, flag) for flag, field in _BUDGET_FLAGS.items()
        if getattr(args, flag, None) is not None})


def _print_engine_stats(result) -> None:
    """Per-pass counters reported by the shared substitution engine."""
    for stats in result.rewrite_statistics:
        print(f"rewrite[{stats.scheme}]: steps={stats.substitution_steps} "
              f"affected-terms={stats.affected_terms} "
              f"rejected={stats.rejected_substitutions} "
              f"cvm={stats.cancelled_vanishing_monomials} "
              f"peak-tail={stats.peak_tail_terms} "
              f"kept={stats.kept_variables} "
              f"substituted={stats.substituted_variables} "
              f"batches={stats.batches} "
              f"batched-steps={stats.batched_steps} "
              f"time={stats.elapsed_s:.3f}s")
        if stats.vanishing_cache_hits or stats.vanishing_cache_misses:
            print(f"  vanishing-cache[{stats.scheme}]: "
                  f"hits={stats.vanishing_cache_hits} "
                  f"misses={stats.vanishing_cache_misses} "
                  f"size={stats.vanishing_cache_size} "
                  f"resets={stats.vanishing_cache_resets}")
    trace = result.reduction_trace
    print(f"reduction: substitutions={trace.substitutions} "
          f"affected-terms={trace.affected_terms} "
          f"modulus-removed={trace.modulus_removed_terms} "
          f"peak-remainder={trace.peak_monomials} "
          f"batches={trace.batches} "
          f"batched-steps={trace.batched_steps} "
          f"time={trace.elapsed_s:.3f}s")


def _print_counterexample(counterexample: dict[str, int]) -> None:
    assignment = ", ".join(f"{k}={v}" for k, v in
                           sorted(counterexample.items()))
    print("counterexample:", assignment)


def _report(result, show_stats: bool = False) -> int:
    print(result.summary())
    if show_stats:
        _print_engine_stats(result)
    if not result.verified:
        print("remainder:", result.remainder_text or "(non-zero)")
        if result.counterexample:
            _print_counterexample(result.counterexample)
        return 2
    stats = result.model_statistics
    print(f"model: #P={stats.num_polynomials} #M={stats.num_monomials} "
          f"#MP={stats.max_polynomial_terms} #VM={stats.max_monomial_variables}")
    return 0


def _run_request(request: VerificationRequest, args: argparse.Namespace) -> int:
    """Submit one request to the service and render its report."""
    fallback = FallbackPolicy.parse(getattr(args, "fallback", "none"))
    service = VerificationService(fallback_policy=fallback)
    report = service.submit(request)
    if report.attempts and len(report.attempts) > 1:
        trail = " -> ".join(f"{entry['method']}[{entry['kind']}]="
                            f"{entry['outcome']}"
                            for entry in report.attempts)
        print(f"fallback: {trail}", file=sys.stderr)
    if args.certificate and report.certificate is not None:
        from repro.certify import write_certificate
        write_certificate(report.certificate, args.certificate)
        print(f"certificate: wrote {report.certificate['sha256']} "
              f"to {args.certificate}", file=sys.stderr)
    if args.json:
        print(report.to_json())
        return report.exit_code
    if report.verdict == "budget":
        reason = report.reason or "budget exhausted before a verdict"
        print(f"TIMEOUT/BLOW-UP: {reason}", file=sys.stderr)
        return report.exit_code
    if report.result is not None and hasattr(report.result, "summary"):
        # Algebraic backends: the rich engine output (+ --stats counters).
        _report(report.result, show_stats=args.stats)
        return report.exit_code
    # SAT/BDD baselines and simulation refutations: the uniform report
    # summary (the algebra stopped before a simulation refutation, at a
    # budget trip or at the refutation probe, so --stats has no counters
    # to print; the reason names which).
    print(report.summary())
    if "simulated_vectors" in report.counters:
        print(f"refuted by simulation over "
              f"{report.counters['simulated_vectors']} vectors after "
              f"{report.reason}")
    if report.verdict == "refuted" and report.counterexample:
        _print_counterexample(report.counterexample)
    return report.exit_code


def _cmd_verify(args: argparse.Namespace) -> int:
    request = VerificationRequest.from_architecture(
        args.architecture, args.width, method=args.method,
        circuit_kind="adder" if args.adder else "multiplier",
        budgets=_budgets_from_args(args),
        certificate=bool(args.certificate))
    return _run_request(request, args)


def _cmd_verify_verilog(args: argparse.Namespace) -> int:
    request = VerificationRequest.from_verilog(
        path=args.netlist, method=args.method, specification=args.spec,
        budgets=_budgets_from_args(args),
        certificate=bool(args.certificate))
    return _run_request(request, args)


def _cmd_check_certificate(args: argparse.Namespace) -> int:
    """Re-check a proof certificate without touching the engine.

    Imports only :mod:`repro.certify.checker` (which itself depends only
    on the algebra primitives), so the exit code is an independent
    judgement: 0 = the certificate proves ``verified``, 2 = it proves
    ``refuted``, 1 = it is malformed or fails to check.
    """
    from repro.certify import load_certificate
    from repro.certify.checker import check_certificate
    from repro.errors import CertificateError
    failures = 0
    saw_refuted = False
    for path in args.certificate:
        try:
            summary = check_certificate(load_certificate(path))
        except CertificateError as error:
            step = "" if error.step is None else f" step {error.step}"
            print(f"{path}: INVALID [{error.stage}{step}] {error}",
                  file=sys.stderr)
            failures += 1
            continue
        print(f"{path}: valid {summary['verdict']} "
              f"({summary['method']}, {summary['circuit']}, "
              f"steps={summary['steps']}, "
              f"vanishing={summary['vanishing_rules']}, "
              f"model-check={summary['model_check']}, "
              f"sha256={summary['sha256'][:16]}...)")
        if summary["verdict"] == "refuted":
            # A checked refutation is a real verdict, not a failure of the
            # certificate — surface it through the uniform exit codes.
            saw_refuted = True
    if failures:
        return 1
    return 2 if saw_refuted else 0


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.adder:
        netlist = generate_adder(args.architecture, args.width)
    else:
        netlist = generate_multiplier(args.architecture, args.width)
    if args.output:
        save_verilog(netlist, args.output)
        print(f"wrote {netlist.num_gates} gates to {args.output}")
    else:
        from repro.circuit.verilog import write_verilog
        sys.stdout.write(write_verilog(netlist))
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    argv = [args.name]
    if args.jobs is not None:
        argv += ["--jobs", str(args.jobs)]
    return tables_main(argv)


def _resolve_batch_architectures(spec: str) -> list[str]:
    if spec == "table1":
        return list(TABLE1_ARCHITECTURES)
    if spec == "table2":
        return list(TABLE2_ARCHITECTURES)
    if spec == "all":
        return architecture_names()
    return [name.strip() for name in spec.split(",") if name.strip()]


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the HTTP verification server until interrupted."""
    from repro.server import serve

    fleet_topology = None
    if args.fleet:
        from repro.fleet import FleetTopology

        fleet_topology = FleetTopology.from_file(args.fleet)

    def announce(server) -> None:
        print(f"repro-verify serve: listening on "
              f"http://{server.host}:{server.port} "
              f"(jobs={args.jobs}, cache={args.cache or '-'})",
              file=sys.stderr, flush=True)

    serve(host=args.host, port=args.port, announce=announce,
          budgets=_budgets_from_args(args),
          jobs=args.jobs, cache_dir=args.cache,
          job_store_limit=args.job_store_limit,
          max_inflight=args.max_inflight,
          request_deadline_s=args.request_deadline,
          retry_policy=(RetryPolicy(max_attempts=args.retries + 1)
                        if args.retries else None),
          fallback_policy=FallbackPolicy.parse(args.fallback),
          shared_cache_url=args.shared_cache,
          fleet_topology=fleet_topology)
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    """Run a mutation campaign; exit 1 when a SAT cross-check disagrees."""
    from repro.experiments.campaign import run_campaign

    architectures = [name.strip() for name in args.architectures.split(",")
                     if name.strip()]

    def on_row(row: dict) -> None:
        print(f"{row['id']}: {row['verdict']}", file=sys.stderr, flush=True)

    summary = run_campaign(
        architectures, args.width, args.method,
        budgets=_budgets_from_args(args),
        out_path=args.out,
        resume=args.resume,
        sample=args.sample,
        seed=args.seed,
        limit=args.limit,
        jobs=args.jobs,
        on_row=on_row)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 1 if summary["cross_check_disagreements"] else 0


def _cmd_batch(args: argparse.Namespace) -> int:
    """Run a catalog of verification jobs, optionally across processes.

    The stdout verdict lines are deterministic (ordered by the job grid and
    free of timing data), so the output is byte-identical for any ``--jobs``
    value and with or without ``--fleet``; timings go to the optional
    ``--output`` JSON file.  Rows print in grid order as soon as each
    resolves.  ``--fleet`` scatters the grid over remote serve workers
    (its counters go to stderr) and ignores ``--fallback`` and
    ``--retries``.
    """
    architectures = _resolve_batch_architectures(args.architectures)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    for method in methods:
        if not has_backend(method):
            print(f"error: unknown method {method!r}; expected one of "
                  f"{', '.join(backend_names())}", file=sys.stderr)
            return 1
    config = ExperimentConfig.from_environment()
    cache_dir = args.cache if args.cache is not None else config.cache_dir
    retry_policy = (RetryPolicy(max_attempts=args.retries + 1)
                    if args.retries else None)
    fallback = FallbackPolicy.parse(args.fallback)
    # The cache keeps each backend's own row; a budget row is degraded
    # through the fallback chain, whose rungs run uncached on the pool.
    service = VerificationService(
        jobs=args.jobs, cache_dir=cache_dir, retry_policy=retry_policy,
        fallback_policy=fallback)
    requests = service.grid(architectures, args.width, methods,
                            _budgets_from_args(args, config.budgets))
    batch = service
    if args.fleet:
        import dataclasses

        from repro.fleet import FleetDispatcher, FleetTopology

        topology = FleetTopology.from_file(args.fleet)
        if args.cache:
            topology = dataclasses.replace(topology, cache_dir=args.cache)
        batch = FleetDispatcher(topology)

    reports: list[VerificationReport] = []
    rows = []
    counts: dict[str, int] = {}
    for report in batch.iter_batch(requests):
        reports.append(report)
        row = report.to_row()
        rows.append(row)
        if args.json:
            # One report JSON line per row — the same schema as the Python
            # API and `verify --json`; footers are human output only.
            print(report.to_json(), flush=True)
            continue
        verdict = ("pass" if row["verified"] else
                   "FAIL" if row["verified"] is False else
                   row["status"])
        counts[verdict] = counts.get(verdict, 0) + 1
        print(f"{row['architecture']:<12} {row['width']:>3} "
              f"{row['method']:<8} {verdict}", flush=True)
    if not args.json:
        print("summary: " + " ".join(f"{verdict}={count}" for verdict, count
                                     in sorted(counts.items())))
    if not args.json and not args.fleet:
        if cache_dir:
            # Cache-aware footer: deterministic for a given cache directory,
            # so the output stays byte-identical across --jobs values.
            print(f"cache: hits={service.last_cache_hits} "
                  f"executed={service.last_executed}")
        if retry_policy is not None or fallback is not None:
            # Only printed when resilience flags are on, so default batch
            # output stays byte-identical to earlier releases.
            print(f"resilience: retries={service.last_retries} "
                  f"fallbacks={service.last_fallbacks}")
    if args.fleet:
        print(f"fleet: workers={len(topology.workers)} "
              f"cache-hits={batch.last_cache_hits} "
              f"executed={batch.last_executed} "
              f"retries={batch.last_retries} "
              f"steals={batch.last_steals}", file=sys.stderr, flush=True)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(rows, handle, indent=2, default=str)
        print(f"wrote {len(rows)} rows to {args.output}", file=sys.stderr)
    # Exit-code mapping (see module docstring): refutations dominate, then
    # budget trips / infrastructure failures, then success.
    if any(report.verdict == "refuted" for report in reports):
        return 2
    if any(report.verdict in ("budget", "error") for report in reports):
        return 3
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-verify",
        description="Formal verification of integer multipliers by combining "
                    "Gröbner basis with logic reduction (DATE 2016 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="generate and verify an architecture")
    p_verify.add_argument("--architecture", "-a", default="SP-AR-RC",
                          help="architecture name, e.g. BP-WT-CL, or adder kind with --adder")
    p_verify.add_argument("--width", "-w", type=int, default=8,
                          help="operand width in bits")
    p_verify.add_argument("--adder", action="store_true",
                          help="verify a standalone adder instead of a multiplier")
    _add_budget_arguments(p_verify)
    _add_fallback_argument(p_verify)
    p_verify.set_defaults(func=_cmd_verify)

    p_vv = sub.add_parser("verify-verilog",
                          help="verify a gate-level Verilog netlist")
    p_vv.add_argument("netlist", help="path to the Verilog file")
    p_vv.add_argument("--spec", default="multiplier",
                      choices=["multiplier", "adder"])
    _add_budget_arguments(p_vv)
    _add_fallback_argument(p_vv)
    p_vv.set_defaults(func=_cmd_verify_verilog)

    p_check = sub.add_parser(
        "check-certificate",
        help="independently re-check proof certificates (engine-free)")
    p_check.add_argument("certificate", nargs="+", metavar="PATH",
                         help="certificate JSON file(s) written by "
                              "'verify --certificate'")
    p_check.set_defaults(func=_cmd_check_certificate)

    p_gen = sub.add_parser("generate", help="generate a circuit and export Verilog")
    p_gen.add_argument("--architecture", "-a", default="SP-AR-RC")
    p_gen.add_argument("--width", "-w", type=int, default=8)
    p_gen.add_argument("--adder", action="store_true")
    p_gen.add_argument("--output", "-o", default=None)
    p_gen.set_defaults(func=_cmd_generate)

    p_table = sub.add_parser("table", help="print one of the paper's tables")
    p_table.add_argument("name", choices=["table1", "table2", "table3",
                                          "adders", "ablation"])
    p_table.add_argument("--jobs", "-j", type=int, default=None,
                         help="worker processes for the table's runs")
    p_table.set_defaults(func=_cmd_table)

    p_batch = sub.add_parser(
        "batch", help="run a catalog of verifications, optionally in parallel")
    p_batch.add_argument("--architectures", "-a", default="all",
                         help="'table1', 'table2', 'all' or a comma-separated "
                              "list of architecture names (default: all)")
    p_batch.add_argument("--width", "-w", type=int, nargs="+", default=[4],
                         help="operand widths in bits (default: 4)")
    p_batch.add_argument("--methods", "-m", default="mt-lr",
                         help="comma-separated methods "
                              f"({', '.join(backend_names())})")
    p_batch.add_argument("--jobs", "-j", type=int, default=1,
                         help="worker processes (default: 1 = serial)")
    p_batch.add_argument("--task-timeout", type=float,
                         help="hard per-job wall-clock limit in seconds "
                              "(enforced by killing the worker)")
    p_batch.add_argument("--cache", default=None, metavar="DIR",
                         help="on-disk result cache directory (also "
                              "REPRO_BENCH_CACHE); re-runs only execute "
                              "changed or uncached jobs")
    p_batch.add_argument("--output", "-o", default=None,
                         help="write full result rows (with timings) to this "
                              "JSON file")
    p_batch.add_argument("--monomial-budget", type=int,
                         help="override the REPRO_BENCH_MONOMIAL_BUDGET / "
                              "default budget for this batch")
    p_batch.add_argument("--time-budget", type=float)
    p_batch.add_argument("--json", action="store_true",
                         help="emit one verification-report JSON line per "
                              "row instead of the verdict table")
    p_batch.add_argument("--retries", type=int, default=0, metavar="N",
                         help="retry crashed / hard-timed-out jobs up to N "
                              "times on fresh workers with exponential "
                              "backoff (default: 0 = no retries)")
    p_batch.add_argument("--fleet", default=None, metavar="CONFIG",
                         help="fleet topology JSON file: scatter the grid "
                              "over remote repro-verify serve workers "
                              "instead of local processes (docs/fleet.md); "
                              "--cache becomes the coordinator-side shared "
                              "result cache")
    _add_fallback_argument(p_batch)
    p_batch.set_defaults(func=_cmd_batch)

    p_serve = sub.add_parser(
        "serve", help="serve verification over HTTP (see docs/http-api.md)")
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="bind address (default: 127.0.0.1)")
    p_serve.add_argument("--port", "-p", type=int, default=8585,
                         help="TCP port; 0 binds an ephemeral port "
                              "(default: 8585)")
    p_serve.add_argument("--jobs", "-j", type=int, default=1,
                         help="worker processes per batch, kept running "
                              "between batches (default: 1)")
    p_serve.add_argument("--cache", default=None, metavar="DIR",
                         help="on-disk result cache directory shared by "
                              "every batch")
    p_serve.add_argument("--job-store-limit", type=int, default=256,
                         help="bound on the async job store; finished jobs "
                              "are evicted oldest-first (default: 256)")
    p_serve.add_argument("--monomial-budget", type=int,
                         help="default monomial budget of served requests")
    p_serve.add_argument("--time-budget", type=float,
                         help="default per-request time budget in seconds")
    p_serve.add_argument("--task-timeout", type=float,
                         help="default hard per-job wall-clock limit of "
                              "served batches")
    p_serve.add_argument("--max-inflight", type=int, default=None,
                         help="bound on concurrently executing verification "
                              "requests; excess POSTs are answered 429 with "
                              "a Retry-After header (default: unbounded)")
    p_serve.add_argument("--request-deadline", type=float, default=None,
                         metavar="SECONDS",
                         help="per-request wall-clock deadline; requests "
                              "asking for more get their time budgets "
                              "clamped and answer verdict 'budget' "
                              "(default: none)")
    p_serve.add_argument("--retries", type=int, default=0, metavar="N",
                         help="retry crashed / hard-timed-out batch jobs up "
                              "to N times (default: 0)")
    p_serve.add_argument("--fleet", default=None, metavar="CONFIG",
                         help="fleet topology JSON file: this server "
                              "becomes a coordinator scattering /v1/batch "
                              "over the named workers (docs/fleet.md)")
    p_serve.add_argument("--shared-cache", dest="shared_cache", default=None,
                         metavar="URL",
                         help="coordinator URL whose /v1/cache/{key} this "
                              "worker checks before executing and populates "
                              "after (docs/fleet.md)")
    _add_fallback_argument(p_serve)
    p_serve.set_defaults(func=_cmd_serve)

    p_campaign = sub.add_parser(
        "campaign",
        help="mutation campaign: verify every single-gate mutant of an "
             "architecture grid")
    p_campaign.add_argument("--architectures", "-a", default="SP-AR-RC",
                            help="comma-separated architecture names "
                                 "(default: SP-AR-RC)")
    p_campaign.add_argument("--width", "-w", type=int, nargs="+", default=[4],
                            help="operand widths in bits (default: 4)")
    p_campaign.add_argument("--method", default="mt-lr",
                            choices=list(backend_names()),
                            help="verification backend (default: mt-lr)")
    p_campaign.add_argument("--out", "-o", default=None, metavar="PATH",
                            help="append one JSON row per mutant to this "
                                 "JSONL file")
    p_campaign.add_argument("--resume", action="store_true",
                            help="skip mutants whose row id already appears "
                                 "in --out (interrupted-campaign restart)")
    p_campaign.add_argument("--sample", type=int, default=None, metavar="N",
                            help="seeded cap on mutants per architecture×"
                                 "width cell (default: all mutants)")
    p_campaign.add_argument("--seed", type=int, default=0,
                            help="seed of the mutant sample (default: 0)")
    p_campaign.add_argument("--limit", type=int, default=None,
                            help="hard cap on executed tasks (smoke runs)")
    p_campaign.add_argument("--jobs", "-j", type=int, default=1,
                            help="worker processes (default: 1 = serial)")
    p_campaign.add_argument("--monomial-budget", type=int)
    p_campaign.add_argument("--time-budget", type=float)
    p_campaign.set_defaults(func=_cmd_campaign)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BlowUpError as error:
        print(f"TIMEOUT/BLOW-UP: {error}", file=sys.stderr)
        return 3
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
