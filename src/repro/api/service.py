"""The verification service: one front door over every backend.

:class:`VerificationService` is the programmatic entry point of the
reproduction.  :meth:`~VerificationService.submit` runs a single
:class:`~repro.api.request.VerificationRequest` in-process and returns a
:class:`~repro.api.report.VerificationReport`; budget trips come back as
``verdict="budget"`` reports instead of exceptions.
:meth:`~VerificationService.run_batch` fans many requests across the
persistent worker pool of :class:`~repro.experiments.runner.ParallelRunner`
— crash isolation, hard task timeouts, the on-disk result cache, and
longest-expected-first scheduling included — without the caller touching
runner internals.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Callable, Iterator, Sequence

from repro.api.registry import backends, get_backend
from repro.api.report import VerificationReport
from repro.api.request import Budgets, VerificationRequest
from repro.errors import BlowUpError, VerificationError


def _certifiable_backends():
    return tuple(spec for spec in backends() if spec.certifiable)


def pool_eligible(request: VerificationRequest) -> bool:
    """True when a request can run through the worker pool / fleet.

    The pool (and the shared result cache keyed by netlist content) only
    handles architecture-sourced multiplier requests with the
    runner-default knobs: no custom specification, no ``xor_and_only``,
    no counterexample search, default seed, and certificates only from
    certifiable backends.  Everything else runs through in-process
    :meth:`VerificationService.submit` with identical semantics.
    """
    return (request.architecture is not None
            and request.circuit_kind == "multiplier"
            and request.specification is None
            and not request.xor_and_only
            and not request.find_counterexample
            and request.seed == 0
            and (not request.certificate
                 or get_backend(request.method).certifiable))


def experiment_config_for(budgets: Budgets,
                          golden_architecture: str = "SP-AR-RC"):
    """Map a budget bundle onto a runner :class:`ExperimentConfig`, verbatim.

    The budgets are authoritative — ``None`` means "guard disabled"
    exactly as in :meth:`VerificationService.submit`, and
    ``REPRO_BENCH_*`` environment overrides do not apply.
    """
    from repro.experiments.runner import ExperimentConfig
    config = ExperimentConfig()
    config.monomial_budget = budgets.monomial_budget
    config.time_budget_s = budgets.time_budget_s
    config.sat_conflict_budget = budgets.sat_conflict_budget
    config.bdd_node_budget = budgets.bdd_node_budget
    config.vanishing_cache_limit = budgets.vanishing_cache_limit
    config.golden_architecture = golden_architecture
    return config


def request_cache_key(request: VerificationRequest,
                      golden_architecture: str = "SP-AR-RC") -> str | None:
    """Content-addressed result-cache key of a request (``None`` = uncacheable).

    The request-level view of
    :func:`repro.experiments.runner.result_cache_key`: only
    :func:`pool_eligible` requests are keyable, and the key is exactly
    the one a pooled :meth:`VerificationService.run_batch` job would use
    under the request's own budgets — so the fleet's shared cache and a
    local batch run address the same entries.
    """
    if not pool_eligible(request):
        return None
    from repro.experiments.runner import VerificationJob, result_cache_key
    job = VerificationJob(request.architecture, request.width, request.method,
                          certificate=request.certificate)
    config = experiment_config_for(request.budgets, golden_architecture)
    return result_cache_key(job, config,
                            task_timeout_s=request.budgets.task_timeout_s)


class VerificationService:
    """Submit verification requests against the registered backends.

    Parameters
    ----------
    budgets:
        Service-level default budgets; :meth:`run_batch` jobs run under
        them unless a request carries its own budget group (per-request
        :class:`~repro.api.request.Budgets` are honoured job-by-job).
    golden_architecture:
        Reference architecture the SAT baseline compares against.
    jobs:
        Default worker-process count of :meth:`run_batch`.
    task_timeout_s:
        Default hard per-job wall-clock limit of :meth:`run_batch`.
    cache_dir:
        On-disk result cache directory for :meth:`run_batch` (also
        honours ``REPRO_BENCH_CACHE`` when left unset, like the runner).
    retry_policy:
        A :class:`repro.resilience.RetryPolicy` handed to the worker pool
        of :meth:`run_batch`: crashed and hard-timed-out jobs get further
        attempts on a fresh worker, with the history recorded in the
        report's ``attempts`` field.  ``None`` (the default) keeps the
        report-first-failure behaviour.
    fallback_policy:
        A :class:`repro.resilience.FallbackPolicy` applied to
        ``verdict="budget"`` reports: the tripped backend's degradation
        chain (escalated budgets, then the backends in its registry
        ``degrades_to``) runs in-process until a rung produces a real
        verdict, every rung recorded in ``attempts``.  ``None`` disables
        graceful degradation.
    """

    def __init__(self, budgets: Budgets | None = None,
                 golden_architecture: str = "SP-AR-RC",
                 jobs: int = 1,
                 task_timeout_s: float | None = None,
                 cache_dir: str | os.PathLike | None = None,
                 retry_policy=None,
                 fallback_policy=None) -> None:
        self.budgets = budgets if budgets is not None else Budgets()
        self.golden_architecture = golden_architecture
        self.jobs = jobs
        self.task_timeout_s = task_timeout_s
        self.cache_dir = cache_dir
        self.retry_policy = retry_policy
        self.fallback_policy = fallback_policy
        #: Cache hit / fresh-execution counts of the last :meth:`run_batch`.
        self.last_cache_hits = 0
        self.last_executed = 0
        #: Retry attempts / fallback rungs spent by the last :meth:`run_batch`.
        self.last_retries = 0
        self.last_fallbacks = 0

    # -- single requests -------------------------------------------------------

    def submit(self, request: VerificationRequest) -> VerificationReport:
        """Run one request in-process and return its report.

        Budget trips (:class:`~repro.errors.BlowUpError`) are reported as
        ``verdict="budget"``; malformed requests (unknown architecture,
        unparsable Verilog, inapplicable specification) still raise
        :class:`~repro.errors.ReproError` subclasses.  With a
        :attr:`fallback_policy`, a budget verdict degrades through the
        backend's chain (see :meth:`apply_fallback`) before it is
        returned.
        """
        return self.apply_fallback(request, self._submit_once(request))

    def _submit_once(self, request: VerificationRequest) -> VerificationReport:
        """One attempt of :meth:`submit`, with no fallback applied."""
        backend = get_backend(request.method)
        budgets = request.budgets
        if request.certificate and not backend.certifiable:
            raise VerificationError(
                f"backend {backend.name!r} cannot emit proof certificates "
                "(certifiable backends: "
                f"{tuple(s.name for s in _certifiable_backends())})")
        netlist = request.resolve_netlist()
        circuit = request.display_name(netlist)
        width = request.width or len(netlist.input_word("a")) or None
        if backend.kind == "algebraic":
            return self._submit_algebraic(request, netlist, circuit, width,
                                          budgets)
        if request.resolve_specification() != "multiplier":
            raise VerificationError(
                f"backend {backend.name!r} only supports the multiplier "
                "specification")
        if backend.kind == "sat":
            return self._submit_sat(netlist, circuit, width, budgets,
                                    method=backend.name)
        return self._submit_bdd(netlist, circuit, width, budgets,
                                method=backend.name)

    def _submit_algebraic(self, request: VerificationRequest, netlist,
                          circuit: str, width: int | None,
                          budgets: Budgets) -> VerificationReport:
        from repro.verification.engine import verify
        start = time.perf_counter()
        try:
            result = verify(netlist,
                            specification=request.resolve_specification(),
                            method=request.method,
                            budgets=budgets,
                            xor_and_only=request.xor_and_only,
                            find_counterexample=request.find_counterexample,
                            certificate=request.certificate,
                            seed=request.seed)
        except BlowUpError as error:
            return VerificationReport.from_blowup(
                error, method=request.method, circuit=circuit, width=width,
                elapsed_s=time.perf_counter() - start)
        report = VerificationReport.from_result(result, circuit=circuit,
                                                width=width)
        if request.certificate and result.certificate_data is not None:
            from repro.certify import build_certificate
            report.certificate = build_certificate(result)
        if report.verdict == "refuted":
            report.cross_check = self._cross_check_refutation(
                request, netlist, result, width, budgets)
        return report

    def _cross_check_refutation(self, request: VerificationRequest, netlist,
                                result, width: int | None,
                                budgets: Budgets) -> dict:
        """Cross-check an algebraic refutation outside the algebra.

        Two independent angles, recorded verbatim on the report: the
        counterexample (when one was found) is replayed through gate-level
        simulation against the word-level arithmetic relation, and — for
        multiplier specifications with a known width — the SAT miter
        baseline is run against the golden architecture, whose
        ``different`` answer must agree with the refutation.
        """
        record: dict = {"backend": "sat-cec", "status": "not_applicable",
                        "agrees": None, "counterexample_confirmed": None}
        confirmed = self._confirm_counterexample(request, netlist,
                                                 result.counterexample)
        record["counterexample_confirmed"] = confirmed
        if request.resolve_specification() == "multiplier" and width:
            from repro.baselines.sat.miter import sat_equivalence_check
            from repro.generators.multipliers import generate_multiplier
            golden = generate_multiplier(self.golden_architecture, width)
            sat = sat_equivalence_check(
                netlist, golden, conflict_limit=budgets.sat_conflict_budget,
                time_budget_s=budgets.time_budget_s)
            record["status"] = sat.status
            record["agrees"] = (sat.status == "different"
                                if sat.status != "unknown" else None)
            record["conflicts"] = sat.conflicts
        return record

    def _confirm_counterexample(self, request: VerificationRequest, netlist,
                                counterexample) -> bool | None:
        """Gate-level replay of a counterexample against the word relation."""
        specification = request.resolve_specification()
        if counterexample is None or specification not in ("multiplier",
                                                           "adder"):
            return None
        from repro.circuit.simulate import simulate
        from repro.errors import CircuitError
        try:
            values = simulate(netlist, counterexample)
        except CircuitError:
            return None
        def word(names):
            return sum(values[name] << i for i, name in enumerate(names))
        a_bits = netlist.input_word("a")
        b_bits = netlist.input_word("b")
        s_bits = netlist.output_word("s")
        if not a_bits or not b_bits or not s_bits:
            return None
        a, b, s = word(a_bits), word(b_bits), word(s_bits)
        expected = a * b if specification == "multiplier" else a + b
        return s != expected % (1 << len(s_bits))

    def _submit_sat(self, netlist, circuit: str, width: int | None,
                    budgets: Budgets, method: str = "sat-cec",
                    ) -> VerificationReport:
        from repro.baselines.sat.miter import sat_equivalence_check
        from repro.generators.multipliers import generate_multiplier
        if not width:
            raise VerificationError(
                f"{method} needs the operand width to build the golden "
                "reference (no 'a' input word found)")
        golden = generate_multiplier(self.golden_architecture, width)
        result = sat_equivalence_check(
            netlist, golden, conflict_limit=budgets.sat_conflict_budget,
            time_budget_s=budgets.time_budget_s)
        return VerificationReport.from_sat_result(result, circuit=circuit,
                                                  width=width, method=method)

    def _submit_bdd(self, netlist, circuit: str, width: int | None,
                    budgets: Budgets, method: str = "bdd-cec",
                    ) -> VerificationReport:
        from repro.baselines.bdd.equivalence import bdd_equivalence_check
        result = bdd_equivalence_check(netlist, "multiply",
                                       node_budget=budgets.bdd_node_budget)
        return VerificationReport.from_bdd_result(result, circuit=circuit,
                                                  width=width, method=method)

    # -- graceful degradation --------------------------------------------------

    def apply_fallback(self, request: VerificationRequest,
                        report: VerificationReport) -> VerificationReport:
        """Degrade a ``budget`` report through the backend's fallback chain.

        Each rung (an escalated-budget re-run of the same backend, then
        the registry-declared fallback backends) runs in-process; the
        first rung that yields a non-budget verdict wins.  Every rung is
        appended to the report's ``attempts`` history — continuing a
        history the worker pool already started when the budget row came
        out of :meth:`run_batch` with crash retries behind it.  A rung
        that cannot run at all (the fallback backend rejects the request,
        e.g. a non-multiplier specification) is recorded as ``error`` and
        skipped.  If every rung trips its budget too, the last rung's
        report is returned — with the full history, so the caller can see
        the degradation was exhausted.
        """
        import dataclasses

        from repro.errors import ReproError
        from repro.resilience.policy import attempt_entry, escalate_budgets
        if self.fallback_policy is None or report.verdict != "budget":
            return report
        chain = self.fallback_policy.chain_for(request.method)
        if not chain:
            return report
        history = list(report.attempts or ())
        if not history:
            history.append(attempt_entry(1, request.method, "initial",
                                         "budget", reason=report.reason))
        attempt = history[-1]["attempt"]
        for step in chain:
            attempt += 1
            self.last_fallbacks += 1
            if step.kind == "escalate":
                derived = dataclasses.replace(
                    request,
                    budgets=escalate_budgets(request.budgets,
                                             step.budget_scale))
                kind = "escalate"
                extra = {"budget_scale": step.budget_scale}
            else:
                target = get_backend(step.method)
                derived = dataclasses.replace(
                    request, method=step.method,
                    certificate=request.certificate and target.certifiable)
                kind = "fallback"
                extra = {}
            try:
                report = self._submit_once(derived)
            except ReproError as error:
                history.append(attempt_entry(
                    attempt, derived.method, kind, "error",
                    reason=f"{type(error).__name__}: {error}", **extra))
                continue
            outcome = ("budget" if report.verdict == "budget"
                       else report.verdict)
            history.append(attempt_entry(attempt, derived.method, kind,
                                         outcome, reason=report.reason,
                                         **extra))
            if report.verdict != "budget":
                break
        report.attempts = history
        return report

    # -- batches ---------------------------------------------------------------

    def _experiment_config(self, budgets: Budgets):
        """Map the budget bundle onto the runner's config, verbatim.

        The budgets are authoritative — ``None`` means "guard disabled"
        exactly as in :meth:`submit`, and ``REPRO_BENCH_*`` environment
        overrides do not apply (callers who want them can build their
        budgets with ``Budgets.from_config(ExperimentConfig
        .from_environment())``).
        """
        return experiment_config_for(budgets, self.golden_architecture)

    def run_batch(self, requests: Sequence[VerificationRequest],
                  jobs: int | None = None,
                  on_report: Callable[[VerificationReport], None] | None = None,
                  ) -> list[VerificationReport]:
        """Run many requests and return their reports in request order.

        Architecture-sourced multiplier requests with the runner-default
        knobs are fanned across the persistent worker pool (with the
        on-disk cache and longest-expected-first scheduling); everything
        else — netlist/Verilog/adder sources, ``xor_and_only``, a custom
        seed, or ``find_counterexample=True`` (the pool never searches
        counterexamples) — falls back to in-process :meth:`submit`, so a
        request always means the same thing through either path.
        Per-request budget groups are honoured: a pooled request whose
        :class:`~repro.api.request.Budgets` differ from the service-level
        :attr:`budgets` carries its own job-level
        :class:`~repro.experiments.runner.ExperimentConfig` (and hard task
        timeout) into the pool, and the result cache keys each job by the
        budgets it actually ran under.  A per-request
        ``budgets.task_timeout_s`` of ``None`` falls back to the
        service-level hard limit rather than disabling it.
        """
        from repro.experiments.runner import ParallelRunner, VerificationJob
        requests = list(requests)
        pooled: list[int] = []
        reports: dict[int, VerificationReport] = {}
        for index, request in enumerate(requests):
            if pool_eligible(request):
                pooled.append(index)
        runner = ParallelRunner(
            self._experiment_config(self.budgets),
            workers=jobs if jobs is not None else self.jobs,
            task_timeout_s=self.budgets.task_timeout_s
            if self.budgets.task_timeout_s is not None else self.task_timeout_s,
            cache_dir=self.cache_dir,
            retry_policy=self.retry_policy)
        grid = []
        for index in pooled:
            request = requests[index]
            if request.budgets == self.budgets:
                config = task_timeout_s = None
            else:
                config = self._experiment_config(request.budgets)
                task_timeout_s = request.budgets.task_timeout_s
            grid.append(VerificationJob(request.architecture, request.width,
                                        request.method, config=config,
                                        task_timeout_s=task_timeout_s,
                                        certificate=request.certificate))
        rows = runner.run(grid)
        self.last_cache_hits = runner.last_cache_hits
        self.last_executed = runner.last_executed
        self.last_retries = runner.last_retries
        self.last_fallbacks = 0
        for index, row in zip(pooled, rows):
            reports[index] = self.apply_fallback(
                requests[index], VerificationReport.from_row(row))
        for index, request in enumerate(requests):
            if index not in reports:
                reports[index] = self.submit(request)
        ordered = [reports[i] for i in range(len(requests))]
        if on_report is not None:
            for report in ordered:
                on_report(report)
        return ordered

    def iter_batch(self, requests: Sequence[VerificationRequest],
                   jobs: int | None = None,
                   ) -> Iterator[VerificationReport]:
        """Yield reports in request order, each as soon as it is available.

        The streaming sibling of :meth:`run_batch` (same pooling rules,
        same budget-group handling, same cache): pooled jobs fan across
        the worker pool on a background thread and their rows are handed
        over index-by-index, so a huge grid's first report is yielded
        while later jobs are still executing instead of after the whole
        batch.  Non-pooled requests run inline at their position.  The
        ``last_*`` counters are final once the generator is exhausted.
        """
        from repro.experiments.runner import ParallelRunner, VerificationJob
        requests = list(requests)
        self.last_fallbacks = 0
        runner = ParallelRunner(
            self._experiment_config(self.budgets),
            workers=jobs if jobs is not None else self.jobs,
            task_timeout_s=self.budgets.task_timeout_s
            if self.budgets.task_timeout_s is not None else self.task_timeout_s,
            cache_dir=self.cache_dir,
            retry_policy=self.retry_policy)
        grid: list[VerificationJob] = []
        positions: dict[int, int] = {}      # id(job) -> request index
        pooled: set[int] = set()
        for index, request in enumerate(requests):
            if not pool_eligible(request):
                continue
            if request.budgets == self.budgets:
                config = task_timeout_s = None
            else:
                config = self._experiment_config(request.budgets)
                task_timeout_s = request.budgets.task_timeout_s
            job = VerificationJob(request.architecture, request.width,
                                  request.method, config=config,
                                  task_timeout_s=task_timeout_s,
                                  certificate=request.certificate)
            # Distinct grid entries are distinct objects even for equal
            # jobs, so object identity maps each row to its request index.
            positions[id(job)] = index
            grid.append(job)
            pooled.add(index)

        condition = threading.Condition()
        rows: dict[int, dict] = {}
        failure: list[BaseException] = []

        def on_row(job, row) -> None:
            with condition:
                rows[positions[id(job)]] = row
                condition.notify_all()

        def run_pool() -> None:
            try:
                runner.run(grid, on_result=on_row)
            except BaseException as error:  # noqa: BLE001 - re-raised below
                failure.append(error)
            with condition:
                condition.notify_all()

        worker = None
        if grid:
            worker = threading.Thread(target=run_pool, daemon=True,
                                      name="repro-iter-batch")
            worker.start()
        finished = False
        try:
            for index, request in enumerate(requests):
                if index in pooled:
                    with condition:
                        while index not in rows and not failure:
                            condition.wait()
                    if failure:
                        raise failure[0]
                    report = self.apply_fallback(
                        request, VerificationReport.from_row(rows[index]))
                else:
                    report = self.submit(request)
                yield report
            finished = True
        finally:
            # An abandoned generator (the consumer went away mid-stream)
            # must not block on the pool — the daemon thread drains alone.
            if finished or failure:
                if worker is not None:
                    worker.join()
                self.last_cache_hits = runner.last_cache_hits
                self.last_executed = runner.last_executed
                self.last_retries = runner.last_retries

    def run_grid(self, architectures: Sequence[str], widths: Sequence[int],
                 methods: Sequence[str], jobs: int | None = None,
                 ) -> list[VerificationReport]:
        """Convenience: the full (architecture, width, method) grid as a batch.

        Grid requests skip the counterexample search (the experiment-runner
        contract: table rows report verdicts and counters, not witnesses),
        which keeps every cell eligible for the worker pool.
        """
        requests = [
            VerificationRequest.from_architecture(architecture, width, method,
                                                  budgets=self.budgets,
                                                  find_counterexample=False)
            for width in widths for architecture in architectures
            for method in methods]
        return self.run_batch(requests, jobs=jobs)
