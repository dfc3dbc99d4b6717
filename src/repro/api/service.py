"""The verification service: one front door over every backend.

:class:`VerificationService` is the programmatic entry point of the
reproduction.  :meth:`~VerificationService.submit` runs a single
:class:`~repro.api.request.VerificationRequest` in-process and returns a
:class:`~repro.api.report.VerificationReport`; budget trips come back as
``verdict="budget"`` reports instead of exceptions.
:meth:`~VerificationService.run_batch` and
:meth:`~VerificationService.iter_batch` hand every request of a batch to
:class:`~repro.experiments.runner.ParallelRunner` — crash isolation, hard
task timeouts, the on-disk result cache, and longest-expected-first
scheduling included — and return the reports :meth:`submit` would,
without the caller touching runner internals.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import os
import time
from typing import Generator, Iterator, Sequence

from repro.api.registry import backends, get_backend
from repro.api.report import VerificationReport
from repro.api.request import Budgets, VerificationRequest
from repro.errors import BlowUpError, VerificationError

#: The reference multiplier that the SAT baseline and the SAT cross-check
#: of a refutation compare a circuit with.
GOLDEN_ARCHITECTURE = "SP-AR-RC"


def _certifiable_backends():
    return tuple(spec for spec in backends() if spec.certifiable)


def _relation_words(netlist) -> tuple[list[str], list[str], list[str]] | None:
    """The ``a``, ``b`` and ``s`` words that the ``"multiplier"`` and
    ``"adder"`` specifications relate, or ``None`` when one is missing."""
    words = (netlist.input_word("a"), netlist.input_word("b"),
             netlist.output_word("s"))
    return words if all(words) else None


def _replay(netlist, counterexample: dict[str, int]) -> dict[str, int] | None:
    """Every signal's value under a counterexample (``None``: not a full
    assignment of the primary inputs)."""
    from repro.circuit.simulate import simulate
    from repro.errors import CircuitError
    try:
        return simulate(netlist, counterexample)
    except CircuitError:
        return None


def _confirms_mismatch(netlist, specification,
                       values: dict[str, int] | None) -> bool | None:
    """Whether replayed signal values break the word relation ``s = a * b``
    (or ``a + b``); ``None`` when there is nothing to check."""
    words = _relation_words(netlist)
    if values is None or words is None:
        return None
    a, b, s = (sum(values[name] << i for i, name in enumerate(names))
               for names in words)
    expected = a * b if specification == "multiplier" else a + b
    return s != expected % (1 << len(words[2]))


def _outputs_differ(netlist, golden, counterexample: dict[str, int] | None,
                    values: dict[str, int] | None) -> bool:
    """Whether ``counterexample`` satisfies the SAT miter of the two circuits.

    The miter pairs inputs and outputs by name, so the question only
    arises when both circuits have the same names; ``values`` is the
    circuit's replay under the counterexample.
    """
    from repro.circuit.simulate import simulate
    if (values is None or set(netlist.inputs) != set(golden.inputs)
            or set(netlist.outputs) != set(golden.outputs)):
        return False
    reference = simulate(golden, counterexample)
    return any(values[name] != reference[name] for name in netlist.outputs)


def request_cache_key(request: VerificationRequest) -> str | None:
    """Content-addressed result-cache key of a request (``None`` = uncacheable).

    The one key function of the result cache, shared by
    :class:`~repro.experiments.runner.ResultCache`, the server's shared
    cache and the fleet, so a local batch and a fleet address the same
    entries.  The key covers the netlist content hash, the method, the
    width, the certificate flag, every outcome-relevant budget (the hard
    task timeout included), the cache schema and the package version,
    plus the golden netlist for ``sat-cec``.  So only the requests it
    describes in full are keyable: architecture-sourced multipliers whose
    netlist hashes, with no custom specification, no ``xor_and_only``, no
    counterexample search, the default seed, and certificates only from
    certifiable backends.
    """
    if not (request.architecture is not None
            and request.circuit_kind == "multiplier"
            and request.specification is None
            and not request.xor_and_only
            and not request.find_counterexample
            and request.seed == 0
            and (not request.certificate
                 or get_backend(request.method).certifiable)):
        return None
    from repro import __version__
    from repro.experiments.runner import ResultCache, netlist_hash
    netlist = netlist_hash(request.architecture, request.width)
    if netlist is None:
        return None
    budgets = request.budgets
    document = {
        "schema": ResultCache.SCHEMA,
        "version": __version__,
        "netlist": netlist,
        "method": request.method,
        "width": request.width,
        "certificate": request.certificate,
        "budgets": {
            "monomial_budget": budgets.monomial_budget,
            "time_budget_s": budgets.time_budget_s,
            "sat_conflict_budget": budgets.sat_conflict_budget,
            "bdd_node_budget": budgets.bdd_node_budget,
            "vanishing_cache_limit": budgets.vanishing_cache_limit,
            "task_timeout_s": budgets.task_timeout_s,
        },
    }
    if request.method == "sat-cec":
        document["golden"] = netlist_hash(GOLDEN_ARCHITECTURE, request.width)
    serial = json.dumps(document, sort_keys=True)
    return hashlib.sha256(serial.encode("utf-8")).hexdigest()


class VerificationService:
    """Submit verification requests against the registered backends.

    A service holds no budgets: every layer reads the
    :class:`~repro.api.request.Budgets` of the request it runs, so
    :meth:`submit`, :meth:`run_batch` and :meth:`iter_batch` bound a
    request exactly as it asks, and :meth:`grid` puts the budgets it is
    given on every request it builds.

    Parameters
    ----------
    jobs:
        Default worker-process count of :meth:`run_batch`.
    cache_dir:
        On-disk result cache directory for :meth:`run_batch` (``None``
        disables the cache).
    retry_policy:
        A :class:`repro.resilience.RetryPolicy` handed to the worker pool
        of :meth:`run_batch`: crashed and hard-timed-out jobs get further
        attempts on a fresh worker, with the history recorded in the
        report's ``attempts`` field.  ``None`` (the default) keeps the
        report-first-failure behaviour.
    pool:
        A :class:`~repro.experiments.runner.WorkerPool` that every batch
        leases its worker processes from, so they outlive the batch (the
        HTTP server's); ``None`` starts and stops a private pool per batch.
    fallback_policy:
        A :class:`repro.resilience.FallbackPolicy` applied to
        ``verdict="budget"`` reports: the tripped backend's degradation
        chain (escalated budgets, then the backends in its registry
        ``degrades_to``) runs in-process until a rung produces a real
        verdict, every rung recorded in ``attempts``.  ``None`` disables
        graceful degradation.
    """

    def __init__(self, jobs: int = 1,
                 cache_dir: str | os.PathLike | None = None,
                 retry_policy=None,
                 fallback_policy=None,
                 pool=None) -> None:
        self.jobs = jobs
        self.cache_dir = cache_dir
        self.retry_policy = retry_policy
        self.fallback_policy = fallback_policy
        self.pool = pool
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
            tripped = VerificationReport.from_blowup(
                error, method=request.method, circuit=circuit, width=width,
                elapsed_s=time.perf_counter() - start)
            report = self._refute_by_simulation(request, netlist, tripped,
                                                budgets, start)
            if report is None:
                return tripped
            report.cross_check = self._cross_check_refutation(
                request, netlist, report.counterexample, width, budgets)
            return report
        report = VerificationReport.from_result(result, circuit=circuit,
                                                width=width)
        if request.certificate and result.certificate_data is not None:
            from repro.certify import build_certificate
            report.certificate = build_certificate(result)
        if report.verdict == "refuted":
            report.cross_check = self._cross_check_refutation(
                request, netlist, result.counterexample, width, budgets)
        return report

    def _refute_by_simulation(self, request: VerificationRequest, netlist,
                              tripped: VerificationReport, budgets: Budgets,
                              start: float) -> VerificationReport | None:
        """Search for a counterexample by simulation after a budget trip.

        A trip answers nothing, yet a buggy circuit is usually wrong on
        many inputs.  When the request searches for a counterexample
        (``find_counterexample``) against the word-level ``"multiplier"``
        or ``"adder"`` specification and asks for no certificate (the
        algebra's journal), the circuit is simulated bit-parallel over
        ``counterexample_tries`` vectors drawn from the request seed, and
        its ``s`` word is compared with a bit-sliced ``a * b`` (or
        ``a + b``).  A mismatch refutes the circuit at its first failing
        vector.  ``None`` when the stage does not apply, when every
        vector agrees (which proves nothing), or when the time budget,
        counted from ``start``, runs out first.  The model build that
        preceded the trip has already checked the three words.
        """
        specification = request.resolve_specification()
        samples = budgets.counterexample_tries
        if (not request.find_counterexample or request.certificate
                or specification not in ("multiplier", "adder")
                or not isinstance(samples, int)):
            return None
        from repro.circuit.simulate import (
            input_lanes,
            lane_product,
            lane_sum,
            simulate_lanes,
        )
        a_names, b_names, s_names = _relation_words(netlist)
        reference = lane_product if specification == "multiplier" else lane_sum
        budget_s = budgets.time_budget_s
        simulated = 0
        for inputs, lanes in input_lanes(netlist, samples, request.seed):
            if budget_s is not None and time.perf_counter() - start >= budget_s:
                return None
            values = simulate_lanes(netlist, inputs, lanes)
            expected = reference([values[name] for name in a_names],
                                 [values[name] for name in b_names])
            wrong = 0
            # Bits beyond either word are 0: a wider output must read 0
            # there, and a narrower one cannot hold the result.
            for got, want in itertools.zip_longest(
                    [values[name] for name in s_names], expected, fillvalue=0):
                wrong |= got ^ want
            simulated += lanes
            if wrong:
                lane = (wrong & -wrong).bit_length() - 1
                return VerificationReport.from_simulation(
                    tripped, {name: (inputs[name] >> lane) & 1
                              for name in netlist.inputs},
                    simulated, elapsed_s=time.perf_counter() - start)
        return None

    def _cross_check_refutation(self, request: VerificationRequest, netlist,
                                counterexample: dict[str, int] | None,
                                width: int | None,
                                budgets: Budgets) -> dict:
        """Cross-check a refutation outside the algebra.

        Two independent angles, recorded verbatim on the report: the
        counterexample (when one was found) is replayed through gate-level
        simulation against the word-level arithmetic relation, and — for
        multiplier specifications with a known width — the circuit is
        compared with the golden architecture through the SAT miter, whose
        ``different`` answer must agree with the refutation.  A
        counterexample on which the two circuits' outputs differ satisfies
        the miter, so it settles the miter without a search (0
        conflicts); only otherwise does the CDCL solver search it.
        """
        record: dict = {"backend": "sat-cec", "status": "not_applicable",
                        "agrees": None, "counterexample_confirmed": None}
        specification = request.resolve_specification()
        values = None
        if counterexample is not None and specification in ("multiplier",
                                                            "adder"):
            values = _replay(netlist, counterexample)
        record["counterexample_confirmed"] = _confirms_mismatch(
            netlist, specification, values)
        if specification == "multiplier" and width:
            from repro.baselines.sat.miter import sat_equivalence_check
            from repro.generators.multipliers import generate_multiplier
            golden = generate_multiplier(GOLDEN_ARCHITECTURE, width)
            if _outputs_differ(netlist, golden, counterexample, values):
                record.update(status="different", agrees=True, conflicts=0)
                return record
            sat = sat_equivalence_check(
                netlist, golden, conflict_limit=budgets.sat_conflict_budget,
                time_budget_s=budgets.time_budget_s)
            record["status"] = sat.status
            record["agrees"] = (sat.status == "different"
                                if sat.status != "unknown" else None)
            record["conflicts"] = sat.conflicts
        return record

    def _submit_sat(self, netlist, circuit: str, width: int | None,
                    budgets: Budgets, method: str = "sat-cec",
                    ) -> VerificationReport:
        from repro.baselines.sat.miter import sat_equivalence_check
        from repro.generators.multipliers import generate_multiplier
        if not width:
            raise VerificationError(
                f"{method} needs the operand width to build the golden "
                "reference (no 'a' input word found)")
        golden = generate_multiplier(GOLDEN_ARCHITECTURE, width)
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
        from repro.errors import ReproError
        chain, outcome = self._fallback_chain(request, report), None
        while True:
            try:
                rung = chain.send(outcome)
            except StopIteration as stop:
                return stop.value
            try:
                outcome = self._submit_once(rung)
            except ReproError as error:
                outcome = VerificationReport.from_failure(
                    rung, "error", f"{type(error).__name__}: {error}")

    def _fallback_chain(self, request: VerificationRequest,
                        report: VerificationReport) -> Generator:
        """:meth:`apply_fallback` as a generator, wherever rungs run.

        It yields each rung's request, is sent back the rung's report (an
        ``error`` report for a rung that could not run), and returns the
        final report.  Only its soft budgets bind a rung, in process or on
        a batch worker alike: it carries no hard task timeout.
        """
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
        budgets = request.budgets.replace(task_timeout_s=None)
        for step in chain:
            attempt += 1
            self.last_fallbacks += 1
            if step.kind == "escalate":
                rung = dataclasses.replace(
                    request,
                    budgets=escalate_budgets(budgets, step.budget_scale))
                kind = "escalate"
                extra = {"budget_scale": step.budget_scale}
            else:
                target = get_backend(step.method)
                rung = dataclasses.replace(
                    request, method=step.method, budgets=budgets,
                    certificate=request.certificate and target.certifiable)
                kind = "fallback"
                extra = {}
            outcome = yield rung
            history.append(attempt_entry(attempt, rung.method, kind,
                                         outcome.verdict,
                                         reason=outcome.reason, **extra))
            if outcome.verdict == "error":
                continue
            report = outcome
            if report.verdict != "budget":
                break
        report.attempts = history
        return report

    # -- batches ---------------------------------------------------------------

    def _runner(self, jobs: int | None):
        """The runner of one :meth:`run_batch` or :meth:`iter_batch` call."""
        from repro.experiments.runner import ParallelRunner
        return ParallelRunner(
            workers=jobs if jobs is not None else self.jobs,
            cache_dir=self.cache_dir,
            retry_policy=self.retry_policy,
            pool=self.pool)

    def _book(self, runner) -> None:
        """Take over the counters of the batch the runner just ran."""
        self.last_cache_hits = runner.last_cache_hits
        self.last_executed = runner.last_executed
        self.last_retries = runner.last_retries

    def run_batch(self, requests: Sequence[VerificationRequest],
                  jobs: int | None = None) -> list[VerificationReport]:
        """Run many requests and return their reports in request order.

        Every request goes through
        :class:`~repro.experiments.runner.ParallelRunner`: the on-disk
        cache (for the requests :func:`request_cache_key` can key),
        longest-expected-first scheduling, and worker processes leased
        from :attr:`pool` when the service has one, else from a pool
        started for this batch alone.  Each request runs under its own
        :class:`~repro.api.request.Budgets`, its hard
        ``budgets.task_timeout_s`` included (``None`` sets no hard limit),
        and its report is the one :meth:`submit` returns.  With one job
        and no hard limit the runner runs the batch in this process.  A
        request that fails to run (an unknown architecture, unparsable
        Verilog) answers an ``error`` report in its slot.
        """
        runner, grid = self._runner(jobs), list(requests)
        rows = runner.run(grid)
        self._book(runner)
        self.last_fallbacks = 0
        return [self.apply_fallback(job, VerificationReport.from_row(row))
                for job, row in zip(grid, rows)]

    def iter_batch(self, requests: Sequence[VerificationRequest],
                   jobs: int | None = None,
                   ) -> Iterator[VerificationReport]:
        """Yield reports in request order, each as soon as it is available.

        The streaming sibling of :meth:`run_batch` (same runner, same
        budgets, same cache, same reports): an in-order buffer over
        :meth:`ParallelRunner.iter_rows
        <repro.experiments.runner.ParallelRunner.iter_rows>`, which runs
        in the consumer's thread, so a huge grid's first report is
        yielded while later jobs are still executing instead of after the
        whole batch.  Dispatch pauses while the consumer holds a report,
        and closing the generator stops the batch: busy workers are
        killed and no later job runs.  Fallback rungs (see
        :meth:`apply_fallback`) run as the runner's follow-up jobs, so a
        degrading report keeps the workers busy instead of this thread.
        The ``last_*`` counters are final once the generator is exhausted.
        """
        self.last_fallbacks = 0
        runner, grid = self._runner(jobs), list(requests)
        batch = list(grid)  # the runner's jobs: the grid, then its rungs
        resolved = runner.iter_rows(batch)
        reports: dict[int, VerificationReport] = {}
        # Each rung in flight, by its job index: the grid entry it degrades
        # and that entry's chain.
        chains: dict[int, tuple[int, Generator]] = {}
        try:
            for index in range(len(grid)):
                while index not in reports:
                    position, row = next(resolved)
                    report = VerificationReport.from_row(row)
                    if position < len(grid):
                        owner, outcome = position, None
                        chain = self._fallback_chain(grid[owner], report)
                    else:
                        (owner, chain), outcome = chains.pop(position), report
                    try:
                        rung = chain.send(outcome)
                    except StopIteration as stop:
                        reports[owner] = stop.value
                        continue
                    chains[len(batch)] = owner, chain
                    batch.append(rung)
                yield reports.pop(index)
        finally:
            resolved.close()
        self._book(runner)

    @staticmethod
    def grid(architectures: Sequence[str], widths: Sequence[int],
             methods: Sequence[str], budgets: Budgets = Budgets(),
             ) -> list[VerificationRequest]:
        """The (architecture, width, method) grid as requests, widths outermost.

        Every grid request carries ``budgets`` and skips the
        counterexample search (table rows report verdicts and counters,
        not witnesses), which keeps every cell keyable by the result
        cache.
        """
        return [
            VerificationRequest.from_architecture(architecture, width, method,
                                                  budgets=budgets,
                                                  find_counterexample=False)
            for width in widths for architecture in architectures
            for method in methods]

    def run_grid(self, architectures: Sequence[str], widths: Sequence[int],
                 methods: Sequence[str], budgets: Budgets = Budgets(),
                 jobs: int | None = None) -> list[VerificationReport]:
        """Convenience: run the :meth:`grid` under ``budgets`` as a batch."""
        return self.run_batch(self.grid(architectures, widths, methods,
                                        budgets), jobs=jobs)
