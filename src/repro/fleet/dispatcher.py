"""Fleet dispatcher: scatter verification requests over remote workers.

The :class:`FleetDispatcher` is the coordinator of a verification fleet.
Each worker is simply a running ``repro-verify serve`` (the PR 5 HTTP
server) on some host/port; the dispatcher speaks the same wire protocol
as :class:`~repro.server.client.VerificationClient` and therefore needs
no worker-side changes beyond the ``/v1/version`` handshake.

Scheduling mirrors :class:`~repro.experiments.runner.ParallelRunner`:

* **Longest-expected-first placement** — queued requests are sorted by
  :func:`~repro.experiments.runner.expected_cost_key` (descending) so
  the heavy Booth/tree rows go out first and the grid's wall-clock is
  not dominated by a straggling tail.
* **Bounded in-flight per worker** — each :class:`WorkerSpec` carries a
  ``capacity``; the dispatcher never keeps more than that many requests
  outstanding on one worker.
* **Work-stealing** — once the queue drains, a job in flight longer
  than ``straggler_grace_s`` is re-dispatched to an idle worker.  Both
  attempts race and the first finisher wins; a dispatch-epoch guard
  drops the loser's result (``ParallelRunner`` needs none: it kills the
  straggler's worker, whose pipe takes any late row with it).
  The report's ``attempts`` history records the steal only when the
  stolen attempt is the one that won — when the original outruns its
  re-dispatch, nothing was actually superseded.
* **Failure taxonomy** — worker failures route through the PR 7
  resilience layer: connect errors and 429/5xx answers are retryable
  (on another worker when one is available, with the deterministic
  :class:`~repro.resilience.policy.RetryPolicy` backoff); verdicts are
  final.  A worker that drops the TCP connection is marked down for the
  rest of the batch; a client-side *request timeout* is not — the
  worker may be healthy and merely slow on one job, so timeouts retry
  like any other transient failure.  Exhausted retries produce an
  honest ``error`` report, never a silent gap.

Results are byte-identical to local runs: workers return canonical
:class:`~repro.api.report.VerificationReport` JSON, and the dispatcher
only annotates ``attempts`` (excluded from parity by definition) when a
job needed more than one dispatch.  When the topology names a
``cache_dir`` the dispatcher consults the content-addressed
:class:`~repro.experiments.runner.ResultCache` before dispatching and
publishes every worker verdict back into it — a row verified anywhere
is verified everywhere.
"""

from __future__ import annotations

import dataclasses
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterator, Sequence

from repro.api.report import REPORT_SCHEMA, VerificationReport
from repro.api.request import Budgets, VerificationRequest
from repro.api.registry import scheduling_rank
from repro.errors import VerificationError
from repro.resilience.policy import RetryPolicy, attempt_entry
from repro.server.client import ServerError, VerificationClient

from .topology import FleetTopology, WorkerSpec

#: Worker answers that warrant re-dispatch (same set the client retries
#: on); anything else 4xx-shaped is a final, non-retryable error.
RETRYABLE_WORKER_STATUSES = frozenset((429, 500, 502, 503, 504))


def wire_document(request: VerificationRequest) -> "dict | None":
    """The ``POST /v1/verify`` document for ``request``, or ``None``.

    ``None`` means the request cannot travel: it carries an in-memory
    netlist, a coordinator-local Verilog path, or a non-string
    specification — those run on the coordinator's local service
    instead.  Budgets are spelled out field-for-field so the worker
    reconstructs *exactly* the coordinator's budget bundle; the shared
    result cache keys entries by those budgets.
    """
    if request.netlist is not None or request.verilog_path is not None:
        return None
    if request.specification is not None \
            and not isinstance(request.specification, str):
        return None
    document: dict = {"method": request.method}
    if request.architecture is not None:
        document["architecture"] = request.architecture
        document["width"] = request.width
    if request.verilog_text is not None:
        document["verilog_text"] = request.verilog_text
        if request.width is not None:
            document["width"] = request.width
    if request.circuit_kind != "multiplier":
        document["circuit_kind"] = request.circuit_kind
    if isinstance(request.specification, str):
        document["specification"] = request.specification
    document["budgets"] = {
        field.name: getattr(request.budgets, field.name)
        for field in dataclasses.fields(Budgets)
    }
    document["find_counterexample"] = request.find_counterexample
    if request.xor_and_only:
        document["xor_and_only"] = True
    if request.certificate:
        document["certificate"] = True
    if request.seed:
        document["seed"] = request.seed
    return document


def dispatch_cost(request: VerificationRequest) -> tuple:
    """Expected-cost sort key for placement (higher = dispatched first).

    Reuses :func:`~repro.experiments.runner.expected_cost_key` for
    architecture-named requests; everything else falls back to
    (width, scheduling rank) so inline Verilog still sorts sensibly.
    """
    from repro.experiments.runner import VerificationJob, expected_cost_key

    if request.architecture is not None:
        return expected_cost_key(VerificationJob(
            request.architecture, request.width, request.method))
    return (request.width or 0, scheduling_rank(request.method), 0)


class FleetDispatcher:
    """Coordinator that runs batches across a :class:`FleetTopology`.

    Mirrors the :class:`~repro.api.service.VerificationService` batch
    surface — ``run_batch`` returns the full report list,
    ``iter_batch`` yields reports in request order as they resolve —
    so the HTTP server's ``/v1/batch`` handler can swap one in for the
    other when it was started with a fleet topology.
    """

    def __init__(self, topology: FleetTopology,
                 golden_architecture: str = "SP-AR-RC",
                 local_service=None,
                 client_factory: "Callable[[WorkerSpec], VerificationClient] | None" = None,
                 request_timeout_s: float = 300.0,
                 retry_base_delay_s: float = 0.05) -> None:
        from repro.experiments.runner import ResultCache

        self.topology = topology
        self.golden_architecture = golden_architecture
        self.local_service = local_service
        self.request_timeout_s = request_timeout_s
        self._client_factory = client_factory
        self._clients: dict[str, VerificationClient] = {}
        self.cache = (ResultCache(topology.cache_dir)
                      if topology.cache_dir else None)
        self.retry_policy = RetryPolicy(max_attempts=topology.max_attempts,
                                        base_delay_s=retry_base_delay_s)
        #: ``(monotonic time, request index, worker name)`` per dispatch.
        self.dispatch_log: list[tuple[float, int, str]] = []
        self.worker_versions: dict[str, dict] = {}
        self.last_cache_hits = 0
        self.last_executed = 0
        self.last_retries = 0
        self.last_fallbacks = 0
        self.last_steals = 0

    # -- wiring ----------------------------------------------------------------

    def _client(self, worker: WorkerSpec) -> VerificationClient:
        client = self._clients.get(worker.name)
        if client is None:
            if self._client_factory is not None:
                client = self._client_factory(worker)
            else:
                # One transparent attempt per dispatch: the dispatcher
                # owns retries so it can fail over to another worker.
                client = VerificationClient(
                    host=worker.host, port=worker.port,
                    timeout_s=self.request_timeout_s,
                    retry_policy=RetryPolicy(max_attempts=1))
            self._clients[worker.name] = client
        return client

    def _local_service(self):
        if self.local_service is None:
            from repro.api.service import VerificationService

            self.local_service = VerificationService(
                golden_architecture=self.golden_architecture)
        return self.local_service

    def check_workers(self, down: "set[str] | None" = None) -> dict[str, dict]:
        """``GET /v1/version`` handshake: refuse mixed-schema fleets.

        Returns ``{worker name: version document}`` for the reachable
        workers.  Raises :class:`VerificationError` when any reachable
        worker speaks a different report schema or certificate version
        than this coordinator, or when no worker is reachable at all.
        Unreachable workers are recorded in ``down`` (when given) and
        tolerated as long as at least one worker answers.
        """
        from repro.certify.certificate import CERTIFICATE_VERSION

        versions: dict[str, dict] = {}
        mismatched: list[str] = []
        unreachable: list[str] = []
        for worker in self.topology.workers:
            try:
                document = self._client(worker).version()
            except ServerError as error:
                if error.status == 0:
                    unreachable.append(f"{worker.name} ({worker.url}): {error}")
                    if down is not None:
                        down.add(worker.name)
                    continue
                mismatched.append(
                    f"{worker.name} ({worker.url}): no /v1/version endpoint "
                    f"(HTTP {error.status}) — pre-fleet server")
                continue
            versions[worker.name] = document
            if (document.get("report_schema") != REPORT_SCHEMA
                    or document.get("certificate_version")
                    != CERTIFICATE_VERSION):
                mismatched.append(
                    f"{worker.name} ({worker.url}): report_schema="
                    f"{document.get('report_schema')} certificate_version="
                    f"{document.get('certificate_version')}")
        if mismatched:
            raise VerificationError(
                "fleet version mismatch — refusing mixed-schema workers: "
                + "; ".join(mismatched)
                + f" (coordinator speaks report_schema={REPORT_SCHEMA} "
                f"certificate_version={CERTIFICATE_VERSION})")
        if not versions:
            raise VerificationError(
                "no fleet worker is reachable: " + "; ".join(unreachable))
        self.worker_versions = versions
        return versions

    # -- batch surface ---------------------------------------------------------

    def run_batch(self, requests: Sequence[VerificationRequest],
                  jobs: "int | None" = None) -> list[VerificationReport]:
        """Scatter ``requests`` over the fleet; reports in request order."""
        return list(self.iter_batch(requests, jobs=jobs))

    def iter_batch(self, requests: Sequence[VerificationRequest],
                   jobs: "int | None" = None
                   ) -> Iterator[VerificationReport]:
        """Yield reports in request order as the fleet resolves them.

        ``jobs`` is accepted for service-interface compatibility; fleet
        concurrency is governed by worker capacities, not a local pool.
        """
        del jobs
        run = _FleetRun(self, list(requests))
        run.start()
        try:
            for index in range(len(run.requests)):
                yield run.take(index)
            run.complete()
        finally:
            run.shutdown()


class _FleetRun:
    """State of one batch in flight: queue, epochs, retries, results."""

    def __init__(self, dispatcher: FleetDispatcher,
                 requests: list[VerificationRequest]) -> None:
        self.d = dispatcher
        self.requests = requests
        self.condition = threading.Condition()
        self.documents: dict[int, dict] = {}
        self.costs: dict[int, tuple] = {}
        self.keys: dict[int, "str | None"] = {}
        self.results: dict[int, VerificationReport] = {}
        self.local: set[int] = set()
        self.queue: list[int] = []
        self.retry_queue: list[tuple[float, int]] = []
        self.live: dict[int, set[int]] = {}
        self.epochs: dict[int, int] = {}
        self.attempt_of: dict[tuple[int, int], int] = {}
        self.attempt_counts: dict[int, int] = {}
        self.histories: dict[int, list[dict]] = {}
        #: ``(index, stealing epoch) -> (superseded attempt, entry)`` —
        #: steal annotations held back until the stolen attempt wins.
        self.pending_steals: dict[tuple[int, int], tuple[int, dict]] = {}
        self.tried: dict[int, set[str]] = {}
        self.starts: dict[tuple[int, int], float] = {}
        self.running: dict[tuple[int, int], str] = {}
        self.inflight = {worker.name: 0
                         for worker in dispatcher.topology.workers}
        self.down: set[str] = set()
        self.unresolved = 0
        self.closed = False
        self.failure: "BaseException | None" = None
        self.cache_hits = 0
        self.executed = 0
        self.retries = 0
        self.steals = 0
        self.executor: "ThreadPoolExecutor | None" = None
        self.scheduler: "threading.Thread | None" = None

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        self.d.check_workers(down=self.down)
        order: list[int] = []
        for index, request in enumerate(self.requests):
            document = wire_document(request)
            if document is None \
                    or not self.d.topology.workers_for(request.method):
                self.local.add(index)
                continue
            self.costs[index] = dispatch_cost(request)
            key = None
            if self.d.cache is not None:
                from repro.api.service import request_cache_key

                key = request_cache_key(request, self.d.golden_architecture)
                if key is not None:
                    report = self.d.cache.get_report(key)
                    if report is not None:
                        self.results[index] = report
                        self.cache_hits += 1
                        continue
            self.keys[index] = key
            self.documents[index] = document
            order.append(index)
        # Longest expected cost first; stable on grid order for ties.
        self.queue = sorted(order, key=lambda i: self.costs[i], reverse=True)
        self.unresolved = len(order)
        if self.unresolved:
            capacity = sum(worker.capacity
                           for worker in self.d.topology.workers)
            self.executor = ThreadPoolExecutor(
                max_workers=max(1, capacity),
                thread_name_prefix="repro-fleet")
            self.scheduler = threading.Thread(
                target=self._schedule, daemon=True,
                name="repro-fleet-scheduler")
            self.scheduler.start()

    def take(self, index: int) -> VerificationReport:
        """Block until request ``index`` resolves; return its report."""
        if index in self.local:
            # Single-request run_batch, mirroring the remote dispatch
            # path, so local fallbacks stay byte-identical too.
            report = self.d._local_service().run_batch(
                [self.requests[index]])[0]
            with self.condition:
                self.results[index] = report
                self.executed += 1
            return report
        with self.condition:
            while index not in self.results and self.failure is None:
                self.condition.wait()
            if index not in self.results and self.failure is not None:
                raise self.failure
            return self.results[index]

    def complete(self) -> None:
        if self.scheduler is not None:
            self.scheduler.join()
        if self.executor is not None:
            self.executor.shutdown(wait=True)
            self.executor = None
        self.d.last_cache_hits = self.cache_hits
        self.d.last_executed = self.executed
        self.d.last_retries = self.retries
        self.d.last_fallbacks = 0
        self.d.last_steals = self.steals

    def shutdown(self) -> None:
        with self.condition:
            self.closed = True
            self.condition.notify_all()
        if self.executor is not None:
            self.executor.shutdown(wait=False)
            self.executor = None

    # -- scheduling ------------------------------------------------------------

    def _schedule(self) -> None:
        try:
            with self.condition:
                while not self.closed and self.unresolved:
                    now = time.monotonic()
                    self._promote_retries(now)
                    self._assign(now)
                    self._steal(now)
                    # _assign may have resolved the last jobs itself
                    # (queued work dropped because its workers died) —
                    # re-check before sleeping, or this thread waits on
                    # a notification that will never come.
                    if self.closed or not self.unresolved:
                        break
                    self.condition.wait(timeout=self._wakeup(now))
        except BaseException as error:  # pragma: no cover - defensive
            with self.condition:
                self.failure = error
                self.condition.notify_all()

    def _promote_retries(self, now: float) -> None:
        ready = [index for ready_at, index in self.retry_queue
                 if ready_at <= now]
        if ready:
            self.retry_queue = [(ready_at, index)
                                for ready_at, index in self.retry_queue
                                if ready_at > now]
            # Retries jump the queue: they already waited out a backoff.
            self.queue[:0] = ready

    def _assign(self, now: float) -> None:
        self._drop_unservable()
        progress = True
        while progress and self.queue:
            progress = False
            for worker in self.d.topology.workers:
                if worker.name in self.down:
                    continue
                if self.inflight[worker.name] >= worker.capacity:
                    continue
                index = self._pick(worker)
                if index is None:
                    continue
                self.queue.remove(index)
                self._dispatch(index, worker, now)
                progress = True

    def _drop_unservable(self) -> None:
        """Fail queued jobs whose every supporting worker is down."""
        for index in list(self.queue):
            request = self.requests[index]
            if any(worker.name not in self.down
                   for worker in self.d.topology.workers_for(request.method)):
                continue
            self.queue.remove(index)
            self._finish_error(
                index,
                f"all fleet workers for method {request.method!r} are down")

    def _pick(self, worker: WorkerSpec) -> "int | None":
        untried = None
        fallback = None
        for index in self.queue:
            if not worker.supports(self.requests[index].method):
                continue
            if worker.name not in self.tried.get(index, ()):
                untried = index
                break
            if fallback is None:
                fallback = index
        return untried if untried is not None else fallback

    def _dispatch(self, index: int, worker: WorkerSpec, now: float,
                  steal_from: "tuple[int, str] | None" = None) -> None:
        request = self.requests[index]
        epoch = self.epochs.get(index, 0) + 1
        self.epochs[index] = epoch
        self.live.setdefault(index, set()).add(epoch)
        attempt = self.attempt_counts.get(index, 0) + 1
        self.attempt_counts[index] = attempt
        self.attempt_of[(index, epoch)] = attempt
        self.tried.setdefault(index, set()).add(worker.name)
        self.starts[(index, epoch)] = now
        self.running[(index, epoch)] = worker.name
        self.inflight[worker.name] += 1
        self.d.dispatch_log.append((now, index, worker.name))
        if steal_from is not None:
            superseded_attempt, grace_text = steal_from
            self.steals += 1
            # Both attempts race and the original frequently wins, so the
            # "superseded" entry is only pending until this new epoch
            # actually finishes first (_finish attaches it then).
            self.pending_steals[(index, epoch)] = (
                superseded_attempt,
                attempt_entry(
                    superseded_attempt, request.method,
                    "initial" if superseded_attempt == 1 else "retry",
                    "hard_timeout",
                    reason=f"straggler re-dispatch after {grace_text}s grace "
                           f"to {worker.name}"))
        assert self.executor is not None
        self.executor.submit(self._attempt, index, epoch, worker)

    def _steal(self, now: float) -> None:
        grace = self.d.topology.straggler_grace_s
        if grace is None or self.queue:
            return
        grace_text = f"{grace:g}"
        for worker in self.d.topology.workers:
            if worker.name in self.down:
                continue
            if self.inflight[worker.name] >= worker.capacity:
                continue
            best = None
            best_started = None
            for (index, epoch), started in self.starts.items():
                if epoch not in self.live.get(index, ()):
                    continue
                if len(self.live[index]) != 1:
                    continue
                if now - started <= grace:
                    continue
                if self.attempt_counts[index] \
                        >= self.d.retry_policy.max_attempts:
                    continue
                request = self.requests[index]
                if not worker.supports(request.method):
                    continue
                if self.running.get((index, epoch)) == worker.name:
                    continue
                if best_started is None or started < best_started:
                    best, best_started = (index, epoch), started
            if best is None:
                continue
            index, epoch = best
            self._dispatch(index, worker, now,
                           steal_from=(self.attempt_of[(index, epoch)],
                                       grace_text))

    def _wakeup(self, now: float) -> "float | None":
        deadlines = [ready_at for ready_at, _ in self.retry_queue]
        grace = self.d.topology.straggler_grace_s
        if grace is not None and not self.queue:
            for (index, epoch), started in self.starts.items():
                if epoch in self.live.get(index, ()):
                    deadlines.append(started + grace)
        if not deadlines:
            return None
        return max(0.01, min(deadlines) - now)

    # -- one remote attempt ----------------------------------------------------

    def _attempt(self, index: int, epoch: int, worker: WorkerSpec) -> None:
        # One-request batch, not /v1/verify: the worker then executes the
        # job through the exact same VerificationService.run_batch code
        # path as a local run, so reports stay byte-identical to the
        # in-process baseline for every request shape.
        document = {"requests": [self.documents[index]], "jobs": 1}
        client = self.d._client(worker)
        report = None
        reason = None
        transport = False
        retryable = False
        try:
            status, body = client.request_raw("POST", "/v1/batch", document)
        except ServerError as error:
            reason = f"worker {worker.name}: {error}"
            # Only connection-level failures mark the worker down; a
            # client-side request timeout means one slow job, not a dead
            # worker — it routes through the normal retry path so one
            # straggler cannot cascade a healthy fleet into "all down".
            transport = (error.status == 0
                         and error.code != "request_timeout")
            retryable = True
        except Exception as error:  # pragma: no cover - defensive
            reason = (f"worker {worker.name}: "
                      f"{type(error).__name__}: {error}")
            transport = True
            retryable = True
        else:
            if status == 200:
                try:
                    envelope = json.loads(body.decode("utf-8"))
                    report = VerificationReport.from_dict(
                        envelope["reports"][0])
                except Exception as error:
                    reason = (f"worker {worker.name}: unparseable report "
                              f"({type(error).__name__}: {error})")
                    retryable = True
            elif status in RETRYABLE_WORKER_STATUSES:
                reason = f"worker {worker.name}: HTTP {status}"
                retryable = True
            else:
                detail = body[:200].decode("utf-8", "replace")
                reason = f"worker {worker.name}: HTTP {status} {detail}"
                retryable = False
        with self.condition:
            self.inflight[worker.name] -= 1
            self.live.get(index, set()).discard(epoch)
            self.starts.pop((index, epoch), None)
            self.running.pop((index, epoch), None)
            if transport:
                self.down.add(worker.name)
            if index in self.results:
                # A racing duplicate already won; epoch guard drops this.
                self.condition.notify_all()
                return
            if report is not None:
                self._finish(index, epoch, report)
            else:
                self._record_failure(index, epoch, reason or "worker failure",
                                     retryable)
            self.condition.notify_all()

    def _record_failure(self, index: int, epoch: int, reason: str,
                        retryable: bool) -> None:
        attempt = self.attempt_of[(index, epoch)]
        request = self.requests[index]
        # This attempt's real outcome is a crash: it neither supersedes
        # anything (a failed stealer) nor was superseded (the annotation
        # claiming so would be false history).
        self.pending_steals.pop((index, epoch), None)
        for key, (superseded, _entry) in list(self.pending_steals.items()):
            if key[0] == index and superseded == attempt:
                del self.pending_steals[key]
        self.histories.setdefault(index, []).append(attempt_entry(
            attempt, request.method,
            "initial" if attempt == 1 else "retry",
            "crash", reason=reason))
        if self.live.get(index):
            return  # a racing duplicate is still in flight
        up = [worker
              for worker in self.d.topology.workers_for(request.method)
              if worker.name not in self.down]
        if retryable and up \
                and self.attempt_counts[index] \
                < self.d.retry_policy.max_attempts:
            delay = self.d.retry_policy.delay_s(
                attempt,
                key=(request.architecture, request.width, request.method))
            self.retries += 1
            self.retry_queue.append((time.monotonic() + delay, index))
            return
        self._finish_error(index, reason)

    def _finish_error(self, index: int, reason: str) -> None:
        request = self.requests[index]
        report = VerificationReport.from_row({
            "architecture": request.architecture or request.display_name(),
            "width": request.width,
            "method": request.method,
            "status": "error",
            "time": "-",
            "time_s": None,
            "verified": None,
            "reason": reason,
        })
        self._finish(index, None, report, close_history=False)

    def _finish(self, index: int, epoch: "int | None",
                report: VerificationReport, close_history: bool = True) -> None:
        # A steal annotation only becomes true history if the stolen
        # (new-epoch) attempt is the one that actually wins the race —
        # first-finisher-wins means the original frequently does.
        steal = (self.pending_steals.pop((index, epoch), None)
                 if epoch is not None else None)
        if steal is not None:
            self.histories.setdefault(index, []).append(steal[1])
        for key in [key for key in self.pending_steals if key[0] == index]:
            del self.pending_steals[key]
        history = self.histories.pop(index, None)
        if history:
            if close_history:
                attempt = self.attempt_of.get(
                    (index, epoch), self.attempt_counts.get(index, 1))
                history.append(attempt_entry(
                    attempt, report.method,
                    "initial" if attempt == 1 else "retry",
                    report.verdict, reason=report.reason))
            report.attempts = list(report.attempts or ()) + history
        key = self.keys.get(index)
        if key is not None and self.d.cache is not None:
            self.d.cache.put_report(key, report)
        self.results[index] = report
        self.executed += 1
        self.unresolved -= 1
        # Always called with the lock held; wake the consumer directly so
        # resolutions that never pass through _attempt — a queued job
        # dropped because its every supporting worker went down — cannot
        # leave take() blocked forever.
        self.condition.notify_all()
