"""Fleet dispatcher: scatter verification requests over remote workers.

The :class:`FleetDispatcher` is the coordinator of a verification fleet.
Each worker is simply a running ``repro-verify serve`` (the PR 5 HTTP
server) on some host/port; the dispatcher speaks the same wire protocol
as :class:`~repro.server.client.VerificationClient` and therefore needs
no worker-side changes beyond the ``/v1/version`` handshake.

Scheduling mirrors :class:`~repro.experiments.runner.ParallelRunner`,
whose loop is also a generator in its consumer's thread:

* **One loop, in the consumer's thread** — ``iter_batch`` is a
  generator.  It dispatches, steals and books answers only while it is
  iterated, so a consumer holding a report (or a local entry running)
  pauses dispatch.  Each remote attempt is a daemon thread that posts
  one request and hands the answer back; nothing else runs beside it.
* **Longest-expected-first placement** — queued requests are sorted by
  :func:`~repro.experiments.runner.expected_cost_key` (descending) so
  the heavy Booth/tree rows go out first and the grid's wall-clock is
  not dominated by a straggling tail.
* **Bounded in-flight per worker** — each :class:`WorkerSpec` carries a
  ``capacity``; the dispatcher never keeps more than that many requests
  outstanding on one worker.
* **Work-stealing** — once the queue drains, an unresolved job in
  flight longer than ``straggler_grace_s`` is re-dispatched to an idle
  worker.  Both attempts race and the first finisher wins; a
  dispatch-epoch guard drops the loser's result.  The batch does not
  wait for the loser, nor does a closed or failed batch wait for any
  attempt in flight: those run out on their own, unreported and
  uncached.
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
from queue import Empty, SimpleQueue
from typing import Callable, Iterator, Sequence

from repro.api.report import REPORT_SCHEMA, VerificationReport
from repro.api.request import Budgets, VerificationRequest
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


class FleetDispatcher:
    """Coordinator that runs batches across a :class:`FleetTopology`.

    Mirrors the :class:`~repro.api.service.VerificationService` batch
    surface — ``run_batch`` returns the full report list,
    ``iter_batch`` yields reports in request order as they resolve —
    so the HTTP server's ``/v1/batch`` handler can swap one in for the
    other when it was started with a fleet topology.
    """

    def __init__(self, topology: FleetTopology,
                 local_service=None,
                 client_factory: "Callable[[WorkerSpec], VerificationClient] | None" = None,
                 request_timeout_s: float = 300.0) -> None:
        from repro.experiments.runner import ResultCache

        self.topology = topology
        self.local_service = local_service
        self.request_timeout_s = request_timeout_s
        self._client_factory = client_factory
        self._clients: dict[str, VerificationClient] = {}
        self.cache = (ResultCache(topology.cache_dir)
                      if topology.cache_dir else None)
        self.retry_policy = RetryPolicy(max_attempts=topology.max_attempts)
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
                # Each attempt runs on a thread of its own, so a
                # per-thread keep-alive connection would never be reused.
                client = VerificationClient(
                    host=worker.host, port=worker.port,
                    timeout_s=self.request_timeout_s,
                    retry_policy=RetryPolicy(max_attempts=1),
                    keep_alive=False)
            self._clients[worker.name] = client
        return client

    def _local_service(self):
        if self.local_service is None:
            from repro.api.service import VerificationService

            self.local_service = VerificationService()
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

        The batch's one scheduling loop runs in whichever thread iterates
        this generator (see :meth:`_FleetRun.reports`).  ``jobs`` is
        accepted for service-interface compatibility; fleet concurrency
        is governed by worker capacities, not a local pool.
        """
        del jobs
        return _FleetRun(self, list(requests)).reports()


def _attempt(answers: SimpleQueue, key: tuple[int, int],
             client: VerificationClient, worker_name: str,
             document: dict) -> None:
    """One remote attempt, on its own thread: post, classify, answer.

    Touches no batch state: puts ``key + (report, reason, worker_down,
    retryable)`` on ``answers``, exactly once, because the batch loop
    waits for every attempt it dispatched to answer.
    """
    report = None
    reason = None
    worker_down = False
    retryable = False
    try:
        status, body = client.request_raw("POST", "/v1/batch", document)
    except ServerError as error:
        reason = f"worker {worker_name}: {error}"
        # Only connection-level failures mark the worker down; a
        # client-side request timeout means one slow job, not a dead
        # worker — it routes through the normal retry path so one
        # straggler cannot cascade a healthy fleet into "all down".
        worker_down = (error.status == 0
                       and error.code != "request_timeout")
        retryable = True
    except Exception as error:  # pragma: no cover - defensive
        reason = f"worker {worker_name}: {type(error).__name__}: {error}"
        worker_down = True
        retryable = True
    else:
        if status == 200:
            try:
                envelope = json.loads(body.decode("utf-8"))
                report = VerificationReport.from_dict(envelope["reports"][0])
            except Exception as error:
                reason = (f"worker {worker_name}: unparseable report "
                          f"({type(error).__name__}: {error})")
                retryable = True
        elif status in RETRYABLE_WORKER_STATUSES:
            reason = f"worker {worker_name}: HTTP {status}"
            retryable = True
        else:
            detail = body[:200].decode("utf-8", "replace")
            reason = f"worker {worker_name}: HTTP {status} {detail}"
    answers.put(key + (report, reason, worker_down, retryable))


class _FleetRun:
    """One batch: its queue, attempts in flight, retries and results.

    All of it belongs to the thread iterating :meth:`reports`; attempt
    threads only put their answers on ``answers``.
    """

    def __init__(self, dispatcher: FleetDispatcher,
                 requests: list[VerificationRequest]) -> None:
        self.d = dispatcher
        self.requests = requests
        self.documents: dict[int, dict] = {}
        self.keys: dict[int, "str | None"] = {}
        self.results: dict[int, VerificationReport] = {}
        self.local: set[int] = set()
        self.queue: list[int] = []
        self.retry_queue: list[tuple[float, int]] = []
        #: Dispatches so far per request: its n-th dispatch is epoch n,
        #: and attempt n of its ``attempts`` history.
        self.epochs: dict[int, int] = {}
        #: ``(index, epoch) -> (dispatch time, worker name)`` per attempt
        #: in flight, a steal's loser included until it answers.
        self.running: dict[tuple[int, int], tuple[float, str]] = {}
        self.histories: dict[int, list[dict]] = {}
        #: ``(index, stealing epoch) -> superseded attempt's entry`` —
        #: steal annotations held back until the stolen attempt wins.
        self.pending_steals: dict[tuple[int, int], dict] = {}
        self.tried: dict[int, set[str]] = {}
        self.down: set[str] = set()
        self.answers: SimpleQueue = SimpleQueue()
        self.cache_hits = 0
        self.executed = 0
        self.retries = 0
        self.steals = 0

    def reports(self) -> Iterator[VerificationReport]:
        """The batch's one loop: yield each report in request order.

        Before a report goes out, the answers that came in are booked and
        idle workers take their next jobs.  Exhaustion, ``close()`` and
        an exception return at once: attempts still in flight run out on
        their own, and their answers are neither reported nor cached.
        """
        self._start()
        for index in range(len(self.requests)):
            if index in self.local:
                # Single-request run_batch, mirroring the remote dispatch
                # path, so local fallbacks stay byte-identical too.
                self.results[index] = self.d._local_service().run_batch(
                    [self.requests[index]])[0]
                self.executed += 1
            wait: "float | None" = 0.0
            while True:
                self._collect(wait)
                now = time.monotonic()
                self._promote_retries(now)
                self._assign(now)
                self._steal(now)
                if index in self.results:
                    break
                wait = self._wakeup(now)
            yield self.results[index]
        self.d.last_cache_hits = self.cache_hits
        self.d.last_executed = self.executed
        self.d.last_retries = self.retries
        self.d.last_fallbacks = 0
        self.d.last_steals = self.steals

    def _start(self) -> None:
        from repro.experiments.runner import expected_cost_key

        self.d.check_workers(down=self.down)
        for index, request in enumerate(self.requests):
            document = wire_document(request)
            if document is None \
                    or not self.d.topology.workers_for(request.method):
                self.local.add(index)
                continue
            key = None
            if self.d.cache is not None:
                from repro.api.service import request_cache_key

                key = request_cache_key(request)
                if key is not None:
                    report = self.d.cache.get(key)
                    if report is not None:
                        self.results[index] = report
                        self.cache_hits += 1
                        continue
            self.keys[index] = key
            self.documents[index] = document
        # Longest expected cost first; stable on grid order for ties.
        self.queue = sorted(
            self.documents,
            key=lambda index: expected_cost_key(self.requests[index]),
            reverse=True)

    # -- scheduling ------------------------------------------------------------

    def _collect(self, wait: "float | None") -> None:
        """Book every answer posted, first waiting for one if need be.

        ``wait`` bounds that wait in seconds; ``None`` waits until an
        answer comes, and ``0`` does not wait.
        """
        block = wait is None or wait > 0
        while True:
            try:
                answer = self.answers.get(block, wait)
            except Empty:
                return
            self._settle(*answer)
            block = False

    def _promote_retries(self, now: float) -> None:
        ready = [index for ready_at, index in self.retry_queue
                 if ready_at <= now]
        if ready:
            self.retry_queue = [(ready_at, index)
                                for ready_at, index in self.retry_queue
                                if ready_at > now]
            # Retries jump the queue: they already waited out a backoff.
            self.queue[:0] = ready

    def _free(self, worker: WorkerSpec) -> bool:
        """True iff ``worker`` is up and has room for one more attempt."""
        busy = sum(1 for _, name in self.running.values()
                   if name == worker.name)
        return worker.name not in self.down and busy < worker.capacity

    def _in_flight(self, index: int) -> int:
        return sum(1 for other, _ in self.running if other == index)

    def _assign(self, now: float) -> None:
        self._drop_unservable()
        progress = True
        while progress and self.queue:
            progress = False
            for worker in self.d.topology.workers:
                if not self._free(worker):
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
                  superseded: "int | None" = None) -> None:
        client = self.d._client(worker)
        epoch = self.epochs.get(index, 0) + 1
        self.epochs[index] = epoch
        self.tried.setdefault(index, set()).add(worker.name)
        self.running[(index, epoch)] = (now, worker.name)
        self.d.dispatch_log.append((now, index, worker.name))
        if superseded is not None:
            self.steals += 1
            # Both attempts race and the original frequently wins, so the
            # "superseded" entry is only pending until this new epoch
            # actually finishes first (_finish attaches it then).
            self.pending_steals[(index, epoch)] = attempt_entry(
                superseded, self.requests[index].method,
                "initial" if superseded == 1 else "retry",
                "hard_timeout",
                reason=f"straggler re-dispatch after "
                       f"{self.d.topology.straggler_grace_s:g}s grace "
                       f"to {worker.name}")
        # One-request batch, not /v1/verify: the worker then executes the
        # job through the exact same VerificationService.run_batch code
        # path as a local run, so reports stay byte-identical to the
        # in-process baseline for every request shape.
        document = {"requests": [self.documents[index]], "jobs": 1}
        threading.Thread(
            target=_attempt, name="repro-fleet-attempt", daemon=True,
            args=(self.answers, (index, epoch), client, worker.name,
                  document)).start()

    def _steal(self, now: float) -> None:
        grace = self.d.topology.straggler_grace_s
        if grace is None or self.queue:
            return
        for worker in self.d.topology.workers:
            if not self._free(worker):
                continue
            # The earliest-dispatched unresolved job alone in flight past
            # its grace, on another worker, that this one may run.
            candidates = [
                (started, index, epoch)
                for (index, epoch), (started, name) in self.running.items()
                if now - started > grace and name != worker.name
                and index not in self.results
                and self._in_flight(index) == 1
                and self.epochs[index] < self.d.retry_policy.max_attempts
                and worker.supports(self.requests[index].method)]
            if candidates:
                _, index, epoch = min(candidates, key=lambda item: item[0])
                self._dispatch(index, worker, now, superseded=epoch)

    def _wakeup(self, now: float) -> "float | None":
        """Seconds until a retry comes due or a straggler's grace ends.

        An expired grace is left out: its job becomes stealable only when
        a worker frees up, and that worker's answer ends the wait anyway.
        """
        moments = [ready_at for ready_at, _ in self.retry_queue]
        grace = self.d.topology.straggler_grace_s
        if grace is not None and not self.queue:
            moments += [started + grace
                        for started, _ in self.running.values()
                        if now - started <= grace]
        return min(moments) - now if moments else None

    # -- bookkeeping -----------------------------------------------------------

    def _settle(self, index: int, epoch: int,
                report: "VerificationReport | None", reason: "str | None",
                worker_down: bool, retryable: bool) -> None:
        """Book one attempt's answer (see :func:`_attempt`)."""
        _, worker_name = self.running.pop((index, epoch))
        if worker_down:
            self.down.add(worker_name)
        if index in self.results:
            return  # a racing duplicate already won; the epoch is stale
        if report is not None:
            self._finish(index, epoch, report)
        else:
            self._record_failure(index, epoch, reason, retryable)

    def _record_failure(self, index: int, epoch: int, reason: str,
                        retryable: bool) -> None:
        request = self.requests[index]
        # This attempt's real outcome is a crash: it neither supersedes
        # anything (a failed stealer) nor was superseded (the annotation
        # claiming so would be false history).
        self.pending_steals.pop((index, epoch), None)
        for key, entry in list(self.pending_steals.items()):
            if key[0] == index and entry["attempt"] == epoch:
                del self.pending_steals[key]
        self.histories.setdefault(index, []).append(attempt_entry(
            epoch, request.method,
            "initial" if epoch == 1 else "retry",
            "crash", reason=reason))
        if self._in_flight(index):
            return  # a racing duplicate is still in flight
        up = [worker
              for worker in self.d.topology.workers_for(request.method)
              if worker.name not in self.down]
        if retryable and up \
                and self.epochs[index] < self.d.retry_policy.max_attempts:
            delay = self.d.retry_policy.delay_s(
                epoch,
                key=(request.architecture, request.width, request.method))
            self.retries += 1
            self.retry_queue.append((time.monotonic() + delay, index))
            return
        self._finish_error(index, reason)

    def _finish_error(self, index: int, reason: str) -> None:
        self._finish(index, None, VerificationReport.from_failure(
            self.requests[index], "error", reason))

    def _finish(self, index: int, epoch: "int | None",
                report: VerificationReport) -> None:
        """Resolve ``index`` with the report of attempt ``epoch``.

        ``epoch`` is ``None`` for the batch's own error report, whose
        history then ends at the last failed attempt.
        """
        # A steal annotation only becomes true history if the stolen
        # (new-epoch) attempt is the one that actually wins the race —
        # first-finisher-wins means the original frequently does.
        steal = self.pending_steals.pop((index, epoch), None)
        if steal is not None:
            self.histories.setdefault(index, []).append(steal)
        for key in [key for key in self.pending_steals if key[0] == index]:
            del self.pending_steals[key]
        history = self.histories.pop(index, None)
        if history:
            if epoch is not None:
                history.append(attempt_entry(
                    epoch, report.method,
                    "initial" if epoch == 1 else "retry",
                    report.verdict, reason=report.reason))
            report.attempts = list(report.attempts or ()) + history
        key = self.keys[index]
        if key is not None:
            self.d.cache.put(key, report)
        self.results[index] = report
        self.executed += 1
