"""Fleet dispatcher: scatter verification requests over remote workers.

The :class:`FleetDispatcher` is the coordinator of a verification fleet.
Each worker is simply a running ``repro-verify serve`` (the PR 5 HTTP
server) on some host/port; the dispatcher speaks the same wire protocol
as :class:`~repro.server.client.VerificationClient` and therefore needs
no worker-side changes beyond the ``/v1/version`` handshake.

A fleet batch runs on :meth:`ParallelRunner.iter_rows
<repro.experiments.runner.ParallelRunner.iter_rows>`, the loop that runs
local batches on worker processes: each worker's ``capacity`` becomes
that many :class:`_RemoteSlot` entries of it.  Queueing,
longest-expected-first placement, the :class:`~repro.resilience.policy.
RetryPolicy` backoff, ``attempts`` histories, the topology's result cache
and the ``last_*`` counters are therefore the runner's.  What a remote
slot brings to the loop is its own:

* **One attempt, one thread** — an attempt posts a one-request
  ``/v1/batch`` from a daemon thread of its own and answers on a pipe the
  loop waits on beside the processes' pipes.  The loop runs in the
  consumer's thread, so a consumer holding a report (or a local entry
  running) pauses dispatch; a closed or failed batch closes the pipes of
  the attempts in flight, which run out on their own, unreported and
  uncached.
* **Backend allowlists** — a slot accepts only the methods its worker
  runs.
* **Down-marking** — a worker that drops the TCP connection is marked
  down for the rest of the batch; a client-side *request timeout* is not
  (the worker may be healthy and merely slow on one job).  Connect
  errors, timeouts, unparseable answers and 429/5xx answers are
  ``crash`` rows, which the retry rule re-dispatches, on a worker that
  has not tried the job when one is free; other answers are final.
* **Work-stealing** — once the queue drains, a job in flight alone for
  longer than ``straggler_grace_s`` is re-dispatched to an idle slot of
  another worker.  Both attempts race and the first answer wins; the
  report's ``attempts`` history records the steal only when the stolen
  attempt is the one that won.

Results are byte-identical to local runs: workers return canonical
:class:`~repro.api.report.VerificationReport` JSON, and the dispatcher
only annotates ``attempts`` (excluded from parity by definition) when a
job needed more than one dispatch.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import threading
import time
from typing import Callable, Iterator, Sequence

from repro.api.report import REPORT_SCHEMA, VerificationReport
from repro.api.request import Budgets, VerificationRequest
from repro.errors import VerificationError
from repro.resilience.policy import RetryPolicy
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
        self.topology = topology
        self.local_service = local_service
        self.request_timeout_s = request_timeout_s
        self._client_factory = client_factory
        self._clients: dict[str, VerificationClient] = {}
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

        Requests that can travel run on the runner's loop over this
        topology's remote slots, in whichever thread iterates this
        generator; the others (see :func:`wire_document`, and methods no
        worker runs) run on the coordinator's local service when their
        turn to be yielded comes, through the same single-request
        ``run_batch`` path, so their reports stay identical too.  ``jobs``
        is accepted for service-interface compatibility; fleet concurrency
        is governed by worker capacities, not a local pool.
        """
        from repro.experiments.runner import ParallelRunner

        del jobs
        requests = list(requests)
        down: set[str] = set()
        self.check_workers(down=down)
        remote = [index for index, request in enumerate(requests)
                  if wire_document(request) is not None
                  and self.topology.workers_for(request.method)]
        runner = ParallelRunner(cache_dir=self.topology.cache_dir,
                                retry_policy=self.retry_policy)

        def dispatched(position: int, worker_name: str) -> None:
            self.dispatch_log.append(
                (time.monotonic(), remote[position], worker_name))

        workers = [_RemoteWorker(spec, self._client(spec), spec.name in down)
                   for spec in self.topology.workers]
        # Round-robin over the workers, so a batch's first jobs spread.
        slots = [_RemoteSlot(worker, self.topology.straggler_grace_s,
                             dispatched)
                 for rank in range(max(spec.capacity
                                       for spec in self.topology.workers))
                 for worker in workers if rank < worker.spec.capacity]
        rows = runner.iter_rows([requests[index] for index in remote], slots)
        travels = set(remote)
        reports: dict[int, VerificationReport] = {}
        executed = 0
        try:
            for index, request in enumerate(requests):
                if index not in travels:
                    reports[index] = self._local_service().run_batch(
                        [request])[0]
                    executed += 1
                while index not in reports:
                    position, row = next(rows)
                    reports[remote[position]] = VerificationReport.from_row(row)
                yield reports.pop(index)
        finally:
            rows.close()
        self.last_cache_hits = runner.last_cache_hits
        self.last_executed = runner.last_executed + executed
        self.last_retries = runner.last_retries
        self.last_fallbacks = 0
        self.last_steals = runner.last_steals


@dataclasses.dataclass
class _RemoteWorker:
    """One worker's state in a batch, shared by its slots."""

    spec: WorkerSpec
    client: VerificationClient
    down: bool
    #: The batch's jobs dispatched to this worker so far.
    tried: set = dataclasses.field(default_factory=set)


class _RemoteSlot:
    """One of a remote worker's ``capacity`` slots in the runner's loop.

    :meth:`~repro.experiments.runner.ParallelRunner.iter_rows` drives it
    through the attributes and methods of a pool worker process
    (:class:`~repro.experiments.runner._PoolWorker`).  The worker enforces
    a job's hard limit itself, so a slot has no deadline; it has a
    straggler ``grace`` instead, past which an idle slot of another worker
    may steal its job.
    """

    deadline = None

    def __init__(self, worker: _RemoteWorker, grace: "float | None",
                 dispatched: Callable[[int, str], None]) -> None:
        self.worker = worker
        self.name = worker.spec.name
        self.grace = grace
        self.dispatched = dispatched
        self.tried = worker.tried
        self.index: "int | None" = None
        self.job: "VerificationRequest | None" = None
        self.attempt = 0
        self.started = 0.0
        self.connection = None

    @property
    def busy(self) -> bool:
        return self.index is not None

    @property
    def handles(self) -> tuple:
        return (self.connection,)

    def accepts(self, job: VerificationRequest) -> bool:
        """Whether the worker is up and its allowlist admits ``job``."""
        return not self.worker.down and self.worker.spec.supports(job.method)

    def assign(self, index: int, job: VerificationRequest,
               task_timeout_s: "float | None") -> None:
        """Post ``job``, the run's ``index``-th, from a thread of its own.

        The hard limit travels in the job's budgets.  The answer comes
        back on a fresh pipe (a socket pair, which a forked pool worker
        releases at start), so a dropped attempt's late answer never
        reaches a later job of this slot.
        """
        del task_timeout_s
        self.index = index
        self.job = job
        self.started = time.monotonic()
        self.tried.add(index)
        self.dispatched(index, self.name)
        self.connection, answer = multiprocessing.Pipe()
        threading.Thread(
            target=_attempt, name="repro-fleet-attempt", daemon=True,
            args=(answer, self.worker.client, self.name, job)).start()

    def receive(self) -> dict:
        """The attempt's row; marks the worker down if it dropped out."""
        row, down = self.connection.recv()
        self.worker.down = self.worker.down or down
        return row

    def release(self) -> None:
        """Forget the attempt; an answer still to come is dropped."""
        self.connection.close()
        self.index = None
        self.job = None

    kill = release


def _attempt(answer, client: VerificationClient, worker_name: str,
             job: VerificationRequest) -> None:
    """One remote attempt, on its own thread: post, classify, answer.

    Sends ``(row, worker_down)`` on ``answer`` once.  Connect errors,
    request timeouts, unparseable answers and retryable HTTP statuses are
    ``crash`` rows, which the runner's retry rule re-dispatches; any other
    HTTP status is a final ``error`` row.  When the batch dropped the
    attempt meanwhile, the send fails and the answer is lost.
    """
    status, reason, down = "crash", None, False
    # One-request batch, not /v1/verify: the worker then executes the job
    # through the exact same VerificationService.run_batch code path as a
    # local run, so reports stay byte-identical to the in-process baseline
    # for every request shape.
    document = {"requests": [wire_document(job)], "jobs": 1}
    try:
        code, body = client.request_raw("POST", "/v1/batch", document)
    except ServerError as error:
        reason = f"worker {worker_name}: {error}"
        # Only connection-level failures mark the worker down; a
        # client-side request timeout means one slow job, not a dead
        # worker, so one straggler cannot cascade a healthy fleet into
        # "all down".
        down = error.status == 0 and error.code != "request_timeout"
    except Exception as error:  # pragma: no cover - defensive
        reason = f"worker {worker_name}: {type(error).__name__}: {error}"
        down = True
    else:
        if code == 200:
            try:
                envelope = json.loads(body.decode("utf-8"))
                row = VerificationReport.from_dict(
                    envelope["reports"][0]).to_row()
            except Exception as error:
                reason = (f"worker {worker_name}: unparseable report "
                          f"({type(error).__name__}: {error})")
        elif code in RETRYABLE_WORKER_STATUSES:
            reason = f"worker {worker_name}: HTTP {code}"
        else:
            status = "error"
            reason = (f"worker {worker_name}: HTTP {code} "
                      f"{body[:200].decode('utf-8', 'replace')}")
    if reason is not None:
        row = VerificationReport.from_failure(job, status, reason).to_row()
    try:
        answer.send((row, down))
    except OSError:
        pass  # the batch is over: nobody reads this answer
    finally:
        answer.close()
