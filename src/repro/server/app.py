"""The verification server application: routes, wire schemas, metrics.

This module is transport-free — :meth:`VerificationServerApp.handle` maps
``(HTTP method, path, body bytes)`` to an :class:`HttpResponse`, and the
asyncio front end (:mod:`repro.server.http`) only moves bytes.  That keeps
every endpoint unit-testable without sockets.

Endpoints
---------

* ``POST /v1/verify`` — one wire request document, answered with the
  canonical :class:`~repro.api.report.VerificationReport` JSON (the exact
  ``to_json()`` bytes of the in-process :meth:`VerificationService.submit`
  report).
* ``POST /v1/batch`` — ``{"requests": [...], "jobs": N?, "async": bool?,
  "stream": bool?}``; each entry runs under its own budgets (the fields
  it omits take the served defaults).  Synchronous
  batches answer with a ``{"reports": [...]}`` envelope; ``"async": true``
  answers 202 with a job id for ``GET /v1/jobs/{id}`` polling;
  ``"stream": true`` answers chunked NDJSON — one canonical report per
  line as it resolves, then a counter trailer.  Every local batch leases
  its worker processes from the app's one persistent pool, started by the
  first batch that needs processes.  A server started with a fleet
  topology scatters batches over its workers instead of the local pool.
* ``GET /v1/jobs/{id}`` — poll an asynchronous batch (bounded store,
  evicted ids are 404).
* ``GET /v1/certificates/{hash}`` — fetch a proof certificate emitted by
  a ``"certificate": true`` verify/batch request, by content hash
  (bounded store, evicted hashes are 404).
* ``GET /v1/backends`` — the :mod:`repro.api.registry` specs, including
  the full capability set (``supports_counterexample``,
  ``supports_stats``, ``certifiable``).
* ``GET /v1/version`` — package version plus wire-schema numbers (report
  schema, certificate version, cache schema); the fleet coordinator's
  mixed-schema handshake.
* ``GET/PUT /v1/cache/{key}`` — the shared content-addressed result
  cache (``repro-verify serve --cache``): fleet workers check before
  executing and publish after, so a row verified anywhere is verified
  everywhere.
* ``GET /healthz`` / ``GET /metrics`` — liveness and counters.

Every error is a structured JSON body
``{"error": {"code": ..., "message": ...}}`` with a 4xx/5xx status;
verification *outcomes* (refuted, budget trips) are 200 responses whose
report carries the verdict — the HTTP status describes the transport, the
verdict describes the circuit (see ``docs/http-api.md``).
"""

from __future__ import annotations

import dataclasses
import json
import re
import threading
import time
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro import __version__
from repro.api.registry import backends
from repro.api.report import VERDICTS, VerificationReport
from repro.api.request import Budgets, VerificationRequest
from repro.api.service import VerificationService
from repro.errors import ReproError
from repro.server.jobs import JobStore, JobStoreFull

#: Wire-document keys accepted by ``POST /v1/verify`` and batch entries.
#: ``netlist`` and ``verilog_path`` are deliberately absent: in-memory
#: objects cannot travel over HTTP, and server-local file paths would let
#: clients read arbitrary files — external circuits come in as
#: ``verilog_text``.
REQUEST_KEYS = ("method", "architecture", "width", "circuit_kind",
                "verilog_text", "specification", "budgets",
                "find_counterexample", "xor_and_only", "certificate",
                "seed")

#: Budget keys accepted in a wire document — the ``Budgets`` field names.
BUDGET_KEYS = tuple(field.name for field in dataclasses.fields(Budgets))

#: Shared-cache keys are sha256 hex digests, nothing else.
_CACHE_KEY_RE = re.compile(r"^[0-9a-f]{64}$")


class ApiError(Exception):
    """A structured HTTP error: status + machine-readable code + message."""

    def __init__(self, status: int, code: str, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.code = code


@dataclass
class HttpResponse:
    """Transport-free response: status, body bytes, content type.

    ``headers`` carries extra response headers (e.g. ``Retry-After`` on a
    429) rendered verbatim by the transport after the standard set.
    ``stream``, when set, is a byte-chunk iterator the transport writes
    incrementally after the head (``body`` is ignored, the connection
    closes when the iterator ends) — the streaming ``/v1/batch`` NDJSON
    path.
    """

    status: int
    body: bytes
    content_type: str = "application/json"
    headers: dict = field(default_factory=dict)
    stream: object | None = None


def _json_response(document: dict, status: int = 200) -> HttpResponse:
    """Canonical envelope serialization: compact separators, UTF-8.

    The separators match :meth:`VerificationReport.to_json`, so a report
    dict embedded in an envelope re-serializes byte-identically to the
    standalone report JSON.
    """
    body = json.dumps(document, ensure_ascii=False,
                      separators=(",", ":")).encode("utf-8")
    return HttpResponse(status=status, body=body)


def error_response(status: int, code: str, message: str) -> HttpResponse:
    return _json_response({"error": {"code": code, "message": message}},
                          status=status)


def _require_types(kwargs: dict, keys: tuple[str, ...], kind: type,
                   label: str) -> None:
    """400 unless every present key holds ``kind`` or ``None``.

    ``bool`` is a subclass of ``int``, so integer fields explicitly reject
    booleans rather than silently coercing ``true`` to 1.
    """
    for key in keys:
        value = kwargs.get(key)
        if value is None:
            continue
        if not isinstance(value, kind) or (kind is not bool
                                           and isinstance(value, bool)):
            raise ApiError(400, "bad_request",
                           f"{key!r} must be {label}, "
                           f"got {type(value).__name__}")


def parse_request_document(document: object,
                           budgets: Budgets = Budgets()) -> VerificationRequest:
    """Build a :class:`VerificationRequest` from one wire JSON document;
    a budget field the document omits takes its value from ``budgets``."""
    if not isinstance(document, dict):
        raise ApiError(400, "bad_request",
                       "request document must be a JSON object")
    for key in ("netlist", "verilog_path"):
        if key in document:
            raise ApiError(400, "unsupported_field",
                           f"{key!r} is not accepted over HTTP; send the "
                           "circuit as 'verilog_text' or name a generated "
                           "'architecture'")
    unknown = sorted(set(document) - set(REQUEST_KEYS))
    if unknown:
        raise ApiError(400, "unknown_field",
                       f"unknown request field(s) {unknown}; expected a "
                       f"subset of {list(REQUEST_KEYS)}")
    kwargs = dict(document)
    sent = kwargs.pop("budgets", None)
    if sent is None:
        sent = {}
    elif not isinstance(sent, dict):
        raise ApiError(400, "bad_request", "'budgets' must be a JSON object")
    unknown = sorted(set(sent) - set(BUDGET_KEYS))
    if unknown:
        raise ApiError(400, "unknown_field",
                       f"unknown budget field(s) {unknown}; expected a "
                       f"subset of {list(BUDGET_KEYS)}")
    for key, value in sent.items():
        # A malformed budget is the client's fault: reject it here as a
        # 400 instead of letting a string reach the engine as a 500.
        if value is not None and (isinstance(value, bool)
                                  or not isinstance(value, (int, float))):
            raise ApiError(400, "bad_request",
                           f"budget {key!r} must be a number or null, "
                           f"got {type(value).__name__}")
    kwargs["budgets"] = budgets.replace(**sent)
    specification = kwargs.get("specification")
    if specification is not None and not isinstance(specification, str):
        raise ApiError(400, "bad_request",
                       "'specification' must be a string over HTTP "
                       "('multiplier' or 'adder')")
    # Field-type validation: malformed client input is a 400, never a 500
    # from deep inside the generator or engine.
    _require_types(kwargs, ("method", "architecture", "circuit_kind",
                            "verilog_text"), str, "a string")
    _require_types(kwargs, ("width", "seed"), int, "an integer")
    _require_types(kwargs, ("find_counterexample", "xor_and_only",
                            "certificate"), bool, "a boolean")
    try:
        return VerificationRequest(**kwargs)
    except TypeError as error:
        raise ApiError(400, "bad_request", str(error)) from None


class VerificationServerApp:
    """The HTTP application over :class:`VerificationService`.

    One app owns the job store, the background batch executor, the batch
    worker pool, and the metrics counters; a fresh
    :class:`VerificationService` is built per request (construction is
    free) so no mutable service state is shared between the transport's
    worker threads.  The worker pool
    (:class:`~repro.experiments.runner.WorkerPool`) is the exception: the
    first batch that needs worker processes creates it, every later batch
    leases its workers from it, and :meth:`close` stops them.  It keeps at
    most ``jobs`` workers idle between batches.

    ``budgets`` fill the budget fields a wire document omits (see
    :meth:`request_from_document`); ``jobs``/``cache_dir`` configure the
    batch pool, and ``job_store_limit`` bounds the async job store, whose
    batches run on two background threads.

    Resilience (``docs/robustness.md``): ``max_inflight`` bounds the
    verification POSTs executing at once — the excess is answered ``429``
    with a ``Retry-After: retry_after_s`` header instead of queueing
    without bound.  ``request_deadline_s`` clamps every request's
    ``time_budget_s`` (and a batch entry's hard task timeout), so an
    oversized request answers ``verdict="budget"`` within the deadline
    instead of holding a socket open indefinitely.  ``retry_policy`` and
    ``fallback_policy`` are handed to each per-request
    :class:`VerificationService`.
    """

    def __init__(self, budgets: Budgets | None = None,
                 jobs: int = 1,
                 cache_dir=None,
                 job_store_limit: int = 256,
                 certificate_store_limit: int = 256,
                 max_inflight: int | None = None,
                 retry_after_s: int = 1,
                 request_deadline_s: float | None = None,
                 retry_policy=None,
                 fallback_policy=None,
                 shared_cache_url: str | None = None,
                 fleet_topology=None) -> None:
        self.budgets = budgets if budgets is not None else Budgets()
        self.jobs = jobs
        self.cache_dir = cache_dir
        self.max_inflight = max_inflight
        self.retry_after_s = retry_after_s
        self.request_deadline_s = request_deadline_s
        self.retry_policy = retry_policy
        self.fallback_policy = fallback_policy
        #: Coordinator URL whose ``/v1/cache/{key}`` this worker checks
        #: before executing and populates after (``None`` = standalone).
        self.shared_cache_url = shared_cache_url
        #: When set, ``/v1/batch`` scatters over this
        #: :class:`~repro.fleet.FleetTopology` instead of the local pool.
        self.fleet_topology = fleet_topology
        self._shared_cache_client_instance = None
        self._result_cache = None
        self._pool = None
        self._pool_lock = threading.Lock()
        self.job_store = JobStore(limit=job_store_limit)
        self._job_executor = ThreadPoolExecutor(
            max_workers=2, thread_name_prefix="repro-batch")
        self._metrics_lock = threading.Lock()
        self._started_monotonic = time.monotonic()
        self._requests_total = 0
        self._errors_total = 0
        self._batches_total = 0
        self._async_batches_total = 0
        self._reports_total = 0
        self._verdicts = dict.fromkeys(VERDICTS, 0)
        self._cache_hits_total = 0
        self._executed_total = 0
        self._inflight = 0
        self._rejected_total = 0
        self._retries_total = 0
        self._fallbacks_total = 0
        self._steals_total = 0
        self._shared_cache_hits_total = 0
        self._shared_cache_puts_total = 0
        self._cache_gets_served_total = 0
        self._cache_puts_served_total = 0
        #: Bounded content-addressed store behind ``GET /v1/certificates/``;
        #: insertion order doubles as FIFO eviction order.
        self.certificate_store_limit = certificate_store_limit
        self._certificates: dict[str, dict] = {}
        self._certificates_lock = threading.Lock()

    # -- plumbing --------------------------------------------------------------

    def service(self, pool=None) -> VerificationService:
        """A fresh service with the app-level defaults (thread-safe by construction)."""
        return VerificationService(
            jobs=self.jobs,
            cache_dir=self.cache_dir,
            retry_policy=self.retry_policy,
            fallback_policy=self.fallback_policy,
            pool=pool)

    @property
    def pool(self):
        """The batch worker pool, created on first use (no process starts
        before a batch leases one)."""
        with self._pool_lock:
            if self._pool is None:
                from repro.experiments.runner import WorkerPool

                self._pool = WorkerPool(max_idle=self.jobs)
                # An app dropped without close() must not leave its idle
                # workers running for the rest of the process.
                weakref.finalize(self, self._pool.close)
            return self._pool

    def _batch_runner(self):
        """The batch execution engine: fleet dispatcher or local service.

        Both expose the same surface (``run_batch``/``iter_batch`` plus
        the ``last_*`` counters), so every batch path — synchronous,
        asynchronous, streaming — is fleet-transparent.
        """
        service = self.service(pool=self.pool)
        if self.fleet_topology is not None:
            from repro.fleet import FleetDispatcher

            return FleetDispatcher(self.fleet_topology, local_service=service)
        return service

    @property
    def result_cache(self):
        """The on-disk result cache behind ``/v1/cache/`` (lazy; may be None)."""
        if self._result_cache is None and self.cache_dir is not None:
            from repro.experiments.runner import ResultCache

            self._result_cache = ResultCache(self.cache_dir)
        return self._result_cache

    def close(self) -> None:
        """Stop the background batch executor (pending jobs are abandoned)
        and the worker pool (workers of batches still running stop when
        their batch hands them back)."""
        self._job_executor.shutdown(wait=False, cancel_futures=True)
        if self._pool is not None:
            self._pool.close()

    def _count_reports(self, reports, cache_hits: int = 0,
                       executed: int = 0, retries: int = 0,
                       fallbacks: int = 0, steals: int = 0) -> None:
        with self._metrics_lock:
            self._reports_total += len(reports)
            for report in reports:
                self._verdicts[report.verdict] += 1
            self._cache_hits_total += cache_hits
            self._executed_total += executed
            self._retries_total += retries
            self._fallbacks_total += fallbacks
            self._steals_total += steals
        self._store_certificates(reports)

    # -- shared cache (worker side) --------------------------------------------

    def _shared_cache_client(self):
        """The coordinator's client, shared by the transport's threads.

        Without keep-alive, as the fleet's attempt clients: a per-thread
        connection would stay open after :meth:`close`.
        """
        if self._shared_cache_client_instance is None:
            from urllib.parse import urlparse

            from repro.resilience.policy import RetryPolicy
            from repro.server.client import VerificationClient

            parsed = urlparse(self.shared_cache_url)
            self._shared_cache_client_instance = VerificationClient(
                host=parsed.hostname or "127.0.0.1",
                port=parsed.port or 80,
                timeout_s=10.0,
                retry_policy=RetryPolicy(max_attempts=1),
                keep_alive=False)
        return self._shared_cache_client_instance

    def _shared_cache_key(self, request: VerificationRequest) -> str | None:
        """This request's shared-cache key, or ``None`` (not participating)."""
        if self.shared_cache_url is None:
            return None
        from repro.api.service import request_cache_key

        return request_cache_key(request)

    def _shared_cache_get(self, key: str):
        """Best-effort coordinator lookup; any failure is just a miss."""
        try:
            report = self._shared_cache_client().cache_get(key)
        except Exception:  # noqa: BLE001 - degrade to local execution
            return None
        if report is not None:
            with self._metrics_lock:
                self._shared_cache_hits_total += 1
        return report

    def _shared_cache_put(self, key: str, report) -> None:
        """Best-effort coordinator publish; failures are silent."""
        try:
            if self._shared_cache_client().cache_put(key, report):
                with self._metrics_lock:
                    self._shared_cache_puts_total += 1
        except Exception:  # noqa: BLE001 - cache is an optimization
            pass

    def _iter_batch(self, execute, requests, jobs):
        """``(report, shared)`` per request of a batch, in request order.

        ``execute`` is the batch runner's ``run_batch`` or ``iter_batch``;
        every synchronous, asynchronous and streaming batch comes through
        here.  With ``--shared-cache`` set, each request is first looked
        up in the coordinator's cache (``GET /v1/cache/{key}``); only the
        misses execute, and their reports are published back (``PUT``)
        as they arrive.  ``shared`` is ``True`` for a report the
        coordinator served.  Cached reports are canonical, so the
        reassembled sequence is byte-identical to a full local run.
        Without a shared cache every request executes.
        """
        keys = [self._shared_cache_key(request) for request in requests]
        hits: dict[int, object] = {}
        for index, key in enumerate(keys):
            if key is not None:
                hit = self._shared_cache_get(key)
                if hit is not None:
                    hits[index] = hit
        misses = [request for index, request in enumerate(requests)
                  if index not in hits]
        executed = iter(execute(misses, jobs=jobs) if misses else ())
        try:
            for index, key in enumerate(keys):
                if index in hits:
                    yield hits[index], True
                    continue
                report = next(executed)
                if key is not None:
                    self._shared_cache_put(key, report)
                yield report, False
            # Run a streaming executor to its end, where it books its
            # counters.
            next(executed, None)
        finally:
            # An abandoned stream stops its batch here, not whenever the
            # executor happens to be finalized.
            close = getattr(executed, "close", None)
            if close is not None:
                close()

    def _book_batch(self, served, runner) -> tuple[list, int]:
        """Book a finished batch's ``(report, shared)`` pairs; return its
        reports and cache hits.

        A cell the coordinator's shared cache served is a hit, as it is
        on ``/v1/verify``; the runner counts only its local cache.
        """
        reports = [report for report, _ in served]
        cache_hits = runner.last_cache_hits + sum(shared for _, shared in served)
        self._count_reports(reports, cache_hits, runner.last_executed,
                            runner.last_retries, runner.last_fallbacks,
                            getattr(runner, "last_steals", 0))
        return reports, cache_hits

    def _store_certificates(self, reports) -> None:
        """Index emitted certificates by content hash (bounded, FIFO)."""
        with self._certificates_lock:
            for report in reports:
                certificate = report.certificate
                if (isinstance(certificate, dict)
                        and isinstance(certificate.get("sha256"), str)):
                    self._certificates.pop(certificate["sha256"], None)
                    self._certificates[certificate["sha256"]] = certificate
            while len(self._certificates) > self.certificate_store_limit:
                self._certificates.pop(next(iter(self._certificates)))

    @staticmethod
    def _parse_body(body: bytes) -> object:
        try:
            return json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            raise ApiError(400, "invalid_json",
                           "request body is not valid JSON") from None

    # -- dispatch --------------------------------------------------------------

    #: Routes with a fixed path (method, path) -> handler attribute name.
    ROUTES = {
        ("GET", "/healthz"): "handle_healthz",
        ("GET", "/metrics"): "handle_metrics",
        ("GET", "/v1/version"): "handle_version",
        ("GET", "/v1/backends"): "handle_backends",
        ("POST", "/v1/verify"): "handle_verify",
        ("POST", "/v1/batch"): "handle_batch",
    }

    #: Verification POSTs counted against the in-flight gauge; everything
    #: else (health, metrics, polls) stays cheap and never sheds load.
    _INFLIGHT_ROUTES = frozenset((("POST", "/v1/verify"),
                                  ("POST", "/v1/batch")))

    def handle(self, method: str, path: str, body: bytes = b"") -> HttpResponse:
        """Route one request; every failure becomes a structured error body."""
        with self._metrics_lock:
            self._requests_total += 1
        gated = (self.max_inflight is not None
                 and (method, path) in self._INFLIGHT_ROUTES)
        if gated:
            with self._metrics_lock:
                if self._inflight >= self.max_inflight:
                    # Backpressure: answering 429 + Retry-After now beats
                    # queueing without bound and timing the client out later.
                    self._rejected_total += 1
                    self._errors_total += 1
                    response = error_response(
                        429, "too_many_requests",
                        f"server is at its in-flight verification limit "
                        f"({self.max_inflight}); retry after "
                        f"{self.retry_after_s}s")
                    response.headers["Retry-After"] = str(self.retry_after_s)
                    return response
                self._inflight += 1
        try:
            response = self._dispatch(method, path, body)
            if gated and response.stream is not None:
                # A streaming batch does its verification work while the
                # transport iterates the body, long after this handler
                # returns — hand the in-flight slot to the stream (the
                # transport always exhausts or closes it) so
                # ``--max-inflight`` gates streaming load too.
                response.stream = self._gated_stream(response.stream)
                gated = False
        except ApiError as error:
            response = error_response(error.status, error.code, str(error))
        except JobStoreFull as error:
            response = error_response(503, "job_store_full", str(error))
        except ReproError as error:
            # Unknown architecture, unparsable Verilog, inapplicable spec,
            # unknown method, ... — the request itself is at fault.
            response = error_response(
                400, "verification_error",
                f"{type(error).__name__}: {error}")
        except Exception as error:  # noqa: BLE001 - transport boundary
            response = error_response(
                500, "internal_error", f"{type(error).__name__}: {error}")
        finally:
            if gated:
                with self._metrics_lock:
                    self._inflight -= 1
        if response.status >= 400:
            with self._metrics_lock:
                self._errors_total += 1
        return response

    def request_from_document(self, document: object) -> VerificationRequest:
        """The request that runs (and is keyed) for one wire document.

        A budget field the document omits takes its :attr:`budgets` value;
        one it sends wins, ``null`` included.  The deadline clamps last:
        the engines trip their wall-clock budget into a
        ``verdict="budget"`` report, and every batch entry is hard-killed
        at twice the deadline — so the client gets a well-formed answer
        within the deadline rather than a connection that hangs until it
        gives up.
        """
        request = parse_request_document(document, self.budgets)
        limit = self.request_deadline_s
        if limit is None:
            return request
        budgets = request.budgets
        changes = {}
        if budgets.time_budget_s is None or budgets.time_budget_s > limit:
            changes["time_budget_s"] = limit
        if (budgets.task_timeout_s is None
                or budgets.task_timeout_s > 2 * limit):
            # The hard kill is the backstop behind the soft budget: leave
            # slack so the engine's own budget trip reports first.
            changes["task_timeout_s"] = 2 * limit
        if not changes:
            return request
        return dataclasses.replace(request, budgets=budgets.replace(**changes))

    def _dispatch(self, method: str, path: str, body: bytes) -> HttpResponse:
        handler = self.ROUTES.get((method, path))
        if handler is not None:
            return getattr(self, handler)(body)
        if path.startswith("/v1/jobs/"):
            if method != "GET":
                raise ApiError(405, "method_not_allowed",
                               f"{method} not allowed on {path}; use GET")
            return self.handle_job(path[len("/v1/jobs/"):])
        if path.startswith("/v1/certificates/"):
            if method != "GET":
                raise ApiError(405, "method_not_allowed",
                               f"{method} not allowed on {path}; use GET")
            return self.handle_certificate(path[len("/v1/certificates/"):])
        if path.startswith("/v1/cache/"):
            return self.handle_cache(method, path[len("/v1/cache/"):], body)
        if any(route_path == path for _, route_path in self.ROUTES):
            allowed = sorted(m for m, p in self.ROUTES if p == path)
            raise ApiError(405, "method_not_allowed",
                           f"{method} not allowed on {path}; "
                           f"use {' or '.join(allowed)}")
        raise ApiError(404, "not_found", f"no route for {path}")

    # -- endpoints -------------------------------------------------------------

    def handle_healthz(self, body: bytes = b"") -> HttpResponse:
        return _json_response({
            "status": "ok",
            "version": __version__,
            "uptime_s": round(time.monotonic() - self._started_monotonic, 3),
            "jobs": self.job_store.stats(),
        })

    def handle_metrics(self, body: bytes = b"") -> HttpResponse:
        pool = self._pool
        with self._metrics_lock:
            document = {
                "uptime_s": round(
                    time.monotonic() - self._started_monotonic, 3),
                "http": {"requests_total": self._requests_total,
                         "errors_total": self._errors_total},
                "reports": {"total": self._reports_total,
                            "verdicts": dict(self._verdicts)},
                "batches": {"total": self._batches_total,
                            "async_total": self._async_batches_total},
                "cache": {"hits_total": self._cache_hits_total,
                          "executed_total": self._executed_total},
                "pool": {"jobs": self.jobs,
                         "cache_dir": str(self.cache_dir)
                         if self.cache_dir is not None else None,
                         "workers_started_total": pool.started_total
                         if pool is not None else 0,
                         "workers_idle": pool.idle
                         if pool is not None else 0},
                "resilience": {"inflight": self._inflight,
                               "max_inflight": self.max_inflight,
                               "rejected_total": self._rejected_total,
                               "request_deadline_s": self.request_deadline_s,
                               "retries_total": self._retries_total,
                               "fallbacks_total": self._fallbacks_total},
                "fleet": {"workers": (len(self.fleet_topology.workers)
                                      if self.fleet_topology is not None
                                      else 0),
                          "steals_total": self._steals_total},
                "shared_cache": {
                    "url": self.shared_cache_url,
                    "remote_hits_total": self._shared_cache_hits_total,
                    "remote_puts_total": self._shared_cache_puts_total,
                    "gets_served_total": self._cache_gets_served_total,
                    "puts_served_total": self._cache_puts_served_total},
            }
        document["jobs"] = self.job_store.stats()
        return _json_response(document)

    def handle_version(self, body: bytes = b"") -> HttpResponse:
        """Package version + wire-schema numbers (the fleet handshake).

        A fleet coordinator calls this on every worker and refuses to
        dispatch to one whose ``report_schema`` or
        ``certificate_version`` differs from its own — mixed-schema
        fleets would silently break byte-parity.
        """
        from repro.api.report import REPORT_SCHEMA
        from repro.certify.certificate import CERTIFICATE_VERSION
        from repro.experiments.runner import ResultCache

        return _json_response({
            "version": __version__,
            "report_schema": REPORT_SCHEMA,
            "certificate_version": CERTIFICATE_VERSION,
            "cache_schema": ResultCache.SCHEMA,
        })

    def handle_cache(self, method: str, key: str, body: bytes) -> HttpResponse:
        """``GET/PUT /v1/cache/{key}`` — the shared result-cache protocol.

        Keys are the content-addressed sha256 hex digests of
        :func:`repro.api.service.request_cache_key`; the caller
        computes them, this endpoint only serves/stores entries.  PUT
        enforces the cacheability contract (infrastructure failures are
        refused with ``"stored": false``, never an error) so a confused
        worker cannot poison the fleet.
        """
        if method not in ("GET", "PUT"):
            raise ApiError(405, "method_not_allowed",
                           f"{method} not allowed on /v1/cache/; "
                           "use GET or PUT")
        if not _CACHE_KEY_RE.match(key):
            raise ApiError(400, "invalid_cache_key",
                           "cache keys are 64 lowercase hex characters "
                           "(a sha256 digest)")
        cache = self.result_cache
        if method == "GET":
            if cache is None:
                raise ApiError(404, "cache_disabled",
                               "this server was started without a result "
                               "cache (--cache)")
            report = cache.get(key)
            if report is None:
                raise ApiError(404, "cache_miss", f"no entry for {key}")
            with self._metrics_lock:
                self._cache_gets_served_total += 1
            return _json_response({"key": key, "report": report.to_dict()})
        document = self._parse_body(body)
        if not isinstance(document, dict) \
                or not isinstance(document.get("report"), dict):
            raise ApiError(400, "bad_request",
                           "PUT body must be {\"report\": {...}} with a "
                           "canonical report document")
        report = VerificationReport.from_dict(document["report"])
        stored = cache is not None and cache.put(key, report)
        if stored:
            with self._metrics_lock:
                self._cache_puts_served_total += 1
        return _json_response({"stored": bool(stored)})

    def handle_backends(self, body: bytes = b"") -> HttpResponse:
        # The full BackendSpec capability set, field for field — a flag
        # added to the spec must show up here (pinned by tests/test_docs.py).
        return _json_response({"backends": [
            {"name": spec.name, "kind": spec.kind,
             "description": spec.description,
             "supports_counterexample": spec.supports_counterexample,
             "supports_stats": spec.supports_stats,
             "certifiable": spec.certifiable,
             "cost_rank": spec.cost_rank,
             "budget_keys": list(spec.budget_keys),
             "degrades_to": list(spec.degrades_to)}
            for spec in backends()]})

    def handle_certificate(self, digest: str) -> HttpResponse:
        with self._certificates_lock:
            certificate = self._certificates.get(digest)
        if certificate is None:
            raise ApiError(404, "certificate_not_found",
                           f"no certificate {digest!r} (never emitted, or "
                           "evicted from the bounded store)")
        return _json_response(certificate)

    def handle_verify(self, body: bytes) -> HttpResponse:
        request = self.request_from_document(self._parse_body(body))
        key = self._shared_cache_key(request)
        if key is not None:
            cached = self._shared_cache_get(key)
            if cached is not None:
                self._count_reports([cached], cache_hits=1)
                return HttpResponse(status=200,
                                    body=cached.to_json().encode("utf-8"))
        service = self.service()
        report = service.submit(request)
        if key is not None:
            self._shared_cache_put(key, report)
        self._count_reports([report], fallbacks=service.last_fallbacks)
        # The exact to_json() bytes — byte-identical to the in-process
        # VerificationService.submit() serialization.
        return HttpResponse(status=200, body=report.to_json().encode("utf-8"))

    def handle_batch(self, body: bytes) -> HttpResponse:
        document = self._parse_body(body)
        if not isinstance(document, dict):
            raise ApiError(400, "bad_request",
                           "batch body must be a JSON object")
        unknown = sorted(set(document) - {"requests", "jobs", "async",
                                          "stream"})
        if unknown:
            raise ApiError(400, "unknown_field",
                           f"unknown batch field(s) {unknown}; expected "
                           "'requests', 'jobs', 'async', 'stream'")
        entries = document.get("requests")
        if not isinstance(entries, list) or not entries:
            raise ApiError(400, "bad_request",
                           "'requests' must be a non-empty JSON array")
        jobs = document.get("jobs")
        if jobs is not None and (not isinstance(jobs, int)
                                 or isinstance(jobs, bool) or jobs < 1):
            raise ApiError(400, "bad_request",
                           "'jobs' must be a positive integer")
        stream = document.get("stream")
        if stream is not None and not isinstance(stream, bool):
            raise ApiError(400, "bad_request", "'stream' must be a boolean")
        if stream and document.get("async"):
            raise ApiError(400, "bad_request",
                           "'stream' and 'async' are mutually exclusive")
        requests = [self.request_from_document(entry) for entry in entries]
        if document.get("async"):
            job = self.job_store.create()
            with self._metrics_lock:
                self._batches_total += 1
                self._async_batches_total += 1
            self._job_executor.submit(self._run_async_batch, job.id,
                                      requests, jobs)
            return _json_response({"job": job.id, "state": job.state,
                                   "poll": f"/v1/jobs/{job.id}"}, status=202)
        runner = self._batch_runner()
        if stream:
            with self._metrics_lock:
                self._batches_total += 1
            return HttpResponse(status=200, body=b"",
                                content_type="application/x-ndjson",
                                stream=self._stream_batch(runner, requests,
                                                          jobs))
        served = list(self._iter_batch(runner.run_batch, requests, jobs))
        with self._metrics_lock:
            self._batches_total += 1
        reports, cache_hits = self._book_batch(served, runner)
        return _json_response({
            "reports": [report.to_dict() for report in reports],
            "cache_hits": cache_hits,
            "executed": runner.last_executed,
        })

    def _gated_stream(self, chunks) -> "_GatedStream":
        """Hold the ``max_inflight`` slot until a streaming body finishes."""
        return _GatedStream(self, chunks)

    def _stream_batch(self, runner, requests, jobs):
        """NDJSON generator: one canonical report per line, counter trailer.

        Reports stream as the batch resolves them (request order), so a
        huge grid starts answering before it finishes.  A mid-batch
        failure becomes a final ``{"error": ...}`` line — the client has
        already consumed every report produced before it.  Counters are
        only booked once the batch ran to completion.
        """
        served = []
        batch = self._iter_batch(runner.iter_batch, requests, jobs)
        try:
            for report, shared in batch:
                served.append((report, shared))
                yield report.to_json().encode("utf-8") + b"\n"
        except Exception as error:  # noqa: BLE001 - stream boundary
            document = {"error": {"code": "batch_failed",
                                  "message": f"{type(error).__name__}: "
                                             f"{error}"}}
            yield json.dumps(document, ensure_ascii=False,
                             separators=(",", ":")).encode("utf-8") + b"\n"
            return
        finally:
            batch.close()
        reports, cache_hits = self._book_batch(served, runner)
        trailer = {"trailer": {
            "reports": len(reports),
            "cache_hits": cache_hits,
            "executed": runner.last_executed,
            "retries": runner.last_retries,
            "fallbacks": runner.last_fallbacks,
            "steals": getattr(runner, "last_steals", 0),
        }}
        yield json.dumps(trailer, ensure_ascii=False,
                         separators=(",", ":")).encode("utf-8") + b"\n"

    def _run_async_batch(self, job_id: str, requests, jobs) -> None:
        """Background executor target for ``"async": true`` batches."""
        self.job_store.start(job_id)
        try:
            runner = self._batch_runner()
            served = list(self._iter_batch(runner.run_batch, requests, jobs))
        except Exception as error:  # noqa: BLE001 - job isolation boundary
            self.job_store.fail(job_id, f"{type(error).__name__}: {error}")
            return
        reports, cache_hits = self._book_batch(served, runner)
        self.job_store.finish(job_id, reports, cache_hits,
                              runner.last_executed)

    def handle_job(self, job_id: str) -> HttpResponse:
        job = self.job_store.get(job_id)
        if job is None:
            raise ApiError(404, "job_not_found",
                           f"unknown job {job_id!r} (never submitted, or "
                           "evicted from the bounded store)")
        return _json_response(job.to_document())


class _GatedStream:
    """A streaming body that occupies one ``max_inflight`` slot.

    The slot is released exactly once — on exhaustion, on a mid-stream
    error, or on ``close()``.  An explicit object rather than a wrapping
    generator because the transport may ``close()`` the stream before
    pulling the first chunk (head write failed), and a never-started
    generator's ``finally`` would not run — leaking the slot forever.
    """

    def __init__(self, app: VerificationServerApp, chunks) -> None:
        self._app = app
        self._iterator = iter(chunks)
        self._released = False

    def __iter__(self) -> "_GatedStream":
        return self

    def __next__(self) -> bytes:
        try:
            return next(self._iterator)
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        if not self._released:
            self._released = True
            with self._app._metrics_lock:
                self._app._inflight -= 1
        close = getattr(self._iterator, "close", None)
        if close is not None:
            close()
