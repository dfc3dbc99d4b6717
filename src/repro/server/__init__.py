"""repro.server — the HTTP/async front end over the verification service.

The network face of the "heavy traffic" north star: a pure-stdlib asyncio
HTTP/1.1 server exposing :class:`~repro.api.service.VerificationService`
— and through it the worker pool, on-disk result cache, and
longest-expected-first scheduling of
:class:`~repro.experiments.runner.ParallelRunner`.  Worker processes
persist across requests: the app owns one
:class:`~repro.experiments.runner.WorkerPool` that every batch leases
its workers from, so a server forks each worker once, not per batch.
The result cache persists too, so repeated traffic executes only
uncached work.  The endpoints:
``POST /v1/verify`` (one request, the canonical
:class:`~repro.api.report.VerificationReport` JSON), ``POST /v1/batch``
(grids with per-request budget groups — synchronous, ``"async": true``
job submission, or ``"stream": true`` chunked NDJSON), ``GET
/v1/jobs/{id}`` (bounded in-memory job store), ``GET /v1/backends``
(registry introspection), ``GET /v1/version`` (package/schema versions,
checked by the fleet dispatcher before mixing workers),
``GET``/``PUT /v1/cache/{key}`` (the shared content-addressed result
cache that fleet workers read through and publish back to), and
``GET /healthz`` / ``GET /metrics``.  Connections are HTTP/1.1
keep-alive by default; :class:`~repro.server.client.VerificationClient`
pools one connection per thread.  The wire protocol is documented in
``docs/http-api.md``; the CLI spelling is ``repro-verify serve`` (add
``--fleet CONFIG`` to make the server a coordinator that scatters
batches across a :class:`~repro.fleet.FleetTopology`, and
``--shared-cache URL`` to make a worker check/populate a coordinator's
cache).

Layering: :mod:`~repro.server.app` is the transport-free application
(routes, wire schemas, metrics), :mod:`~repro.server.http` the asyncio
byte mover, :mod:`~repro.server.jobs` the bounded job store, and
:mod:`~repro.server.client` a thin ``http.client`` consumer used by the
tests, benchmarks, and examples.

Quickstart::

    from repro.server import ServerThread, VerificationClient

    with ServerThread() as server:
        client = VerificationClient(port=server.port)
        report = client.verify({"architecture": "SP-AR-RC", "width": 4})
        assert report.verdict == "verified"
"""

from repro.server.app import (
    ApiError,
    HttpResponse,
    VerificationServerApp,
    parse_request_document,
)
from repro.server.client import ServerError, VerificationClient
from repro.server.http import ServerThread, VerificationHttpServer, serve
from repro.server.jobs import Job, JobStore, JobStoreFull

__all__ = [
    "ApiError",
    "HttpResponse",
    "Job",
    "JobStore",
    "JobStoreFull",
    "ServerError",
    "ServerThread",
    "VerificationClient",
    "VerificationHttpServer",
    "VerificationServerApp",
    "parse_request_document",
    "serve",
]
