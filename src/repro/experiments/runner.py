"""Batch execution of verification requests across worker processes.

:class:`ParallelRunner` fans a batch of
:class:`~repro.api.request.VerificationRequest` entries across a
persistent pool of worker processes (``multiprocessing``), yields result
rows as they complete from a generator that runs in the caller's thread,
and isolates crashes and hard timeouts per request so one bad request
can never take down a table reproduction.  A fleet batch runs on the same
loop, over remote workers instead of processes (see
:mod:`repro.fleet.dispatcher`).
Every request runs through :meth:`VerificationService.submit
<repro.api.service.VerificationService.submit>` (see :func:`run_request`),
the one code path that calls a backend; its report comes back as a flat
table row (:meth:`~repro.api.report.VerificationReport.to_row`), which
:meth:`~repro.api.report.VerificationReport.from_row` turns back into the
same report.  A run that exceeds its monomial/conflict/node/time budget
is reported with ``time = "TO"`` exactly like the 100-hour timeouts in
the paper's tables.  Completed reports can be cached on disk
(:class:`ResultCache`) keyed by netlist content hash, method, width, and
budgets, so re-running a table only executes changed or uncached
requests.
"""

from __future__ import annotations

import collections
import functools
import hashlib
import json
import multiprocessing
import os
import signal
import stat
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from repro.api.registry import scheduling_rank
from repro.api.report import VerificationReport
from repro.api.request import Budgets, VerificationRequest
from repro.api.service import VerificationService, request_cache_key
from repro.errors import ReproError
from repro.generators.multipliers import generate_multiplier
from repro.resilience.faults import (
    maybe_corrupt_published_entry,
    maybe_crash,
    maybe_delay,
)
from repro.resilience.policy import attempt_entry, classify_row


@dataclass
class ExperimentConfig:
    """Widths, budgets and batch settings of the table runs (environment-overridable).

    Environment variables:

    * ``REPRO_BENCH_BITS`` — comma-separated operand widths (default ``4,8``),
    * ``REPRO_BENCH_TIMEOUT`` — per-run wall-clock budget in seconds,
    * ``REPRO_BENCH_MONOMIAL_BUDGET`` — remainder-size budget of GB reduction,
    * ``REPRO_BENCH_SAT_CONFLICTS`` — CDCL conflict budget,
    * ``REPRO_BENCH_BDD_NODES`` — ROBDD node budget,
    * ``REPRO_BENCH_JOBS`` — worker processes of batch runs (default 1),
    * ``REPRO_BENCH_CACHE`` — directory for the on-disk result cache.
    """

    widths: tuple[int, ...] = (4, 8)
    #: Budgets of every run; the table runs default to a 60 s time budget.
    budgets: Budgets = field(
        default_factory=lambda: Budgets(time_budget_s=60.0))
    #: Worker processes used by :class:`ParallelRunner` consumers (1 = serial).
    jobs: int = 1
    #: Directory of the on-disk result cache (``None`` disables caching).
    cache_dir: str | None = None

    @classmethod
    def from_environment(cls) -> "ExperimentConfig":
        """Build a configuration from the ``REPRO_BENCH_*`` environment variables."""
        config = cls()
        bits = os.environ.get("REPRO_BENCH_BITS")
        if bits:
            config.widths = tuple(int(b) for b in bits.split(",") if b.strip())
        defaults = config.budgets
        config.budgets = defaults.replace(
            time_budget_s=float(os.environ.get("REPRO_BENCH_TIMEOUT",
                                               defaults.time_budget_s)),
            monomial_budget=int(os.environ.get("REPRO_BENCH_MONOMIAL_BUDGET",
                                               defaults.monomial_budget)),
            sat_conflict_budget=int(os.environ.get(
                "REPRO_BENCH_SAT_CONFLICTS", defaults.sat_conflict_budget)),
            bdd_node_budget=int(os.environ.get("REPRO_BENCH_BDD_NODES",
                                               defaults.bdd_node_budget)))
        config.jobs = int(os.environ.get("REPRO_BENCH_JOBS", config.jobs))
        config.cache_dir = os.environ.get("REPRO_BENCH_CACHE") or None
        return config


# ---------------------------------------------------------------------------
# One task: a request through the service, behind the isolation boundary
# ---------------------------------------------------------------------------

def run_request(request: VerificationRequest) -> dict:
    """Run one request through :class:`VerificationService` and return its row.

    The worker's service has no fallback policy: the batch's caller
    degrades budget rows afterwards, so the cache keeps the original
    backend's own row.
    """
    return VerificationService().submit(request).to_row()


def expected_cost_key(request: VerificationRequest) -> tuple[int, int, int]:
    """Heuristic relative cost of a request, for longest-expected-first order.

    Width dominates (verification cost grows steeply with operand width),
    then the registry's per-backend cost rank, then the architecture
    family: Booth multipliers carry the heaviest rewriting load, tree
    accumulators more than arrays; a request with no architecture scores
    0 there.  The key orders *scheduling only* — result rows keep the
    grid order — so one expensive request (a 16-bit Booth run, say)
    starts first instead of serialising the tail of a batch.
    """
    architecture = (request.architecture or "").upper()
    cost = 0
    if architecture.startswith("BP"):
        cost += 4
    for marker, weight in (("-DT-", 2), ("-WT-", 2), ("-CT-", 2),
                           ("-RT-", 1), ("-OS-", 1)):
        if marker in architecture:
            cost += weight
            break
    return (request.width or 0, scheduling_rank(request.method), cost)


def _failure_row(request: VerificationRequest, status: str, reason: str,
                 time_s: float | None = None) -> dict:
    """The row of a request that produced no report of its own."""
    return VerificationReport.from_failure(request, status, reason,
                                           time_s).to_row()


def _guarded_run_job(request: VerificationRequest) -> dict:
    """Run a request, converting any exception into an ``error`` row.

    This is the per-circuit isolation layer shared by the in-process and
    the pooled paths: a generator or verifier bug on one architecture must
    never abort the rest of the batch.
    """
    try:
        return run_request(request)
    except Exception as error:  # noqa: BLE001 - isolation boundary
        return _failure_row(request, "error",
                            f"{type(error).__name__}: {error}")


# ---------------------------------------------------------------------------
# On-disk result cache
# ---------------------------------------------------------------------------

#: Bound on the process-wide netlist-hash memo: the 50-architecture catalog
#: at 40 widths, about 0.7 MB when full.
NETLIST_HASH_MEMO_SIZE = 2048


@functools.lru_cache(maxsize=NETLIST_HASH_MEMO_SIZE)
def _netlist_digest(architecture: str, width: int) -> str:
    from repro.circuit.verilog import write_verilog
    netlist = generate_multiplier(architecture, width)
    return hashlib.sha256(write_verilog(netlist).encode("utf-8")).hexdigest()


def netlist_hash(architecture: str, width: int) -> str | None:
    """Content hash of a generated multiplier netlist (``None`` = not hashable).

    The hash is over the emitted gate-level Verilog, so two architecture
    names generating the same gates share a hash (and therefore a cache
    entry), while any generator change invalidates it.  Each (architecture,
    width) is generated and hashed once per process: the result cache, the
    HTTP server and the fleet dispatcher share one bounded LRU memo, which
    is thread-safe and survives the worker pool's ``fork``.  Only
    successful digests are memoised, so an unknown architecture or a
    transient failure is uncacheable for this call alone.
    """
    try:
        return _netlist_digest(architecture, width)
    except Exception:  # noqa: BLE001 - unknown arch etc: uncacheable
        return None


class ResultCache:
    """On-disk JSON cache of completed verification reports.

    Reports are keyed by the *content* of the problem, not its name: the
    gate-level Verilog of the generated netlist is hashed together with the
    method, the operand width, every budget that can change the outcome
    (including the golden reference netlist for SAT CEC and the hard task
    timeout), and the package version.  Re-running a table therefore only
    executes jobs whose circuit, method, budgets, or code version actually
    changed; renaming an architecture that generates the same gates still
    hits, while upgrading the package invalidates every entry so an
    algorithm fix is never masked by stale rows.

    Reports of infrastructure failures (``status`` of ``error`` or
    ``crash``) are never cached — those describe the run, not the problem.
    ``TO`` reports *are* cached: the budgets that produced them are part of
    the key, and a re-run that reproduces the table (the cache's contract)
    must reproduce its timeouts too.  They are still wall-clock-dependent,
    so to re-measure timeouts on a faster machine, point ``--cache`` at a
    fresh directory (or delete the entry).

    :meth:`get` and :meth:`put` speak
    :class:`~repro.api.report.VerificationReport` objects, and on-disk
    entries store the report schema (see ``repro/api/__init__.py``).  The
    one API serves every caller: the runner (which turns a hit into its
    table row), the ``/v1/cache/{key}`` routes and the fleet dispatcher.
    """

    #: Bump when the stored schema or its semantics change within a version.
    #: 6 = report schema 6 (the ``incremental`` block is gone).  4 added
    #: the ``attempts`` retry/fallback history plus an entry-level
    #: ``sha256`` integrity checksum.  The key covers this number, so
    #: entries of earlier generations are simply never looked up.
    SCHEMA = 6

    #: Row statuses that are deterministic outcomes of (circuit, budgets).
    CACHEABLE_STATUSES = ("ok", "mismatch", "TO", "n/a")

    def __init__(self, directory: str | os.PathLike) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    # -- keying ----------------------------------------------------------------

    def key(self, request: VerificationRequest) -> str | None:
        """Cache key of a request (``None`` = uncacheable).

        Delegates to :func:`repro.api.service.request_cache_key`, the one
        key function: the budgets a request carries (its hard task
        timeout included) are part of the key, so two requests of one
        batch running under different budget groups never share an entry.
        """
        return request_cache_key(request)

    # -- storage ---------------------------------------------------------------

    def get(self, key: str | None) -> VerificationReport | None:
        """Return the cached report for ``key``, or ``None`` on a miss.

        A corrupt entry — unparseable JSON, a malformed report document, or
        an integrity-checksum mismatch — is *quarantined* (renamed to
        ``<key>.json.quarantined``) and reported as a miss, so one torn or
        bit-rotted file costs a re-execution instead of poisoning every
        re-run.  A file that vanishes or is unreadable is simply a miss.
        """
        if key is None:
            return None
        path = self.directory / f"{key}.json"
        try:
            raw = path.read_bytes()
        except OSError:
            return None
        try:
            document = json.loads(raw.decode("utf-8"))
            report = VerificationReport.from_dict(document["report"])
            stored = document.get("sha256")
            if stored is not None and stored != self._checksum(report):
                raise ValueError("cache entry checksum mismatch")
            return report
        except (ValueError, KeyError, TypeError, ReproError):
            self._quarantine(path)
            return None

    @staticmethod
    def _checksum(report: VerificationReport) -> str:
        """Integrity checksum over the canonical report serialization."""
        return hashlib.sha256(report.to_json().encode("utf-8")).hexdigest()

    @staticmethod
    def _quarantine(path: Path) -> None:
        target = path.with_name(path.name + ".quarantined")
        try:
            path.replace(target)
        except OSError:
            pass  # a concurrent reader already moved (or removed) it

    def put(self, key: str | None, report: VerificationReport,
            job: VerificationRequest | None = None) -> bool:
        """Store a report under ``key``; ``True`` iff it was published.

        The caller computed the key
        (:func:`~repro.api.service.request_cache_key`); the cache only
        enforces the cacheability contract, so infrastructure-failure
        reports and unwritable directories are a quiet ``False``, never an
        exception.  ``job`` is recorded beside the report for readers of
        the directory.
        """
        if key is None or report.status not in self.CACHEABLE_STATUSES:
            return False
        document: dict = {}
        if job is not None:
            document["job"] = {"architecture": job.architecture,
                               "width": job.width, "method": job.method}
        document["report"] = report.to_dict()
        document["sha256"] = self._checksum(report)
        path = self.directory / f"{key}.json"
        # Atomic publish so concurrent table runs never read half a row.
        # The temporary is per-writer (pid AND thread), not just per
        # process — service batches publish from pool threads.
        temporary = path.with_suffix(
            f".tmp.{os.getpid()}.{threading.get_ident()}")
        try:
            temporary.write_text(json.dumps(document, indent=2) + "\n",
                                 encoding="utf-8")
            temporary.replace(path)
        except OSError:
            temporary.unlink(missing_ok=True)
            return False
        maybe_corrupt_published_entry(path)
        return True


# ---------------------------------------------------------------------------
# Persistent worker pool
# ---------------------------------------------------------------------------

#: Seconds between a worker's checks that its parent is still alive.
PARENT_CHECK_S = 1.0

#: Held from creating a worker's pipes until the parent has closed their
#: child ends, so no other worker is forked holding a copy: a worker's exit
#: must close its pipe and its sentinel (a plain pipe, which
#: :func:`_release_inherited_sockets` leaves alone), or its run would never
#: notice.
_START_LOCK = threading.Lock()


def _release_inherited_sockets(keep: int) -> None:
    """Point every socket descriptor this process inherited, but ``keep``, at /dev/null.

    ``fork`` copies every descriptor of the parent: a serving process's
    listening socket and open client connections, and the parent ends of
    the workers started earlier.  A copy held by a long-lived worker keeps
    the socket open after the parent closes it, so a retired connection
    would never send its FIN, the port could not be bound again while the
    worker lives, and an earlier worker would not read EOF when the parent
    dies.  The descriptor numbers stay taken (``dup2`` over them), so a
    socket object copied from the parent that is closed later closes
    ``/dev/null``, never a file this worker opened since.  Standard
    streams are kept.  Without ``/proc/self/fd`` or ``/dev/fd`` to list the
    descriptors, nothing is released.
    """
    for listing in ("/proc/self/fd", "/dev/fd"):
        try:
            descriptors = [int(name) for name in os.listdir(listing)]
            break
        except OSError:
            continue
    else:
        return
    null = os.open(os.devnull, os.O_RDWR)
    try:
        for descriptor in descriptors:
            if descriptor <= 2 or descriptor in (keep, null):
                continue
            try:
                if stat.S_ISSOCK(os.fstat(descriptor).st_mode):
                    os.dup2(null, descriptor, inheritable=False)
            except OSError:
                pass  # closed since the listing (the listing's own fd)
    finally:
        os.close(null)


#: The exit code of a pool worker its deadline alarm ended (see
#: :func:`_pool_worker_main`); ``None`` without interval timers, where the
#: parent's loop alone enforces the hard limit.
_DEADLINE_EXITCODE = -signal.SIGALRM if hasattr(signal, "setitimer") else None


def _watch_parent(parent: int) -> None:
    """End this worker process once ``parent`` is gone, busy or idle."""
    while os.getppid() == parent:
        time.sleep(PARENT_CHECK_S)
    os._exit(1)


def _pool_worker_main(connection, parent_end) -> None:
    """Worker-process loop: run ``(request, deadline)`` tasks.

    Tasks arrive on ``connection`` and each task's row goes back down the
    same pipe, so a row always belongs to the request the parent handed
    this worker.  A task's hard deadline (a ``time.monotonic`` instant,
    which is system-wide) arms an interval timer: ``SIGALRM`` keeps its
    default action and ends the process there, wherever the job is, so
    the limit binds even while the parent's loop is paused by a consumer
    holding a row.  The loop ends on a ``None``
    task or on EOF.  The worker holds no socket of its parent but its own
    end of the pipe (see :func:`_release_inherited_sockets`), so the
    parent's death reads as EOF while it waits for a task; a daemon thread
    also checks every :data:`PARENT_CHECK_S` seconds that its parent is
    unchanged and ends the process otherwise, so a worker busy with a long
    job does not outlive its parent either.

    The worker restores the default ``SIGTERM`` action (a parent serving
    HTTP has asyncio's no-op handler installed, which ``fork`` copies) and
    ignores ``SIGINT``: a terminal's Ctrl-C reaches the whole process
    group, and the parent decides what happens to the jobs in flight.

    The chaos hooks (``repro.resilience.faults``) live here and only here:
    an injected ``worker-crash`` (``os._exit``) or ``worker-latency`` fires
    inside a disposable worker process, never in the importing parent, and
    both are inert without a ``REPRO_FAULT_PLAN`` in the environment.
    """
    parent_end.close()
    _release_inherited_sockets(connection.fileno())
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    if _DEADLINE_EXITCODE is not None:
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
    threading.Thread(target=_watch_parent, args=(os.getppid(),),
                     daemon=True).start()
    while True:
        try:
            task = connection.recv()
        except EOFError:
            return
        if task is None:
            return
        request, deadline = task
        armed = deadline is not None and _DEADLINE_EXITCODE is not None
        if armed:
            signal.setitimer(signal.ITIMER_REAL,
                             max(deadline - time.monotonic(), 1e-6))
        fault_key = f"{request.architecture}/{request.width}/{request.method}"
        maybe_delay(fault_key)
        maybe_crash(fault_key)
        row = _guarded_run_job(request)
        if armed:
            signal.setitimer(signal.ITIMER_REAL, 0)
        try:
            connection.send(row)
        except BrokenPipeError:
            return  # the parent died while the job ran


class _PoolWorker:
    """Parent-side handle of one persistent worker process and its pipe.

    One slot of :meth:`ParallelRunner.iter_rows`, which drives a fleet's
    remote slots (:class:`repro.fleet.dispatcher._RemoteSlot`) through the
    same attributes and methods.  A process runs any job and is never
    outrun by a second attempt: it owns the job's hard deadline, and the
    loop kills and replaces it there.
    """

    __slots__ = ("connection", "process", "index", "job", "deadline",
                 "attempt")

    #: Only remote slots are stolen from or prefer jobs they have not tried.
    grace = None
    tried = frozenset()

    def __init__(self, context) -> None:
        with _START_LOCK:
            self.connection, child_end = context.Pipe()
            self.process = context.Process(
                target=_pool_worker_main, args=(child_end, self.connection),
                daemon=True)
            self.process.start()
            child_end.close()
        self.index: int | None = None
        self.job: VerificationRequest | None = None
        self.deadline: float | None = None
        self.attempt = 0

    @property
    def busy(self) -> bool:
        return self.index is not None

    @property
    def handles(self) -> tuple:
        """What the loop waits on: the row's pipe and the process's exit."""
        return self.connection, self.process.sentinel

    def accepts(self, job: VerificationRequest) -> bool:
        """Whether this slot may run ``job``: a process runs any."""
        return True

    def assign(self, index: int, job: VerificationRequest,
               task_timeout_s: float | None) -> None:
        """Hand this worker ``job``, the run's ``index``-th."""
        self.index = index
        self.job = job
        self.deadline = (time.monotonic() + task_timeout_s
                         if task_timeout_s is not None else None)
        try:
            self.connection.send((job, self.deadline))
        except OSError:
            pass  # died just now: its sentinel reports the crash

    def receive(self) -> dict | None:
        """The row of the job this worker holds (``None``: it died first)."""
        try:
            if self.connection.poll():
                return self.connection.recv()
        except (EOFError, OSError):
            pass
        return None

    def release(self) -> None:
        self.index = None
        self.job = None
        self.deadline = None

    def kill(self) -> None:
        """End the process now and drop its pipe (and any row left in it)."""
        if self.process.is_alive():
            self.process.kill()
        self.process.join()
        self.connection.close()


def _stop_workers(workers: Sequence[_PoolWorker]) -> None:
    """Ask idle workers to exit, then reap them, killing any that linger."""
    for worker in workers:
        try:
            worker.connection.send(None)
        except OSError:
            pass  # already dead or closed: the kill below reaps it
    deadline = time.monotonic() + 2.0
    for worker in workers:
        worker.process.join(max(0.0, deadline - time.monotonic()))
        worker.kill()


class WorkerPool:
    """Idle persistent worker processes, leased out to one run at a time.

    A pool outlives the runs that use it, so a server pays for forking its
    workers once instead of once per batch.  :meth:`lease` hands out idle
    workers, starting new ones when too few are idle; each lease is
    exclusive, so concurrent runs never share a worker.  :meth:`give_back`
    returns a run's workers and keeps at most ``max_idle`` of them.  A
    worker that crashed or was killed (hard timeout, abandoned run) is
    never given back; its run replaces it through :meth:`start`.  After
    :meth:`close`, idle workers are stopped and workers handed back later
    are stopped too.  No process starts before the first lease.
    """

    def __init__(self, max_idle: int = 1) -> None:
        self.max_idle = max(0, int(max_idle))
        self._context = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else "spawn")
        self._idle: list[_PoolWorker] = []
        self._lock = threading.Lock()
        self._closed = False
        #: Worker processes started so far, replacements included.
        self.started_total = 0

    @property
    def idle(self) -> int:
        """Idle workers waiting for the next lease."""
        return len(self._idle)

    def start(self) -> _PoolWorker:
        """Start one new worker (also the replacement of a dead one)."""
        worker = _PoolWorker(self._context)
        with self._lock:
            self.started_total += 1
        return worker

    def lease(self, count: int) -> list[_PoolWorker]:
        """``count`` workers for the caller's exclusive use.

        Idle workers come first.  One that died while idle (an OOM kill
        between batches, say) is replaced by the run before it receives
        work, exactly like one that dies between two jobs of a run.
        """
        with self._lock:
            split = max(0, len(self._idle) - count)
            leased, self._idle = self._idle[split:], self._idle[:split]
        return leased + [self.start() for _ in range(count - len(leased))]

    def give_back(self, workers: Iterable[_PoolWorker]) -> None:
        """Return idle workers after a run; stop the ones not kept."""
        surplus: list[_PoolWorker] = []
        with self._lock:
            for worker in workers:
                if (self._closed or len(self._idle) >= self.max_idle
                        or not worker.process.is_alive()):
                    surplus.append(worker)
                else:
                    self._idle.append(worker)
        _stop_workers(surplus)

    def close(self) -> None:
        """Stop every idle worker, and every worker given back from now on."""
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, []
        _stop_workers(idle)


class ParallelRunner:
    """Fan verification requests across persistent worker processes with crash isolation.

    A job of the runner is a :class:`~repro.api.request.VerificationRequest`
    and runs through :func:`run_request` under the budgets it carries.
    :meth:`iter_rows` is the one scheduling loop, a generator that yields
    each job's row as it resolves; :meth:`run` collects it.  Pooled jobs
    run on at most ``workers`` long-lived ``multiprocessing`` processes
    leased from a :class:`WorkerPool`, so the fork + import cost is paid
    once per worker instead of once per job (which dominates small 4-bit
    runs).  With ``pool`` given (the HTTP server's, say) the workers also
    outlive the run and serve later ones; without it each run uses a
    private pool and closes it when it ends.  Crash isolation and the
    hard per-job wall-clock limit (``budgets.task_timeout_s`` of each
    request) are preserved: a hard crash (segfault, OOM kill) or a job
    exceeding its limit takes down only the worker it ran on — the parent
    reports the job as a table row (``status="crash"`` / ``"TO"``) and
    starts a replacement worker.  :meth:`run` returns the rows in job
    order, so the verdicts are byte-for-byte identical regardless of
    worker count or completion order.

    With a ``cache_dir`` completed reports are stored on disk keyed by
    (netlist content hash, method, width, budgets); re-running a table
    then only executes changed or uncached jobs and reproduces the cached
    rows verbatim.

    Parameters
    ----------
    workers:
        Number of worker processes; ``None`` uses ``os.cpu_count()``.
        ``workers <= 1`` runs in-process (still crash-isolated against
        Python exceptions, not against hard crashes) unless a job carries
        a hard task timeout, which needs a worker process to kill.
    cache_dir:
        Directory of the on-disk result cache; ``None`` disables caching.
    retry_policy:
        A :class:`repro.resilience.RetryPolicy` giving crashed and
        hard-timed-out jobs further attempts on a fresh worker (with
        deterministic backoff); ``None`` (the default) reports the first
        failure exactly as before.  Jobs that needed more than one attempt
        carry the history in their row's ``attempts`` key.
    pool:
        A :class:`WorkerPool` to lease workers from and give them back to;
        ``None`` starts a private pool per run.
    """

    def __init__(self, workers: int | None = None,
                 cache_dir: str | os.PathLike | None = None,
                 retry_policy=None,
                 pool: WorkerPool | None = None) -> None:
        if workers is None:
            workers = os.cpu_count() or 1
        self.workers = max(1, int(workers))
        self.cache = ResultCache(cache_dir) if cache_dir else None
        self.retry_policy = retry_policy
        self.pool = pool
        #: Rows served from the cache / executed fresh by the last run.
        self.last_cache_hits = 0
        self.last_executed = 0
        #: Extra attempts (beyond each job's first) spent by the last run.
        self.last_retries = 0
        #: Straggling jobs the last run dispatched a second time (fleets).
        self.last_steals = 0

    # -- cache plumbing --------------------------------------------------------

    def _cache_key(self, job: VerificationRequest) -> str | None:
        if self.cache is None:
            return None
        return self.cache.key(job)

    def _cached_row(self, key: str | None) -> dict | None:
        if self.cache is None:
            return None
        report = self.cache.get(key)
        return report.to_row() if report is not None else None

    def _store(self, job: VerificationRequest, row: dict,
               cache_key: str | None) -> dict:
        if self.cache is not None and cache_key is not None:
            self.cache.put(cache_key, VerificationReport.from_row(row), job)
        return row

    # -- execution -------------------------------------------------------------

    def run(self, jobs: Sequence[VerificationRequest],
            on_result: Callable[[VerificationRequest, dict], None] | None = None,
            ) -> list[dict]:
        """Run all jobs and return their rows in job order.

        Collects :meth:`iter_rows`, handing each row to the optional
        ``on_result(job, row)`` as it resolves.
        """
        jobs = list(jobs)
        rows: list[dict | None] = [None] * len(jobs)
        for index, row in self.iter_rows(jobs):
            rows[index] = row
            if on_result is not None:
                on_result(jobs[index], row)
        return rows

    def iter_rows(self, jobs: list[VerificationRequest],
                  slots: list | None = None,
                  ) -> Iterator[tuple[int, dict]]:
        """Yield ``(index, row)`` for each of ``jobs`` as it resolves.

        Cache hits come first.  With one worker (or one job to run), no
        hard task timeout and no ``slots``, the jobs then run in this
        process in job order, each once the consumer asks for the next
        row; otherwise they go to slots, longest expected first, and idle
        slots take their next jobs before each round of rows is handed
        over.  The slots are worker processes leased from the pool, or
        ``slots`` when given: a fleet's remote workers (see
        :class:`repro.fleet.dispatcher.FleetDispatcher`), which this loop
        drives through the same attributes and methods as a process.  A
        slot that refuses a job (:meth:`_PoolWorker.accepts`) never runs
        it, and a job that every slot refuses fails once no slot is busy.
        An idle slot with a straggler ``grace`` may take over a job that
        has been in flight alone on another worker for longer than its
        grace, while the job has attempts left: both attempts race, and
        the first answer wins.

        The generator runs in whichever thread iterates it and dispatches
        only while it is iterated, so a consumer holding a row pauses
        dispatch; a job's hard limit still binds meanwhile, since each
        worker ends itself at its job's deadline (see
        :func:`_pool_worker_main`).  Closing it, or an exception escaping
        it, kills the slots still busy and gives the rest back: no later
        job runs or is cached.  The ``last_*`` counters are final once
        every row is out.

        The consumer may append a follow-up to ``jobs`` between rows (the
        fallback rung of a row it took, say): it runs next, where the batch
        runs, and bypasses the cache, ``last_cache_hits`` and
        ``last_executed``.
        """
        self.last_retries = 0
        self.last_steals = 0
        keys: list[str | None] = []
        hits: list[tuple[int, dict]] = []
        pending: list[int] = []
        for index, job in enumerate(jobs):
            keys.append(self._cache_key(job))
            row = self._cached_row(keys[index])
            if row is None:
                pending.append(index)
            else:
                hits.append((index, row))
        self.last_cache_hits = len(hits)
        self.last_executed = len(pending)
        yield from hits

        def follow_ups() -> list[int]:
            start = len(keys)
            keys.extend([None] * (len(jobs) - start))
            return list(range(start, len(jobs)))

        # The hard wall-clock limit needs a killable worker process, so the
        # in-process path only applies when no such limit was requested.
        if (slots is None
                and all(jobs[index].budgets.task_timeout_s is None
                        for index in pending)
                and (self.workers <= 1 or len(pending) <= 1)):
            queue = collections.deque(pending)
            while True:
                queue.extendleft(reversed(follow_ups()))
                if not queue:
                    return
                index = queue.popleft()
                row = _guarded_run_job(jobs[index])
                yield index, self._store(jobs[index], row, keys[index])

        # Longest-expected-first assignment: without it a heavy job picked
        # up late (one 16-bit Booth run, say) serialises the tail of the
        # batch.  The sort is stable, so equal-cost jobs keep grid order,
        # and the result rows are joined by index — byte-identical to the
        # in-process path regardless of the schedule.
        queue = sorted(
            pending, key=lambda index: expected_cost_key(jobs[index]),
            reverse=True)
        outstanding = len(pending)
        pool = None
        if slots is None:
            pool = (self.pool if self.pool is not None
                    else WorkerPool(self.workers))
            slots = pool.lease(min(self.workers, len(pending)))
        policy = self.retry_policy
        # Per-job retry state: dispatches so far of each unresolved job (a
        # steal is one too), accumulated attempt histories, re-dispatches
        # waiting out their backoff, and the history entry of the attempt
        # a steal superseded, which holds only if the stealing attempt wins.
        attempts: dict[int, int] = {}
        histories: dict[int, list[dict]] = {}
        retry_queue: list[tuple[float, int]] = []
        superseded: dict[tuple[int, int], dict] = {}

        def replace(position: int) -> None:
            """Kill the process in ``position`` (its pipe goes with it) for a new one."""
            fresh = pool.start()
            slots[position].kill()
            slots[position] = fresh

        def start(position: int, index: int) -> None:
            if pool is not None and not slots[position].process.is_alive():
                # An idle worker that died between jobs (e.g. an OOM kill
                # after delivering its result) must not receive work —
                # the job would be misreported as a crash.
                replace(position)
            slot, job = slots[position], jobs[index]
            attempts[index] = attempts.get(index, 0) + 1
            slot.assign(index, job, job.budgets.task_timeout_s)
            slot.attempt = attempts[index]

        def pick(slot) -> int | None:
            """The first queued job ``slot`` accepts, one it has not tried if any."""
            fallback = None
            for index in queue:
                if slot.accepts(jobs[index]):
                    if index not in slot.tried:
                        return index
                    if fallback is None:
                        fallback = index
            return fallback

        def straggler(thief, now: float):
            """The earliest-dispatched slot whose job ``thief`` may steal."""
            if thief.grace is None or queue or policy is None:
                return None
            return min((slot for slot in slots
                        if slot.busy and slot.grace is not None
                        and now - slot.started > slot.grace
                        and slot.name != thief.name
                        and slot.index in attempts
                        and attempts[slot.index] < policy.max_attempts
                        and sum(other.index == slot.index
                                for other in slots) == 1
                        and thief.accepts(slot.job)),
                       key=lambda slot: slot.started, default=None)

        def assign_idle() -> list[tuple[int, dict]]:
            """Hand idle slots their next jobs; the rows of jobs none runs."""
            now = time.monotonic()
            due = [index for ready_at, index in retry_queue if ready_at <= now]
            if due:
                retry_queue[:] = [(ready_at, index)
                                  for ready_at, index in retry_queue
                                  if ready_at > now]
                # Retries jump the queue: they already waited out a backoff.
                queue[:0] = due
            for position, slot in enumerate(slots):
                index = None if slot.busy else pick(slot)
                if index is not None:
                    queue.remove(index)
                    start(position, index)
            for position, slot in enumerate(slots):
                victim = None if slot.busy else straggler(slot, now)
                if victim is not None:
                    start(position, victim.index)
                    self.last_steals += 1
                    superseded[(victim.index, slot.attempt)] = attempt_entry(
                        victim.attempt, victim.job.method,
                        "initial" if victim.attempt == 1 else "retry",
                        "hard_timeout",
                        reason=f"straggler re-dispatch after "
                               f"{victim.grace:g}s grace to {slot.name}")
            if not queue or any(slot.busy for slot in slots):
                return []
            # Every slot is idle and refused every queued job: all workers
            # that could run one are down.
            rows = []
            for index in queue:
                row = _failure_row(jobs[index], "error",
                                   f"all workers for method "
                                   f"{jobs[index].method!r} are down")
                rows.append((index, finish(index, attempts.get(index, 0) + 1,
                                           row)))
            queue.clear()
            return rows

        def wait_timeout() -> float | None:
            """Seconds to the nearest deadline, backoff or straggler's grace."""
            # A retry that came due since ``assign_idle`` ran goes to an
            # idle slot at once; with every slot busy it waits for one
            # to finish, whose handle wakes the wait (counting it would
            # spin).  An expired grace is left out too: its job can only
            # be stolen by a slot that frees up, which wakes the wait.
            now = time.monotonic()
            idle = not all(slot.busy for slot in slots)
            moments = [ready_at for ready_at, _ in retry_queue
                       if idle or ready_at > now]
            for slot in slots:
                if slot.busy and slot.deadline is not None:
                    moments.append(slot.deadline)
                if (slot.busy and slot.grace is not None and not queue
                        and now - slot.started <= slot.grace):
                    moments.append(slot.started + slot.grace)
            if not moments:
                return None
            return max(0.0, min(moments) - now)

        def timed_out(job: VerificationRequest) -> dict:
            return _failure_row(job, "TO", "hard task timeout",
                                job.budgets.task_timeout_s)

        def finish(index: int, attempt: int, row: dict) -> dict | None:
            """The job's final row, or ``None`` while it may still get another."""
            job = jobs[index]
            if policy is not None:
                failure = classify_row(row)
                kind = "initial" if attempt == 1 else "retry"
                if policy.is_retryable(failure):
                    entry = attempt_entry(attempt, job.method, kind, failure,
                                          reason=row.get("reason"))
                    if any(slot.index == index for slot in slots):
                        # The job's other attempt (a steal's) still runs
                        # and answers for it.
                        histories.setdefault(index, []).append(entry)
                        return None
                    if (attempts.get(index, 0) < policy.max_attempts
                            and any(slot.accepts(job) for slot in slots)):
                        # Retryable environment failure with budget left:
                        # log the attempt, wait out the (deterministic)
                        # backoff, and re-dispatch on whichever slot frees
                        # up — a crashed worker is already being replaced.
                        delay = policy.delay_s(attempt, key=(
                            job.architecture, job.width, job.method))
                        entry["next_delay_s"] = round(delay, 6)
                        histories.setdefault(index, []).append(entry)
                        self.last_retries += 1
                        retry_queue.append((time.monotonic() + delay, index))
                        return None
                history = histories.pop(index, [])
                steal = superseded.pop((index, attempt), None)
                if steal is not None and all(
                        entry["attempt"] != steal["attempt"]
                        for entry in history):
                    history.append(steal)
                if history:
                    # The job needed more than one attempt: close the
                    # history with the final outcome and let it ride on
                    # the row (and therefore through cache and report).
                    report = VerificationReport.from_row(row)
                    history.append(attempt_entry(
                        attempt, job.method, kind,
                        failure if failure != "none" else report.verdict,
                        reason=row.get("reason")))
                    report.attempts = history
                    row = report.to_row()
            attempts.pop(index, None)
            return self._store(job, row, keys[index])

        # Imported here: importing it at module level would cost every CLI
        # start and verify-only server its dozen modules.
        from multiprocessing.connection import wait

        try:
            while True:
                fresh = follow_ups()
                queue[:0] = fresh
                outstanding += len(fresh)
                if not outstanding:
                    break
                resolved = assign_idle()
                if not resolved:
                    handles = [handle for slot in slots if slot.busy
                               for handle in slot.handles]
                    ready = set(wait(handles, timeout=wait_timeout()))
                    now = time.monotonic()
                    for position, slot in enumerate(slots):
                        if not slot.busy:
                            continue
                        index, job, attempt = slot.index, slot.job, slot.attempt
                        if any(handle in ready for handle in slot.handles):
                            # A row the worker sent before dying is still
                            # in its pipe, so only an empty pipe means a
                            # process died in the job: by its deadline
                            # alarm or in a crash.
                            row = slot.receive()
                            if row is None:
                                slot.process.join(5.0)
                                code = slot.process.exitcode
                                row = (timed_out(job) if code is not None
                                       and code == _DEADLINE_EXITCODE
                                       else _failure_row(
                                           job, "crash",
                                           f"worker exited with code {code}"))
                                replace(position)
                            else:
                                slot.release()
                        elif slot.deadline is not None and now > slot.deadline:
                            # Hard timeout: the worker is wedged inside the
                            # job, so it is killed and replaced.
                            replace(position)
                            row = timed_out(job)
                        else:
                            continue
                        if index not in attempts:
                            continue  # a steal's loser: the job has its row
                        row = finish(index, attempt, row)
                        if row is not None:
                            resolved.append((index, row))
                    # Idle slots take their next jobs before the rows go
                    # out, so they keep running while the consumer holds
                    # a row.
                    resolved += assign_idle()
                outstanding -= len(resolved)
                yield from resolved
        finally:
            # A slot still busy here (the run raised, or its consumer
            # closed it) holds a job whose row must never reach a later
            # run or the cache: it is killed, not kept.
            for slot in slots:
                if slot.busy:
                    slot.kill()
            if pool is not None:
                pool.give_back(slot for slot in slots if not slot.busy)
                if self.pool is None:
                    pool.close()
