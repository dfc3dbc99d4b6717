"""Experiment runners shared by the benchmark harness and the CLI.

Every runner returns a plain dictionary so the benchmark scripts can both
assert on the outcome and print the paper-style table rows.  A run that
exceeds its monomial/conflict/node/time budget is reported with
``time = "TO"`` exactly like the 100-hour timeouts in the paper's tables.

Two execution modes are provided:

* the single-run functions (:func:`run_membership_testing`,
  :func:`run_sat_cec`, :func:`run_bdd_cec`) and their uniform dispatch
  :func:`run_job`, and
* :class:`ParallelRunner`, which fans a catalog of
  :class:`VerificationJob` entries across a persistent pool of worker
  processes (``multiprocessing``), streams result rows back as they
  complete, and isolates crashes and hard timeouts per circuit so one bad
  job can never take down a table reproduction.  Completed rows can be
  cached on disk (:class:`ResultCache`) keyed by netlist content hash,
  method, width, and budgets, so re-running a table only executes changed
  or uncached jobs.
"""

from __future__ import annotations

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
from typing import Callable, Iterable, Sequence

from repro.api.registry import backend_names, get_backend, scheduling_rank
from repro.api.report import VerificationReport
from repro.baselines.bdd.equivalence import bdd_equivalence_check
from repro.baselines.sat.miter import sat_equivalence_check
from repro.errors import BlowUpError, ReproError
from repro.generators.multipliers import generate_multiplier
from repro.resilience.faults import (
    maybe_corrupt_published_entry,
    maybe_crash,
    maybe_delay,
)
from repro.resilience.policy import attempt_entry, classify_row
from repro.verification.engine import verify_multiplier


@dataclass
class ExperimentConfig:
    """Budgets shared by all experiment runs (environment-overridable).

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
    time_budget_s: float = 60.0
    monomial_budget: int = 2_000_000
    sat_conflict_budget: int = 200_000
    bdd_node_budget: int = 1_000_000
    #: Cap on the vanishing-rule verdict cache (``None`` = unlimited).
    vanishing_cache_limit: int | None = None
    golden_architecture: str = "SP-AR-RC"
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
        config.time_budget_s = float(
            os.environ.get("REPRO_BENCH_TIMEOUT", config.time_budget_s))
        config.monomial_budget = int(
            os.environ.get("REPRO_BENCH_MONOMIAL_BUDGET", config.monomial_budget))
        config.sat_conflict_budget = int(
            os.environ.get("REPRO_BENCH_SAT_CONFLICTS", config.sat_conflict_budget))
        config.bdd_node_budget = int(
            os.environ.get("REPRO_BENCH_BDD_NODES", config.bdd_node_budget))
        config.jobs = int(os.environ.get("REPRO_BENCH_JOBS", config.jobs))
        config.cache_dir = os.environ.get("REPRO_BENCH_CACHE") or None
        return config


def run_membership_testing(architecture: str, width: int, method: str,
                           config: ExperimentConfig,
                           certificate: bool = False) -> dict:
    """Run one MT-LR / MT-FO / MT-Naive verification and report a table row.

    With ``certificate=True`` the emitted proof certificate rides on the
    row (and therefore through the result cache) under the
    ``"certificate"`` key.
    """
    from repro.api.request import Budgets
    netlist = generate_multiplier(architecture, width)
    start = time.perf_counter()
    try:
        result = verify_multiplier(
            netlist, method=method, budgets=Budgets.from_config(config),
            find_counterexample=False, certificate=certificate)
    except BlowUpError as error:
        report = VerificationReport.from_blowup(
            error, method=method, circuit=architecture, width=width,
            elapsed_s=time.perf_counter() - start)
        return report.to_row()
    report = VerificationReport.from_result(result, circuit=architecture,
                                            width=width)
    if certificate and result.certificate_data is not None:
        from repro.certify import build_certificate
        report.certificate = build_certificate(result)
    return report.to_row()


def run_sat_cec(architecture: str, width: int, config: ExperimentConfig,
                booth_supported: bool = True,
                method: str = "sat-cec") -> dict:
    """Run the SAT-miter equivalence check against the golden array multiplier.

    With ``booth_supported=False`` the run is reported as not applicable for
    Booth multipliers — mirroring the "-" entries of the CPP column in
    Table II.
    """
    if not booth_supported and architecture.upper().startswith("BP"):
        return VerificationReport.not_applicable(
            method, circuit=architecture, width=width).to_row()
    netlist = generate_multiplier(architecture, width)
    golden = generate_multiplier(config.golden_architecture, width)
    result = sat_equivalence_check(netlist, golden,
                                   conflict_limit=config.sat_conflict_budget,
                                   time_budget_s=config.time_budget_s)
    return VerificationReport.from_sat_result(result, circuit=architecture,
                                              width=width,
                                              method=method).to_row()


def run_bdd_cec(architecture: str, width: int, config: ExperimentConfig,
                method: str = "bdd-cec") -> dict:
    """Run the BDD equivalence check against the word-level product."""
    netlist = generate_multiplier(architecture, width)
    result = bdd_equivalence_check(netlist, "multiply",
                                   node_budget=config.bdd_node_budget)
    return VerificationReport.from_bdd_result(result, circuit=architecture,
                                              width=width,
                                              method=method).to_row()


# ---------------------------------------------------------------------------
# Batch execution: job catalog, serial runner, parallel runner
# ---------------------------------------------------------------------------

#: Methods understood by :func:`run_job` — derived from the backend
#: registry (:mod:`repro.api.registry`), the single source of truth.
JOB_METHODS: tuple[str, ...] = backend_names()


@dataclass(frozen=True)
class VerificationJob:
    """One (architecture, width, method) cell of an evaluation table.

    ``config`` optionally overrides the batch-level
    :class:`ExperimentConfig` for this job only — the per-request budget
    groups of :meth:`repro.api.service.VerificationService.run_batch` ride
    on it.  It travels with the job through the worker-pool queues and is
    part of the cache key (via the budgets it carries), but not of the job
    identity.  ``task_timeout_s`` likewise overrides the runner-level hard
    wall-clock limit for this job.
    """

    architecture: str
    width: int
    method: str
    config: ExperimentConfig | None = field(default=None, compare=False)
    task_timeout_s: float | None = field(default=None, compare=False)
    #: Ask the algebraic engine for a proof certificate; the certificate
    #: rides on the row and is part of the cache key (a plain row must
    #: never satisfy a certificate request).
    certificate: bool = False

    @property
    def key(self) -> tuple[str, int, str]:
        """Deterministic identity used for ordering and result joining."""
        return (self.architecture, self.width, self.method)


def run_job(job: VerificationJob, config: ExperimentConfig) -> dict:
    """Run one verification job and return its table row (uniform dispatch).

    Dispatch is driven by the registered backend's ``kind`` — plugging a
    new backend into :mod:`repro.api.registry` with an existing kind makes
    it batchable with no change here.  A job-level ``config`` takes
    precedence over the batch-level one.
    """
    if job.config is not None:
        config = job.config
    try:
        backend = get_backend(job.method)
    except ReproError:
        raise ReproError(f"unknown job method {job.method!r}; "
                         f"expected one of {JOB_METHODS}") from None
    if backend.kind == "algebraic":
        return run_membership_testing(job.architecture, job.width, job.method,
                                      config, certificate=job.certificate)
    if backend.kind == "sat":
        return run_sat_cec(job.architecture, job.width, config,
                           method=job.method)
    return run_bdd_cec(job.architecture, job.width, config,
                       method=job.method)


def expected_cost_key(job: VerificationJob) -> tuple[int, int, int]:
    """Heuristic relative cost of a job, for longest-expected-first order.

    Width dominates (verification cost grows steeply with operand width),
    then the registry's per-backend cost rank, then the architecture
    family: Booth multipliers carry the heaviest rewriting load, tree
    accumulators more than arrays.  The key orders *scheduling only* —
    result rows keep the grid order — so one expensive job (a 16-bit Booth
    run, say) starts first instead of serialising the tail of a batch.
    """
    architecture = job.architecture.upper()
    cost = 0
    if architecture.startswith("BP"):
        cost += 4
    for marker, weight in (("-DT-", 2), ("-WT-", 2), ("-CT-", 2),
                           ("-RT-", 1), ("-OS-", 1)):
        if marker in architecture:
            cost += weight
            break
    return (job.width, scheduling_rank(job.method), cost)


def _guarded_run_job(job: VerificationJob, config: ExperimentConfig) -> dict:
    """Run a job, converting any exception into an ``error`` row.

    This is the per-circuit isolation layer shared by the serial and the
    parallel paths: a generator or verifier bug on one architecture must
    never abort the rest of the batch.
    """
    try:
        return run_job(job, config)
    except Exception as error:  # noqa: BLE001 - isolation boundary
        return {
            "architecture": job.architecture, "width": job.width,
            "method": job.method, "status": "error", "time": "-",
            "time_s": None, "verified": None,
            "reason": f"{type(error).__name__}: {error}",
        }


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


def result_cache_key(job: VerificationJob, config: ExperimentConfig,
                     task_timeout_s: float | None = None) -> str | None:
    """Content-addressed cache key of a job (``None`` = uncacheable).

    The single source of truth for result-cache keying, shared by
    :class:`ResultCache`, the verification service, and the fleet layer:
    netlist content hash + method + width + every outcome-relevant budget
    + the package version.  Job-level overrides (``job.config``,
    ``job.task_timeout_s``) take precedence over the batch-level
    arguments, so two jobs of one batch running under different budget
    groups never share an entry.
    """
    if job.config is not None:
        config = job.config
    if job.task_timeout_s is not None:
        task_timeout_s = job.task_timeout_s
    netlist = netlist_hash(job.architecture, job.width)
    if netlist is None:
        return None
    from repro import __version__
    document = {
        "schema": ResultCache.SCHEMA,
        "version": __version__,
        "netlist": netlist,
        "method": job.method,
        "width": job.width,
        "certificate": job.certificate,
        "budgets": {
            "monomial_budget": config.monomial_budget,
            "time_budget_s": config.time_budget_s,
            "sat_conflict_budget": config.sat_conflict_budget,
            "bdd_node_budget": config.bdd_node_budget,
            "vanishing_cache_limit": config.vanishing_cache_limit,
            "task_timeout_s": task_timeout_s,
        },
    }
    if job.method == "sat-cec":
        document["golden"] = netlist_hash(config.golden_architecture,
                                          job.width)
    serial = json.dumps(document, sort_keys=True)
    return hashlib.sha256(serial.encode("utf-8")).hexdigest()


class ResultCache:
    """On-disk JSON cache of completed verification rows.

    Rows are keyed by the *content* of the problem, not its name: the
    gate-level Verilog of the generated netlist is hashed together with the
    method, the operand width, every budget that can change the outcome
    (including the golden reference netlist for SAT CEC and the hard task
    timeout), and the package version.  Re-running a table therefore only
    executes jobs whose circuit, method, budgets, or code version actually
    changed; renaming an architecture that generates the same gates still
    hits, while upgrading the package invalidates every entry so an
    algorithm fix is never masked by stale rows.

    Rows that report infrastructure failures (``status`` of ``error`` or
    ``crash``) are never cached — those describe the run, not the problem.
    ``TO`` rows *are* cached: the budgets that produced them are part of the
    key, and a re-run that reproduces the table (the cache's contract) must
    reproduce its timeouts too.  They are still wall-clock-dependent, so to
    re-measure timeouts on a faster machine, point ``--cache`` at a fresh
    directory (or delete the entry).

    On-disk entries store the unified
    :class:`~repro.api.report.VerificationReport` schema (see
    ``repro/api/__init__.py``); table rows are reconstructed from it on
    every hit, byte-identical to freshly executed rows.
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

    def key(self, job: VerificationJob, config: ExperimentConfig,
            task_timeout_s: float | None = None) -> str | None:
        """Cache key of a job under the given budgets (``None`` = uncacheable).

        Delegates to :func:`result_cache_key` — job-level overrides
        (``job.config``, ``job.task_timeout_s``) take precedence over the
        batch-level arguments, so two jobs of one batch running under
        different budget groups never share an entry.
        """
        return result_cache_key(job, config, task_timeout_s=task_timeout_s)

    # -- storage ---------------------------------------------------------------

    def get(self, key: str | None) -> dict | None:
        """Return the cached row for ``key``, or ``None`` on a miss."""
        report = self.get_report(key)
        return report.to_row() if report is not None else None

    def get_report(self, key: str | None) -> "VerificationReport | None":
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
    def _checksum(report: "VerificationReport") -> str:
        """Integrity checksum over the canonical report serialization."""
        return hashlib.sha256(report.to_json().encode("utf-8")).hexdigest()

    @staticmethod
    def _quarantine(path: Path) -> None:
        target = path.with_name(path.name + ".quarantined")
        try:
            path.replace(target)
        except OSError:
            pass  # a concurrent reader already moved (or removed) it

    def put(self, key: str | None, job: VerificationJob, row: dict) -> None:
        """Store a completed row unless it reports an infrastructure failure."""
        if key is None or row.get("status") not in self.CACHEABLE_STATUSES:
            return
        self.put_report(key, VerificationReport.from_row(row), job=job)

    def put_report(self, key: str | None, report: "VerificationReport",
                   job: VerificationJob | None = None) -> bool:
        """Store a canonical report under an explicit key.

        The entry point of the shared-cache protocol (``PUT
        /v1/cache/{key}`` and the fleet dispatcher): the caller computed
        the key (:func:`result_cache_key`), the cache only enforces the
        cacheability contract.  Returns ``True`` iff the entry was
        published — infrastructure-failure reports and unwritable
        directories are a quiet ``False``, never an exception.
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


def _watch_parent(parent: int) -> None:
    """End this worker process once ``parent`` is gone, busy or idle."""
    while os.getppid() == parent:
        time.sleep(PARENT_CHECK_S)
    os._exit(1)


def _pool_worker_main(connection, parent_end) -> None:
    """Worker-process loop: run ``(job, config)`` tasks from ``connection``.

    Each task's row goes back down the same pipe, so a row always belongs
    to the job the parent handed this worker.  The loop ends on a ``None``
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
    threading.Thread(target=_watch_parent, args=(os.getppid(),),
                     daemon=True).start()
    while True:
        try:
            task = connection.recv()
        except EOFError:
            return
        if task is None:
            return
        job, config = task
        fault_key = f"{job.architecture}/{job.width}/{job.method}"
        maybe_delay(fault_key)
        maybe_crash(fault_key)
        try:
            connection.send(_guarded_run_job(job, config))
        except BrokenPipeError:
            return  # the parent died while the job ran


class _PoolWorker:
    """Parent-side handle of one persistent worker process and its pipe."""

    __slots__ = ("connection", "process", "index", "job", "deadline",
                 "started")

    def __init__(self, context) -> None:
        with _START_LOCK:
            self.connection, child_end = context.Pipe()
            self.process = context.Process(
                target=_pool_worker_main, args=(child_end, self.connection),
                daemon=True)
            self.process.start()
            child_end.close()
        self.index: int | None = None
        self.job: VerificationJob | None = None
        self.deadline: float | None = None
        self.started: float | None = None

    @property
    def busy(self) -> bool:
        return self.index is not None

    def assign(self, index: int, job: VerificationJob,
               task_timeout_s: float | None) -> None:
        """Record that this worker now runs ``job``, the run's ``index``-th."""
        self.index = index
        self.job = job
        self.started = time.monotonic()
        self.deadline = (self.started + task_timeout_s
                         if task_timeout_s is not None else None)

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
        self.started = None

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
    worker that crashed or was killed (hard timeout, straggler) is never
    given back; its run replaces it through :meth:`start`.  After
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
    """Fan verification jobs across persistent worker processes with crash isolation.

    :meth:`run` leases at most ``workers`` long-lived ``multiprocessing``
    processes from a :class:`WorkerPool`, so the fork + import cost is paid
    once per worker instead of once per job (which dominates small 4-bit
    runs).  With ``pool`` given (the HTTP server's, say) the workers also
    outlive the run and serve later ones; without it :meth:`run` uses a
    private pool and closes it before returning.  Crash isolation and the
    hard per-job wall-clock limit are preserved: a hard crash (segfault,
    OOM kill) or a job exceeding ``task_timeout_s`` takes down only the
    worker it ran on — the parent reports the job as a table row
    (``status="crash"`` / ``"TO"``) and starts a replacement worker.
    Results are streamed to the optional ``on_result`` callback as they
    complete and returned in job order, so the verdicts are byte-for-byte
    identical to the serial path regardless of worker count or completion
    order.

    With a cache directory (``cache_dir``, ``config.cache_dir``, or the
    ``REPRO_BENCH_CACHE`` environment variable) completed rows are stored
    on disk keyed by (netlist content hash, method, width, budgets);
    re-running a table then only executes changed or uncached jobs and
    reproduces the cached rows verbatim.

    Parameters
    ----------
    config:
        Budgets applied to every job (the in-process time/monomial budgets
        still produce the paper-style ``TO`` rows).
    workers:
        Number of worker processes; ``None`` uses ``os.cpu_count()``.
        ``workers <= 1`` runs serially in-process (still crash-isolated
        against Python exceptions, not against hard crashes).
    task_timeout_s:
        Hard per-job wall-clock limit enforced by the parent by killing
        the worker; ``None`` disables the hard limit and relies on the
        in-process budgets.
    cache_dir:
        Directory of the on-disk result cache; overrides
        ``config.cache_dir``.  ``None`` with no configured directory
        disables caching.
    retry_policy:
        A :class:`repro.resilience.RetryPolicy` giving crashed and
        hard-timed-out jobs further attempts on a fresh worker (with
        deterministic backoff); ``None`` (the default) reports the first
        failure exactly as before.  Jobs that needed more than one attempt
        carry the history in their row's ``attempts`` key.
    straggler_grace_s:
        With a retry policy, a busy worker whose job has run longer than
        this grace is killed and the job re-dispatched (counted as a
        retry attempt, classified ``hard_timeout``); ``None`` disables
        straggler re-dispatch.  Only jobs with retry budget left are ever
        killed, so a genuinely long job still finishes on its last attempt.
    pool:
        A :class:`WorkerPool` to lease workers from and give them back to;
        ``None`` starts a private pool per run.
    """

    def __init__(self, config: ExperimentConfig | None = None,
                 workers: int | None = None,
                 task_timeout_s: float | None = None,
                 cache_dir: str | os.PathLike | None = None,
                 retry_policy=None,
                 straggler_grace_s: float | None = None,
                 pool: WorkerPool | None = None) -> None:
        self.config = config or ExperimentConfig.from_environment()
        if workers is None:
            workers = self.config.jobs if self.config.jobs > 1 else (
                os.cpu_count() or 1)
        self.workers = max(1, int(workers))
        self.task_timeout_s = task_timeout_s
        directory = cache_dir if cache_dir is not None else self.config.cache_dir
        self.cache = ResultCache(directory) if directory else None
        self.retry_policy = retry_policy
        self.straggler_grace_s = straggler_grace_s
        self.pool = pool
        #: Rows served from the cache / executed fresh by the last run.
        self.last_cache_hits = 0
        self.last_executed = 0
        #: Extra attempts (beyond each job's first) spent by the last run.
        self.last_retries = 0

    # -- job catalog helpers ---------------------------------------------------

    @staticmethod
    def catalog(architectures: Iterable[str], widths: Iterable[int],
                methods: Iterable[str]) -> list[VerificationJob]:
        """The full (architecture, width, method) job grid, widths outermost."""
        return [VerificationJob(arch, width, method)
                for width in widths for arch in architectures
                for method in methods]

    # -- cache plumbing --------------------------------------------------------

    def _cache_key(self, job: VerificationJob) -> str | None:
        if self.cache is None:
            return None
        return self.cache.key(job, self.config, self.task_timeout_s)

    def _job_timeout(self, job: VerificationJob) -> float | None:
        """Effective hard wall-clock limit of one job (job overrides runner)."""
        return (job.task_timeout_s if job.task_timeout_s is not None
                else self.task_timeout_s)

    def _finish_row(self, job: VerificationJob, row: dict,
                    cache_key: str | None,
                    on_result: Callable[[VerificationJob, dict], None] | None,
                    ) -> dict:
        if self.cache is not None and cache_key is not None:
            self.cache.put(cache_key, job, row)
        if on_result is not None:
            on_result(job, row)
        return row

    # -- execution -------------------------------------------------------------

    def run_serial(self, jobs: Sequence[VerificationJob],
                   on_result: Callable[[VerificationJob, dict], None] | None = None,
                   ) -> list[dict]:
        """Reference serial execution (same rows, same order, one process)."""
        rows = []
        self.last_cache_hits = 0
        self.last_executed = 0
        self.last_retries = 0
        for job in jobs:
            key = self._cache_key(job)
            row = self.cache.get(key) if self.cache is not None else None
            if row is None:
                self.last_executed += 1
                row = _guarded_run_job(job, self.config)
                self._finish_row(job, row, key, on_result)
            else:
                self.last_cache_hits += 1
                if on_result is not None:
                    on_result(job, row)
            rows.append(row)
        return rows

    def run(self, jobs: Sequence[VerificationJob],
            on_result: Callable[[VerificationJob, dict], None] | None = None,
            ) -> list[dict]:
        """Run all jobs and return their rows in job order."""
        jobs = list(jobs)
        self.last_retries = 0
        if not jobs:
            self.last_cache_hits = 0
            self.last_executed = 0
            return []

        results: dict[int, dict] = {}
        keys: dict[int, str | None] = {}
        pending: list[int] = []
        if self.cache is not None:
            for index, job in enumerate(jobs):
                keys[index] = key = self._cache_key(job)
                row = self.cache.get(key)
                if row is None:
                    pending.append(index)
                else:
                    results[index] = row
                    if on_result is not None:
                        on_result(job, row)
        else:
            keys = dict.fromkeys(range(len(jobs)))
            pending = list(range(len(jobs)))
        self.last_cache_hits = len(jobs) - len(pending)
        self.last_executed = len(pending)

        if not pending:
            return [results[i] for i in range(len(jobs))]
        # The hard wall-clock limit needs a killable worker process, so the
        # in-process shortcut only applies when no such limit was requested.
        if (all(self._job_timeout(jobs[index]) is None for index in pending)
                and (self.workers <= 1 or len(pending) <= 1)):
            for index in pending:
                job = jobs[index]
                row = _guarded_run_job(job, self.config)
                results[index] = self._finish_row(job, row, keys[index],
                                                  on_result)
            return [results[i] for i in range(len(jobs))]

        # Longest-expected-first assignment: without it a heavy job picked
        # up late (one 16-bit Booth run, say) serialises the tail of the
        # batch.  The sort is stable, so equal-cost jobs keep grid order,
        # and the result rows are joined by index — byte-identical to the
        # serial path regardless of the schedule.
        queue_order = sorted(pending, key=lambda index:
                             expected_cost_key(jobs[index]), reverse=True)
        next_slot = 0
        outstanding = len(pending)
        pool = self.pool if self.pool is not None else WorkerPool(self.workers)
        workers = pool.lease(min(self.workers, len(pending)))
        policy = self.retry_policy
        grace = self.straggler_grace_s if policy is not None else None
        # Per-job retry state: 1-based attempt counts, accumulated attempt
        # histories, and re-dispatches waiting out their backoff delay.
        attempt_counts: dict[int, int] = {}
        histories: dict[int, list[dict]] = {}
        retry_queue: list[tuple[float, int]] = []

        def pop_ready_index() -> int | None:
            nonlocal next_slot
            now = time.monotonic()
            for position, (ready_at, index) in enumerate(retry_queue):
                if ready_at <= now:
                    retry_queue.pop(position)
                    return index
            if next_slot < len(queue_order):
                index = queue_order[next_slot]
                next_slot += 1
                return index
            return None

        def replace(slot: int) -> None:
            """Kill the worker in ``slot`` (its pipe goes with it) for a new one."""
            fresh = pool.start()
            workers[slot].kill()
            workers[slot] = fresh

        def assign_idle() -> None:
            for slot, worker in enumerate(workers):
                if worker.busy:
                    continue
                index = pop_ready_index()
                if index is None:
                    break
                if not worker.process.is_alive():
                    # An idle worker that died between jobs (e.g. an OOM
                    # kill after delivering its result) must not receive
                    # work — the job would be misreported as a crash.
                    replace(slot)
                    worker = workers[slot]
                job = jobs[index]
                worker.assign(index, job, self._job_timeout(job))
                try:
                    worker.connection.send((job, self.config))
                except OSError:
                    pass  # died just now: its sentinel reports the crash

        def wait_timeout() -> float | None:
            """Seconds to the nearest deadline, grace expiry or backoff."""
            # A retry that came due since ``assign_idle`` ran goes to an
            # idle worker at once; with every worker busy it waits for one
            # to finish, whose handle wakes the wait (counting it would
            # spin).
            now = time.monotonic()
            idle = not all(worker.busy for worker in workers)
            moments = [ready_at for ready_at, _ in retry_queue
                       if idle or ready_at > now]
            for worker in workers:
                if not worker.busy:
                    continue
                if worker.deadline is not None:
                    moments.append(worker.deadline)
                if (grace is not None and attempt_counts.get(worker.index, 1)
                        < policy.max_attempts):
                    moments.append(worker.started + grace)
            if not moments:
                return None
            return max(0.0, min(moments) - now)

        def failure_row(job: VerificationJob, status: str,
                        time_s: float | None, reason: str) -> dict:
            return {"architecture": job.architecture, "width": job.width,
                    "method": job.method, "status": status,
                    "time": "TO" if status == "TO" else "-",
                    "time_s": time_s, "verified": None, "reason": reason}

        def finish(index: int, row: dict) -> None:
            nonlocal outstanding
            job = jobs[index]
            attempt = attempt_counts.get(index, 1)
            if policy is not None:
                failure = classify_row(row)
                if (policy.is_retryable(failure)
                        and attempt < policy.max_attempts):
                    # Retryable environment failure with budget left: log
                    # the attempt, wait out the (deterministic) backoff,
                    # and re-dispatch on whichever worker frees up — the
                    # crashed worker is already being replaced.
                    delay = policy.delay_s(attempt, key=job.key)
                    histories.setdefault(index, []).append(attempt_entry(
                        attempt, job.method,
                        "initial" if attempt == 1 else "retry",
                        failure, reason=row.get("reason"),
                        next_delay_s=round(delay, 6)))
                    attempt_counts[index] = attempt + 1
                    self.last_retries += 1
                    retry_queue.append((time.monotonic() + delay, index))
                    return
                if index in histories:
                    # The job needed more than one attempt: close the
                    # history with the final outcome and let it ride on
                    # the row (and therefore through cache and report).
                    history = histories.pop(index)
                    report = VerificationReport.from_row(row)
                    history.append(attempt_entry(
                        attempt, job.method,
                        "initial" if attempt == 1 else "retry",
                        failure if failure != "none" else report.verdict,
                        reason=row.get("reason")))
                    report.attempts = history
                    row = report.to_row()
            results[index] = self._finish_row(job, row, keys[index],
                                              on_result)
            outstanding -= 1

        # Imported here: importing it at module level would cost every CLI
        # start and verify-only server its dozen modules.
        from multiprocessing.connection import wait

        try:
            assign_idle()
            while outstanding:
                handles = [handle for worker in workers if worker.busy
                           for handle in (worker.connection,
                                          worker.process.sentinel)]
                ready = set(wait(handles, timeout=wait_timeout()))
                now = time.monotonic()
                for slot, worker in enumerate(workers):
                    if not worker.busy:
                        continue
                    index, job = worker.index, worker.job
                    if (worker.connection in ready
                            or worker.process.sentinel in ready):
                        # A row the worker sent before dying is still in
                        # its pipe, so only an empty pipe means a crash.
                        row = worker.receive()
                        if row is None:
                            worker.process.join(5.0)
                            row = failure_row(
                                job, "crash", None, "worker exited with "
                                f"code {worker.process.exitcode}")
                            replace(slot)
                        else:
                            worker.release()
                        finish(index, row)
                    elif worker.deadline is not None and now > worker.deadline:
                        # Hard timeout: the worker is wedged inside the
                        # job, so it is killed and replaced.
                        replace(slot)
                        finish(index, failure_row(
                            job, "TO", self._job_timeout(job),
                            "hard task timeout"))
                    elif (grace is not None and now - worker.started > grace
                          and attempt_counts.get(index, 1)
                          < policy.max_attempts):
                        # Straggler re-dispatch: the job has retry budget,
                        # so killing the slow worker and re-running beats
                        # waiting for the hard deadline.  Guarded on
                        # remaining attempts — the last attempt always
                        # runs to completion.
                        replace(slot)
                        finish(index, failure_row(
                            job, "TO", grace,
                            f"straggler re-dispatch after {grace}s grace"))
                assign_idle()
        finally:
            # A worker still busy here (the run raised) holds a job whose
            # row must never reach a later run: it is killed, not kept.
            for worker in workers:
                if worker.busy:
                    worker.kill()
            pool.give_back(worker for worker in workers if not worker.busy)
            if self.pool is None:
                pool.close()
        return [results[i] for i in range(len(jobs))]


def run_catalog(architectures: Iterable[str], widths: Iterable[int],
                methods: Iterable[str], config: ExperimentConfig | None = None,
                jobs: int = 1,
                task_timeout_s: float | None = None,
                on_result: Callable[[VerificationJob, dict], None] | None = None,
                ) -> list[dict]:
    """Convenience wrapper: build the job grid and run it (serial or parallel)."""
    runner = ParallelRunner(config=config, workers=jobs,
                            task_timeout_s=task_timeout_s)
    grid = ParallelRunner.catalog(architectures, widths, methods)
    return runner.run(grid, on_result=on_result)
