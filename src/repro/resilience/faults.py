"""Deterministic fault injection for chaos-testing the verification fleet.

A :class:`FaultPlan` is a seeded, JSON-serializable script of failures —
"crash the worker running SP-AR-RC/4/mt-lr, once", "drop the first HTTP
response mid-body", "corrupt the next cache entry published".  The code
under test stays fault-free in production: injection points are inert
single calls (``FaultPlan.should(site, key)``) that read the plan from
the ``REPRO_FAULT_PLAN`` environment variable, so forked pool workers
and subprocess servers honour the same plan with no API plumbing.

Determinism has two halves:

* *Which* events fire is decided by (site, key-glob, times) matching —
  no randomness at match time; the seed only parameterizes corruption
  payloads, so a given plan always injects the same bytes.
* *How many* events fire is counted cross-process: each fault claims
  hits through ``O_CREAT | O_EXCL`` marker files in ``state_dir``, so
  "crash once" means once fleet-wide even though the crashing worker is
  respawned with fresh module state.  Plans without a ``state_dir``
  count in-process only (fine for single-process sites like the client).

Injection sites (``Fault.site``):

``worker-crash``
    ``_pool_worker_main`` calls ``os._exit(exit_code)`` before reporting
    the job result — indistinguishable from a segfault/OOM kill.
``worker-latency``
    ``time.sleep(delay_s)`` before running the job — long enough delays
    exercise the hard-timeout/straggler paths.
``cache-corrupt``
    The :class:`~repro.experiments.runner.ResultCache` publish path
    truncates/garbles the entry it just wrote — the *next reader* must
    treat it as a miss and quarantine it.
``disconnect``
    The HTTP server closes the socket after sending roughly half of the
    response body — the client sees a short read.

Keys are hierarchical strings matched with ``fnmatch`` globs: jobs use
``"{architecture}/{width}/{method}"``, HTTP responses use
``"{METHOD} {path}"``, cache entries use the entry filename.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from pathlib import Path

from repro.errors import VerificationError

#: Environment variable carrying a serialized plan to worker processes.
ENV_VAR = "REPRO_FAULT_PLAN"

FAULT_SITES = ("worker-crash", "worker-latency", "cache-corrupt",
               "disconnect")


@dataclass(frozen=True)
class Fault:
    """One scripted failure: fire at ``site`` for keys matching ``match``.

    ``times`` bounds how often the fault fires (0 = never, useful for
    muting a fault in a derived plan); ``delay_s`` is the injected
    latency for ``worker-latency`` sites; ``exit_code`` the worker's
    death code for ``worker-crash`` (137 = SIGKILL'd, the OOM-killer
    signature).
    """

    site: str
    match: str = "*"
    times: int = 1
    delay_s: float = 0.0
    exit_code: int = 137

    def __post_init__(self) -> None:
        if self.site not in FAULT_SITES:
            raise VerificationError(
                f"unknown fault site {self.site!r}; "
                f"expected one of {FAULT_SITES}")
        if self.times < 0:
            raise VerificationError("fault times must be >= 0")

    def to_dict(self) -> dict:
        return {"site": self.site, "match": self.match, "times": self.times,
                "delay_s": self.delay_s, "exit_code": self.exit_code}

    @classmethod
    def from_dict(cls, document: dict) -> "Fault":
        unknown = set(document) - {"site", "match", "times", "delay_s",
                                   "exit_code"}
        if unknown:
            raise VerificationError(
                f"unknown fault field(s) {sorted(unknown)}")
        return cls(**document)


@dataclass
class FaultPlan:
    """A seeded script of faults shared across every process in a test.

    Serialize with :meth:`to_json` into :data:`ENV_VAR` (or use
    :meth:`environment`) and every ``FaultPlan.from_environment()`` call
    in any subprocess reconstructs the identical plan.  Hit accounting
    goes through ``state_dir`` when set: fault *i* claims hit *n* by
    exclusively creating ``state_dir/fault-{i}-hit-{n}``, which survives
    worker respawns and is atomic across processes.
    """

    seed: int = 0
    faults: tuple[Fault, ...] = ()
    state_dir: str | None = None
    _local_hits: dict[int, int] = field(default_factory=dict, repr=False)

    def should(self, site: str, key: str) -> Fault | None:
        """The fault to inject at ``site`` for ``key``, or None.

        Claims one hit on the first matching fault that still has budget;
        a plan with no matching live fault returns None at effectively
        zero cost, so injection points are safe to leave in hot paths.
        """
        for index, fault in enumerate(self.faults):
            if fault.site != site or not fnmatchcase(key, fault.match):
                continue
            if self._claim(index, fault.times):
                return fault
        return None

    def _claim(self, index: int, budget: int) -> bool:
        if budget <= 0:
            return False
        if self.state_dir is None:
            used = self._local_hits.get(index, 0)
            if used >= budget:
                return False
            self._local_hits[index] = used + 1
            return True
        directory = Path(self.state_dir)
        directory.mkdir(parents=True, exist_ok=True)
        for hit in range(budget):
            marker = directory / f"fault-{index}-hit-{hit}"
            try:
                fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                continue
            except OSError:
                return False
            os.close(fd)
            return True
        return False

    def payload(self, key: str, length: int = 64) -> bytes:
        """Deterministic garbage for corruption faults (seed- and key-keyed)."""
        stream = b""
        counter = 0
        while len(stream) < length:
            stream += hashlib.sha256(
                repr((self.seed, key, counter)).encode("utf-8")).digest()
            counter += 1
        return stream[:length]

    def to_json(self) -> str:
        return json.dumps({
            "seed": self.seed,
            "faults": [fault.to_dict() for fault in self.faults],
            "state_dir": self.state_dir,
        }, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            document = json.loads(text)
        except ValueError as error:
            raise VerificationError(
                f"unparseable fault plan: {error}") from error
        return cls(seed=int(document.get("seed", 0)),
                   faults=tuple(Fault.from_dict(entry)
                                for entry in document.get("faults", ())),
                   state_dir=document.get("state_dir"))

    def environment(self) -> dict:
        """Env-var mapping that activates this plan in child processes."""
        return {ENV_VAR: self.to_json()}

    @classmethod
    def from_environment(cls) -> "FaultPlan | None":
        text = os.environ.get(ENV_VAR)
        if not text:
            return None
        return cls.from_json(text)


# Injection points call active_plan() instead of from_environment() so the
# (site-miss) fast path costs one dict lookup, not a JSON parse per job.
_CACHED: tuple[str | None, FaultPlan | None] = (None, None)


def active_plan() -> FaultPlan | None:
    """The process-wide plan from :data:`ENV_VAR`, parsed at most once per value."""
    global _CACHED
    text = os.environ.get(ENV_VAR)
    if not text:
        return None
    if _CACHED[0] != text:
        _CACHED = (text, FaultPlan.from_json(text))
    return _CACHED[1]


def maybe_crash(key: str) -> None:
    """``worker-crash`` injection point — only ever called in pool workers."""
    plan = active_plan()
    if plan is None:
        return
    fault = plan.should("worker-crash", key)
    if fault is not None:
        os._exit(fault.exit_code)


def maybe_delay(key: str) -> None:
    """``worker-latency`` injection point."""
    plan = active_plan()
    if plan is None:
        return
    fault = plan.should("worker-latency", key)
    if fault is not None and fault.delay_s > 0:
        time.sleep(fault.delay_s)


def maybe_corrupt_published_entry(path: Path) -> None:
    """``cache-corrupt`` injection point, called after a cache publish."""
    plan = active_plan()
    if plan is None:
        return
    fault = plan.should("cache-corrupt", path.name)
    if fault is not None:
        corrupt_cache_entry(path, seed=plan.seed)


def corrupt_cache_entry(path: Path, seed: int = 0) -> None:
    """Overwrite a cache entry with deterministic non-JSON garbage.

    Also usable directly from tests that corrupt a chosen entry without
    running a whole plan.  The write is atomic (tmp + replace) so a
    concurrent reader sees either the old entry or the garbage, never a
    half-written hybrid.
    """
    plan = FaultPlan(seed=seed)
    garbage = b"\x00repro-chaos" + plan.payload(path.name)
    temporary = path.with_suffix(f".tmp.{os.getpid()}")
    temporary.write_bytes(garbage)
    temporary.replace(path)
