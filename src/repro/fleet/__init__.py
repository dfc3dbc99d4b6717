"""Distributed verification fleet: coordinator, workers, shared cache.

The fleet layer scales the paper's Table I/II grids past one machine.
Each *worker* is simply the existing HTTP server (``repro-verify
serve``) on some host/port; the *coordinator* is a
:class:`FleetDispatcher` driving a :class:`FleetTopology` — scattering
requests longest-expected-first with bounded in-flight per worker,
stealing stragglers onto idle workers (first finisher wins), routing
worker failures through the :mod:`repro.resilience` taxonomy, and
sharing one content-addressed :class:`~repro.experiments.runner.ResultCache`
so a row verified anywhere is verified everywhere.  See ``docs/fleet.md``.
"""

from .dispatcher import (FleetDispatcher, RETRYABLE_WORKER_STATUSES,
                         wire_document)
from .topology import FleetTopology, TOPOLOGY_KEYS, WORKER_KEYS, WorkerSpec

__all__ = [
    "FleetDispatcher",
    "FleetTopology",
    "RETRYABLE_WORKER_STATUSES",
    "TOPOLOGY_KEYS",
    "WORKER_KEYS",
    "WorkerSpec",
    "wire_document",
]
