"""Distributed sweep service: queue backends, workers, HTTP front-end.

The service layer turns the content-addressed result store into shared
infrastructure: a sweep runs in-process (the ``local`` backend,
:func:`run_local_sweep`) or is submitted to a shared-filesystem
:class:`DirQueue` (``dir``) that any number of :class:`Worker`
processes on any host drain, and ``repro serve`` exposes the store and
sweep progress over HTTP.  Everything here is orchestration;
the simulation semantics (job keys, store payloads, journal lines) are
owned by :mod:`repro.engine` and are byte-identical however a job
reaches its executor.
"""

from repro.service.queue import (
    DirQueue,
    Lease,
    QueueCounts,
    SubmitReceipt,
    default_worker_id,
    queue_from_spec,
)
from repro.service.run import run_local_sweep, submit_sweep, wait_for_sweep
from repro.service.server import SweepService, make_server, serve_forever
from repro.service.spec import (
    DEFAULT_LEASE_TTL,
    DEFAULT_POLL,
    DEFAULT_QUEUE,
    QUEUE_NAMES,
    QueueSpec,
)
from repro.service.worker import Worker, WorkerStats

__all__ = [
    "DEFAULT_LEASE_TTL",
    "DEFAULT_POLL",
    "DEFAULT_QUEUE",
    "DirQueue",
    "Lease",
    "QUEUE_NAMES",
    "QueueCounts",
    "QueueSpec",
    "SubmitReceipt",
    "SweepService",
    "Worker",
    "WorkerStats",
    "default_worker_id",
    "make_server",
    "queue_from_spec",
    "run_local_sweep",
    "serve_forever",
    "submit_sweep",
    "wait_for_sweep",
]
