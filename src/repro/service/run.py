"""Routing a sweep to its executors.

``--backend local`` (the default) lands in :func:`run_local_sweep`, the
one in-process runner that ``repro sweep`` and ``repro serve`` share:
it journals the sweep under its definition's name in the store (same
grid -> same file, so an interrupted invocation resumes) and calls
:func:`repro.engine.run_jobs`, the same pool and store writes as any
harness.  ``--backend dir:<root>`` goes through :func:`submit_sweep`
and :func:`wait_for_sweep`: the grid is submitted to the
shared-filesystem queue (idempotently -- warm and already-queued keys
are skipped), the sweep is recorded in the queue's registry so any
``repro serve`` front-end can report it, and -- unless detached -- the
submitter polls the result store until every job key is present, then
decodes results straight from the store.  The submitter never
simulates; workers do.
"""

from __future__ import annotations

import sys
import time
from typing import Optional

from repro.engine.executor import (
    SweepError,
    SweepOutcome,
    SweepStats,
    run_jobs,
)
from repro.engine.store import ResultStore
from repro.engine.sweepspec import SweepSpec
from repro.service.queue import DirQueue, SubmitReceipt


def run_local_sweep(
    spec: SweepSpec,
    store: Optional[ResultStore],
    jobs: int = 1,
    timeout: Optional[float] = None,
    journal=None,
    progress=False,
) -> SweepOutcome:
    """Run a sweep in-process through the engine; returns its outcome.

    Without an explicit ``journal``, a stored sweep journals to
    ``store.journals_dir / spec.journal_name()``: one journal per sweep
    definition, so re-running the same grid resumes it.
    """
    if journal is None and store is not None:
        journal = store.journals_dir / spec.journal_name()
    return run_jobs(
        spec.jobs(),
        max_workers=jobs,
        store=store,
        journal=journal,
        timeout=timeout,
        progress=progress,
    )


def submit_sweep(
    spec: SweepSpec, queue: DirQueue, store: ResultStore
) -> SubmitReceipt:
    """Enqueue a sweep's jobs and register the sweep; returns the receipt."""
    receipt = queue.submit(spec.jobs(), store=store)
    queue.record_sweep(spec)
    return receipt


def wait_for_sweep(
    spec: SweepSpec,
    queue: DirQueue,
    store: ResultStore,
    poll: float = 0.5,
    timeout: Optional[float] = None,
    progress: bool = False,
) -> SweepOutcome:
    """Poll until every job key is stored (or failed); decode and return.

    Raises :class:`~repro.engine.executor.SweepError` when the queue
    reports terminal failures for missing keys, or when ``timeout``
    seconds pass without completion (e.g. no worker is running).
    """
    jobs = spec.jobs()
    keys = [job.key() for job in jobs]
    started = time.perf_counter()
    last_done = -1
    while True:
        done = sum(1 for key in keys if store.get(key) is not None)
        if progress and done != last_done:
            counts = queue.counts()
            print(
                f"  sweep {spec.sweep_id()}: {done}/{len(keys)} stored | "
                f"queue: {counts.pending} pending, {counts.leased} leased",
                file=sys.stderr,
                flush=True,
            )
            last_done = done
        if done == len(keys):
            break
        failures = queue.failures()
        fatal = {
            key: failures[key]
            for key in keys
            if key in failures and store.get(key) is None
        }
        if fatal:
            details = "; ".join(
                f"{queue.job_label(key)}: {error.splitlines()[-1] if error else error}"
                for key, error in list(fatal.items())[:5]
            )
            raise SweepError(
                f"{len(fatal)} queued job(s) failed on workers: {details}"
            )
        if timeout is not None and time.perf_counter() - started > timeout:
            counts = queue.counts()
            raise SweepError(
                f"timed out after {timeout:g}s with {done}/{len(keys)} "
                f"results stored ({counts.pending} pending, "
                f"{counts.leased} leased -- is a worker running? "
                f"try: repro worker --backend {queue.spec})"
            )
        time.sleep(poll)

    # Assemble the outcome purely from the store + the shared journal.
    stats = SweepStats(total=len(jobs))
    outcome = SweepOutcome(stats=stats)
    for job, key in zip(jobs, keys):
        record = store.get(key)
        outcome.results[job] = job.decode(record["result"])
    key_set = set(keys)
    statuses = {}
    for entry in queue.journal.entries():
        if entry.key in key_set:  # last entry wins (requeues, resubmits)
            statuses[entry.key] = entry.status
    stats.simulated = sum(1 for s in statuses.values() if s == "ok")
    stats.cache_hits = sum(1 for s in statuses.values() if s == "hit")
    # Keys warm before any worker saw them never hit the journal.
    stats.cache_hits += max(
        0, stats.total - stats.simulated - stats.cache_hits
    )
    stats.wall_seconds = time.perf_counter() - started
    return outcome
