"""The shared-filesystem job queue: how a sweep's jobs reach remote workers.

:class:`DirQueue` is the ``dir`` backend.  Any worker on any host that
mounts the queue root can claim jobs; claims are atomic, leases expire,
and crashed workers' jobs are requeued.  Layout under the root::

    jobs/<key>.json      job descriptions (RunJob/MixJob.to_dict)
    pending/<key>        claimable markers (empty files)
    leases/<key>         claimed markers (renamed from pending/)
    leases/<key>.json    lease metadata: worker, heartbeat, ttl
    done/<key>.json      terminal records for ok/hit jobs
    failed/<key>.json    terminal records for failed jobs
    sweeps/<id>.json     sweep registry (spec + job keys)
    journal.jsonl        shared run journal (one line per job,
                         ``worker`` field names who ran it)

Jobs are content-addressed by their engine key, so resubmitting a grid
is idempotent: finished keys are skipped, pending keys are left alone,
and two sweeps sharing a (workload, policy) point enqueue it once.

Claim semantics: a worker claims by ``os.rename``-ing the pending
marker into ``leases/`` -- atomic on POSIX, and exactly one of N
concurrent renamers wins (the rest get ``FileNotFoundError`` and move
on).  The claimer then writes lease metadata and heartbeats it while
executing.  ``requeue_expired`` renames markers whose heartbeat is
older than the lease TTL back into ``pending/`` -- again atomic, so a
live worker and a requeuer can race safely: the worst case is a job
simulated twice, and the content-addressed store makes the second write
a harmless no-op.

The ``local`` backend has no queue object: :func:`queue_from_spec`
returns ``None`` for it, and ``repro sweep`` and ``repro serve`` run
its jobs through :func:`repro.service.run.run_local_sweep`, the
engine's ordinary in-process path.
"""

from __future__ import annotations

import json
import os
import socket
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.engine.jobs import MixJob, RunJob, job_from_dict
from repro.engine.journal import RunJournal
from repro.engine.store import ResultStore
from repro.service.spec import QueueSpec

Job = Union[RunJob, MixJob]


def default_worker_id() -> str:
    """``<host>-<pid>``: unique enough across a shared filesystem."""
    return f"{socket.gethostname()}-{os.getpid()}"


def _write_json_atomic(path: Path, payload: Dict[str, object]) -> None:
    """Atomic write (temp + rename), same discipline as the store."""
    path.parent.mkdir(parents=True, exist_ok=True)
    handle, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=".tmp-", suffix=".json"
    )
    try:
        with os.fdopen(handle, "w") as tmp:
            json.dump(payload, tmp, sort_keys=True)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def _read_json(path: Path) -> Optional[Dict[str, object]]:
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    return payload if isinstance(payload, dict) else None


@dataclass
class SubmitReceipt:
    """What happened to each job handed to :meth:`DirQueue.submit`."""

    enqueued: List[str] = field(default_factory=list)  # newly queued keys
    warm: List[str] = field(default_factory=list)  # already in the store
    pending: List[str] = field(default_factory=list)  # already queued/leased
    done: List[str] = field(default_factory=list)  # already finished

    @property
    def total(self) -> int:
        return (
            len(self.enqueued) + len(self.warm)
            + len(self.pending) + len(self.done)
        )


@dataclass(frozen=True)
class QueueCounts:
    """Instantaneous queue population."""

    pending: int = 0
    leased: int = 0
    done: int = 0
    failed: int = 0


@dataclass
class Lease:
    """One claimed job: who holds it, since when, for how long."""

    job_id: str
    worker: str
    job: Job
    claimed: float
    ttl: float


class DirQueue:
    """Shared-filesystem queue with atomic leases and expiry/requeue."""

    def __init__(
        self,
        root: "str | Path",
        lease_ttl: Optional[float] = None,
        spec: Optional[QueueSpec] = None,
    ) -> None:
        self.root = Path(root).expanduser()
        self.spec = spec if spec is not None else QueueSpec.make(
            "dir", path=str(root)
        )
        self.lease_ttl = (
            float(lease_ttl) if lease_ttl is not None else self.spec.lease_ttl
        )

    # -- layout ------------------------------------------------------------
    @property
    def jobs_dir(self) -> Path:
        return self.root / "jobs"

    @property
    def pending_dir(self) -> Path:
        return self.root / "pending"

    @property
    def leases_dir(self) -> Path:
        return self.root / "leases"

    @property
    def done_dir(self) -> Path:
        return self.root / "done"

    @property
    def failed_dir(self) -> Path:
        return self.root / "failed"

    @property
    def sweeps_dir(self) -> Path:
        return self.root / "sweeps"

    @property
    def journal(self) -> RunJournal:
        """The queue's shared journal (every worker appends here)."""
        return RunJournal(self.root / "journal.jsonl")

    def ensure_layout(self) -> None:
        for directory in (
            self.jobs_dir,
            self.pending_dir,
            self.leases_dir,
            self.done_dir,
            self.failed_dir,
            self.sweeps_dir,
        ):
            directory.mkdir(parents=True, exist_ok=True)

    def _is_terminal(self, key: str) -> bool:
        return (
            (self.done_dir / f"{key}.json").is_file()
            or (self.failed_dir / f"{key}.json").is_file()
        )

    # -- producer side -----------------------------------------------------
    def submit(
        self, jobs: Sequence[Job], store: Optional[ResultStore] = None
    ) -> SubmitReceipt:
        """Enqueue jobs (idempotently); warm store keys are skipped."""
        self.ensure_layout()
        receipt = SubmitReceipt()
        for job in jobs:
            key = job.key()
            if self._is_terminal(key):
                receipt.done.append(key)
                continue
            if store is not None and store.get(key) is not None:
                receipt.warm.append(key)
                continue
            if (
                (self.pending_dir / key).is_file()
                or (self.leases_dir / key).is_file()
            ):
                receipt.pending.append(key)
                continue
            _write_json_atomic(self.jobs_dir / f"{key}.json", job.to_dict())
            # The marker makes the job claimable; creating it last means
            # no worker can ever claim a half-written job.
            (self.pending_dir / key).touch()
            receipt.enqueued.append(key)
        return receipt

    def record_sweep(self, spec) -> Dict[str, object]:
        """Persist a sweep's definition so any server/CLI can track it."""
        self.ensure_layout()
        jobs = spec.jobs()
        record = {
            "id": spec.sweep_id(),
            "spec": spec.to_dict(),
            "keys": [job.key() for job in jobs],
            "labels": [job.label for job in jobs],
            "created": time.time(),
        }
        _write_json_atomic(self.sweeps_dir / f"{record['id']}.json", record)
        return record

    def sweep_record(self, sweep_id: str) -> Optional[Dict[str, object]]:
        return _read_json(self.sweeps_dir / f"{sweep_id}.json")

    def sweep_ids(self) -> List[str]:
        if not self.sweeps_dir.is_dir():
            return []
        return sorted(p.stem for p in self.sweeps_dir.glob("*.json"))

    # -- worker side -------------------------------------------------------
    def claim(self, worker: str) -> Optional[Lease]:
        """Atomically claim one pending job, oldest key first."""
        self.ensure_layout()
        try:
            candidates = sorted(os.listdir(self.pending_dir))
        except OSError:
            return None
        for key in candidates:
            if key.startswith("."):
                continue
            try:
                os.rename(self.pending_dir / key, self.leases_dir / key)
            except OSError:
                continue  # someone else won the rename
            job_data = _read_json(self.jobs_dir / f"{key}.json")
            if job_data is None:
                # Unreadable job description: fail it so the sweep
                # surfaces the problem instead of spinning on it.
                self._clear_lease(key)
                _write_json_atomic(
                    self.failed_dir / f"{key}.json",
                    {
                        "job_id": key,
                        "status": "error",
                        "worker": worker,
                        "error": "unreadable job description",
                        "finished": time.time(),
                    },
                )
                continue
            now = time.time()
            lease = Lease(
                job_id=key,
                worker=worker,
                job=job_from_dict(job_data),
                claimed=now,
                ttl=self.lease_ttl,
            )
            self._write_lease_meta(lease, heartbeat=now)
            return lease
        return None

    def _write_lease_meta(self, lease: Lease, heartbeat: float) -> None:
        _write_json_atomic(
            self.leases_dir / f"{lease.job_id}.json",
            {
                "job_id": lease.job_id,
                "worker": lease.worker,
                "claimed": lease.claimed,
                "heartbeat": heartbeat,
                "ttl": lease.ttl,
            },
        )

    def heartbeat(self, lease: Lease) -> None:
        """Refresh the lease so expiry scanners leave the job alone."""
        self._write_lease_meta(lease, heartbeat=time.time())

    def _clear_lease(self, key: str) -> None:
        for path in (self.leases_dir / key, self.leases_dir / f"{key}.json"):
            try:
                os.unlink(path)
            except OSError:
                pass

    def complete(
        self,
        lease: Lease,
        status: str,
        wall_seconds: float = 0.0,
        error: Optional[str] = None,
    ) -> None:
        """Mark a leased job terminal (``ok``/``hit`` or ``error``)."""
        record = {
            "job_id": lease.job_id,
            "status": status,
            "worker": lease.worker,
            "wall_s": round(wall_seconds, 6),
            "finished": time.time(),
        }
        if error is not None:
            record["error"] = str(error)
        target = self.failed_dir if status == "error" else self.done_dir
        _write_json_atomic(target / f"{lease.job_id}.json", record)
        self._clear_lease(lease.job_id)

    def requeue_expired(self, now: Optional[float] = None) -> List[str]:
        """Give up on dead workers: move stale leases back to pending."""
        if not self.leases_dir.is_dir():
            return []
        now = time.time() if now is None else now
        requeued: List[str] = []
        for marker in self.leases_dir.iterdir():
            key = marker.name
            if key.startswith(".") or key.endswith(".json"):
                continue
            meta = _read_json(self.leases_dir / f"{key}.json")
            if meta is not None:
                heartbeat = float(meta.get("heartbeat", 0.0))
                ttl = float(meta.get("ttl", self.lease_ttl))
            else:
                # Claimer crashed between the rename and the metadata
                # write: judge the orphan by the marker's own age.
                try:
                    heartbeat = marker.stat().st_mtime
                except OSError:
                    continue
                ttl = self.lease_ttl
            if now - heartbeat <= ttl:
                continue
            if self._is_terminal(key):
                self._clear_lease(key)  # finished but left debris
                continue
            try:
                os.rename(marker, self.pending_dir / key)
            except OSError:
                continue  # completed or requeued by someone else
            try:
                os.unlink(self.leases_dir / f"{key}.json")
            except OSError:
                pass
            requeued.append(key)
        return requeued

    # -- introspection ------------------------------------------------------
    def _count_dir(self, directory: Path, suffix: str = "") -> int:
        if not directory.is_dir():
            return 0
        return sum(
            1
            for name in os.listdir(directory)
            if not name.startswith(".") and name.endswith(suffix)
            and (suffix or not name.endswith(".json"))
        )

    def counts(self) -> QueueCounts:
        """How many jobs are pending / leased / done / failed."""
        return QueueCounts(
            pending=self._count_dir(self.pending_dir),
            leased=self._count_dir(self.leases_dir),
            done=self._count_dir(self.done_dir, ".json"),
            failed=self._count_dir(self.failed_dir, ".json"),
        )

    def failures(self) -> Dict[str, str]:
        """Terminal failures: job key -> error text."""
        failures: Dict[str, str] = {}
        if not self.failed_dir.is_dir():
            return failures
        for path in self.failed_dir.glob("*.json"):
            record = _read_json(path) or {}
            failures[path.stem] = str(record.get("error", "unknown error"))
        return failures

    def job_label(self, key: str) -> str:
        data = _read_json(self.jobs_dir / f"{key}.json")
        if data is None:
            return key[:12]
        try:
            return job_from_dict(data).label
        except (ValueError, KeyError, TypeError):
            return key[:12]


def queue_from_spec(spec: "QueueSpec | str") -> Optional[DirQueue]:
    """The queue a :class:`QueueSpec` names; ``None`` for ``local``."""
    spec = QueueSpec.coerce(spec)
    if spec.is_local:
        return None
    return DirQueue(spec.path, lease_ttl=spec.lease_ttl, spec=spec)
