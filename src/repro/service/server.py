"""HTTP front-end: the result store as a serving tier.

``repro serve`` exposes the content-addressed store and the sweep
machinery over plain HTTP -- stdlib only (``http.server`` threaded per
request), no new dependencies:

``GET /healthz``
    liveness + queue/store identity + the service counters; a ``dir``
    service also reports its queue's ``queue_counts`` (the ``local``
    backend has no queue to count).
``GET /result/<key>``
    one stored record, straight off disk; 404 on a miss.  Every hit
    bumps ``results_served`` -- repeat queries never re-simulate.
``POST /sweep``
    body = :meth:`~repro.engine.sweepspec.SweepSpec.to_dict` JSON.
    Submits the grid and returns ``{"sweep": <id>, ...}``.  With a
    ``dir`` queue the jobs go to the shared queue for remote workers;
    with the ``local`` backend the server runs them in a background
    thread through :func:`~repro.service.run.run_local_sweep`, the
    same runner as ``repro sweep``.  Submission is
    idempotent: the sweep id is content-addressed, and warm keys are
    never re-enqueued.
``GET /sweep/<id>``
    progress (stored/total, queue counts) and -- once complete -- the
    sweep's weighted-speedup table, computed purely from stored
    results (``table_store_reads`` counts the store lookups that built
    it; no simulation happens on this path).
"""

from __future__ import annotations

import json
import re
import threading
from dataclasses import asdict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple

from repro.engine.store import ResultStore
from repro.engine.sweepspec import SweepSpec
from repro.service.queue import DirQueue
from repro.service.run import run_local_sweep, submit_sweep

#: job keys are 64-hex engine keys; sweep ids are 16-hex prefixes.
_RESULT_RE = re.compile(r"^/result/([0-9a-f]{64})$")
_SWEEP_RE = re.compile(r"^/sweep/([0-9a-f]{16})$")


class SweepService:
    """The state behind the HTTP handlers (and directly testable).

    ``queue`` is the ``dir`` backend's :class:`DirQueue`, or ``None``
    for the ``local`` backend, whose sweeps run in this process with
    ``jobs`` workers and a per-job ``timeout``.
    """

    def __init__(
        self,
        store: ResultStore,
        queue: Optional[DirQueue] = None,
        jobs: int = 1,
        timeout: Optional[float] = None,
    ) -> None:
        self.store = store
        self.queue = queue
        self.jobs = jobs
        self.timeout = timeout
        self.counters: Dict[str, int] = {
            "results_served": 0,
            "result_misses": 0,
            "sweeps_submitted": 0,
            "jobs_enqueued": 0,
            "jobs_warm_on_submit": 0,
            "status_requests": 0,
            "tables_served": 0,
            "table_store_reads": 0,
        }
        self._lock = threading.Lock()
        # Local-backend bookkeeping: sweep id -> registry record, and
        # the background threads executing submitted grids.
        self._local_sweeps: Dict[str, Dict[str, object]] = {}
        self._local_errors: Dict[str, str] = {}
        self._threads: Dict[str, threading.Thread] = {}

    def _bump(self, counter: str, by: int = 1) -> None:
        with self._lock:
            self.counters[counter] += by

    @property
    def backend(self) -> str:
        """The queue spec string: the dir queue's, or ``local``."""
        return "local" if self.queue is None else str(self.queue.spec)

    # -- endpoints ---------------------------------------------------------
    def health(self) -> Dict[str, object]:
        with self._lock:
            counters = dict(self.counters)
        health: Dict[str, object] = {
            "status": "ok",
            "queue": self.backend,
            "store": str(self.store.root),
        }
        if self.queue is not None:
            health["queue_counts"] = asdict(self.queue.counts())
        health["counters"] = counters
        return health

    def result(self, key: str) -> Optional[Dict[str, object]]:
        record = self.store.get(key)
        if record is None:
            self._bump("result_misses")
            return None
        self._bump("results_served")
        return record

    def submit_sweep(self, payload: Dict[str, object]) -> Dict[str, object]:
        spec = SweepSpec.from_dict(payload)
        jobs = spec.jobs()
        sweep_id = spec.sweep_id()
        if self.queue is not None:
            receipt = submit_sweep(spec, self.queue, self.store)
            enqueued, warm = len(receipt.enqueued), len(receipt.warm)
        else:
            with self._lock:
                known = sweep_id in self._local_sweeps
                self._local_sweeps[sweep_id] = {
                    "id": sweep_id,
                    "spec": spec.to_dict(),
                    "keys": [job.key() for job in jobs],
                    "labels": [job.label for job in jobs],
                }
            warm = sum(
                1 for job in jobs if self.store.get(job.key()) is not None
            )
            enqueued = 0 if known else len(jobs) - warm
            if not known or not self._thread_alive(sweep_id):
                self._start_local(sweep_id, spec)
        self._bump("sweeps_submitted")
        self._bump("jobs_enqueued", enqueued)
        self._bump("jobs_warm_on_submit", warm)
        return {
            "sweep": sweep_id,
            "total": len(jobs),
            "enqueued": enqueued,
            "warm": warm,
        }

    def _thread_alive(self, sweep_id: str) -> bool:
        thread = self._threads.get(sweep_id)
        return thread is not None and thread.is_alive()

    def _start_local(self, sweep_id: str, spec: SweepSpec) -> None:
        """Run a local-backend sweep in the background via the engine."""

        def execute() -> None:
            try:
                run_local_sweep(
                    spec, self.store, jobs=self.jobs, timeout=self.timeout
                )
            except Exception as error:  # noqa: BLE001 - served via status
                with self._lock:
                    self._local_errors[sweep_id] = str(error)

        thread = threading.Thread(target=execute, daemon=True)
        self._threads[sweep_id] = thread
        thread.start()

    def _sweep_record(self, sweep_id: str) -> Optional[Dict[str, object]]:
        if self.queue is not None:
            return self.queue.sweep_record(sweep_id)
        with self._lock:
            return self._local_sweeps.get(sweep_id)

    def sweep_status(self, sweep_id: str) -> Optional[Dict[str, object]]:
        record = self._sweep_record(sweep_id)
        if record is None:
            return None
        self._bump("status_requests")
        spec = SweepSpec.from_dict(record["spec"])
        keys = list(record["keys"])
        stored = {
            key: self.store.get(key) for key in keys
        }
        self._bump("table_store_reads", len(keys))
        done = sum(1 for rec in stored.values() if rec is not None)
        failures = self.queue.failures() if self.queue is not None else {}
        with self._lock:
            local_error = self._local_errors.get(sweep_id)
        failed = {
            key: failures[key]
            for key in keys
            if key in failures and stored[key] is None
        }
        complete = done == len(keys)
        status: Dict[str, object] = {
            "id": sweep_id,
            "mode": spec.mode,
            "total": len(keys),
            "stored": done,
            "failed": len(failed),
            "complete": complete,
        }
        if failed:
            labels = dict(zip(record["keys"], record.get("labels", [])))
            status["failures"] = {
                labels.get(key, key): error.splitlines()[-1] if error else ""
                for key, error in failed.items()
            }
        if local_error and not complete:
            status["error"] = local_error
        if complete:
            jobs = spec.jobs()
            grid = spec.grid(
                {
                    job: job.decode(stored[job.key()]["result"])
                    for job in jobs
                }
            )
            status["table"] = spec.table(grid)
            self._bump("tables_served")
        return status


class _Handler(BaseHTTPRequestHandler):
    """Thin JSON routing over a :class:`SweepService`."""

    service: SweepService  # set by make_server on the subclass

    # -- plumbing ----------------------------------------------------------
    def _send(self, code: int, payload: Dict[str, object]) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # requests are the caller's business, not stderr's

    # -- routes ------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        if self.path == "/healthz":
            self._send(200, self.service.health())
            return
        match = _RESULT_RE.match(self.path)
        if match:
            record = self.service.result(match.group(1))
            if record is None:
                self._send(404, {"error": f"no result {match.group(1)}"})
            else:
                self._send(200, record)
            return
        match = _SWEEP_RE.match(self.path)
        if match:
            status = self.service.sweep_status(match.group(1))
            if status is None:
                self._send(404, {"error": f"no sweep {match.group(1)}"})
            else:
                self._send(200, status)
            return
        self._send(404, {"error": f"no route {self.path}"})

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        if self.path != "/sweep":
            self._send(404, {"error": f"no route {self.path}"})
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
            payload = json.loads(self.rfile.read(length) or b"{}")
        except (ValueError, TypeError):
            self._send(400, {"error": "body must be JSON"})
            return
        try:
            receipt = self.service.submit_sweep(payload)
        except (ValueError, KeyError, TypeError) as error:
            self._send(400, {"error": str(error)})
            return
        self._send(200, receipt)


def make_server(
    service: SweepService, host: str = "127.0.0.1", port: int = 0
) -> Tuple[ThreadingHTTPServer, int]:
    """Bind a threaded HTTP server; returns (server, actual port)."""
    handler = type("BoundHandler", (_Handler,), {"service": service})
    server = ThreadingHTTPServer((host, port), handler)
    return server, server.server_address[1]


def serve_forever(
    service: SweepService, host: str, port: int, announce=print
) -> None:  # pragma: no cover - interactive entry point
    server, bound_port = make_server(service, host, port)
    announce(
        f"repro serve: http://{host}:{bound_port} "
        f"(queue: {service.backend}, store: {service.store.root})"
    )
    announce(
        "endpoints: GET /healthz | GET /result/<key> | "
        "POST /sweep | GET /sweep/<id>"
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        announce("repro serve: shutting down")
    finally:
        server.server_close()
