#!/usr/bin/env python
"""End-to-end smoke test of the sweep service (CI `service`).

Spins up both server topologies as real subprocesses and drives each
like a remote client:

* ``dir``: two ``repro worker`` processes and one ``repro serve``
  front-end over a shared dir queue and result store;
* ``local``: one ``repro serve --backend local`` that runs the sweep
  in-process.

For each it

1. POSTs a small sweep grid to the server,
2. polls ``GET /sweep/<id>`` until the sweep completes,
3. asserts the served weighted-speedup table matches an in-process
   serial run of the identical grid (the served == serial contract),
4. asserts ``GET /result/<key>`` serves every stored record, and
5. asserts ``GET /healthz`` reports queue counts for the dir queue
   (every job done) and none for the local backend, which has no queue.

Exit status 0 means the service stack works end to end.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = str(REPO / "src")

#: small enough to finish in seconds, big enough to split across workers.
SWEEP = {
    "mode": "single",
    "workloads": ["micro_stream", "micro_thrash", "mcf"],
    "policies": ["lru", "rwp"],
    "scale": {
        "llc_lines": 256,
        "ways": 16,
        "warmup_factor": 2,
        "measure_factor": 6,
        "seed": 2014,
    },
}


def repro(*argv: str, **popen_kwargs) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *argv],
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
        **popen_kwargs,
    )


def get_json(url: str):
    with urllib.request.urlopen(url, timeout=10) as response:
        return json.loads(response.read())


def wait_for_server(base: str, deadline: float) -> None:
    while time.time() < deadline:
        try:
            if get_json(base + "/healthz")["status"] == "ok":
                return
        except (urllib.error.URLError, OSError):
            time.sleep(0.2)
    raise SystemExit("server never became healthy")


def serial_table() -> dict:
    sys.path.insert(0, SRC)
    from repro.engine import ResultStore, SweepSpec, run_jobs

    spec = SweepSpec.from_dict(SWEEP)
    with tempfile.TemporaryDirectory() as tmp:
        outcome = run_jobs(spec.jobs(), store=ResultStore(tmp))
    return spec.table(spec.grid(outcome.results))


def serve_sweep(base: str, backend: str, expected: dict) -> dict:
    """Submit, poll to completion, check table and results; returns
    ``/healthz``."""
    wait_for_server(base, time.time() + 30)
    body = json.dumps(SWEEP).encode()
    request = urllib.request.Request(
        base + "/sweep", data=body,
        headers={"Content-Type": "application/json"},
    )
    receipt = json.loads(urllib.request.urlopen(request, timeout=10).read())
    sweep_id = receipt["sweep"]
    total = receipt["total"]
    print(f"submitted sweep {sweep_id}: {total} jobs -> {backend}")

    deadline = time.time() + 240
    while True:
        status = get_json(f"{base}/sweep/{sweep_id}")
        print(
            f"  {status['stored']}/{status['total']} stored, "
            f"failed: {status['failed']}"
        )
        if status.get("failed") or status.get("error"):
            raise SystemExit(
                f"{backend} failures: {status.get('failures')} "
                f"{status.get('error', '')}"
            )
        if status["complete"]:
            break
        if time.time() > deadline:
            raise SystemExit(f"{backend} sweep never completed")
        time.sleep(1.0)

    served = status["table"]
    if served != expected:
        print("served table:", json.dumps(served, indent=2))
        print("serial table:", json.dumps(expected, indent=2))
        raise SystemExit(f"{backend} table != serial table")
    print(f"{backend}: table matches the in-process serial run")

    # Every job's record is served straight from the store.
    from repro.engine import SweepSpec  # path set by serial_table

    for job in SweepSpec.from_dict(SWEEP).jobs():
        record = get_json(f"{base}/result/{job.key()}")
        assert record["key"] == job.key(), record
    print(f"{backend}: all {total} results served via GET /result/<key>")

    health = get_json(base + "/healthz")
    print("counters:", json.dumps(health["counters"]))
    return health


def stop(processes, timeout: float) -> None:
    for process in processes:
        process.terminate()
    for process in processes:
        process.wait(timeout=timeout)


def main() -> int:
    expected = serial_table()
    total = len(SWEEP["workloads"]) * len(SWEEP["policies"])
    with tempfile.TemporaryDirectory() as tmp:
        queue_root = f"{tmp}/queue"
        store_root = f"{tmp}/store"
        backend = f"dir:{queue_root}"

        workers = [
            repro(
                "worker", "--backend", backend, "--store", store_root,
                "--id", f"smoke-w{i}", "--idle-timeout", "120",
            )
            for i in range(2)
        ]
        server = repro(
            "serve", "--backend", backend, "--store", store_root,
            "--host", "127.0.0.1", "--port", "8713",
        )
        try:
            base = "http://127.0.0.1:8713"
            counts = serve_sweep(base, backend, expected)["queue_counts"]
            # A worker marks its lease done just after storing the result.
            deadline = time.time() + 30
            while counts["done"] != total and time.time() < deadline:
                time.sleep(0.2)
                counts = get_json(base + "/healthz")["queue_counts"]
            if counts != {"pending": 0, "leased": 0, "done": total,
                          "failed": 0}:
                raise SystemExit(f"dir queue counts after the sweep: {counts}")
            print(f"dir: /healthz queue counts {counts}")
        finally:
            stop([server], 10)
            stop(workers, 30)

        server = repro(
            "serve", "--backend", "local", "--store", f"{tmp}/local-store",
            "--host", "127.0.0.1", "--port", "8714",
        )
        try:
            health = serve_sweep("http://127.0.0.1:8714", "local", expected)
            if health["queue"] != "local" or "queue_counts" in health:
                raise SystemExit(f"local /healthz names a queue: {health}")
            print("local: /healthz reports no queue")
        finally:
            stop([server], 10)
    print("service smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
