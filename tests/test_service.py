"""Distributed sweep service: queue, workers, routing, HTTP front-end.

The load-bearing claims these tests pin down:

- dir-queue claims are exclusive under contention (atomic rename),
- leases from crashed workers expire and their jobs are requeued,
- a distributed sweep's store records and journal are field-for-field
  equal to a serial run's (on the semantic fields -- timestamps and
  worker ids necessarily differ),
- warm store keys are served as hits, never re-simulated, and
- every HTTP endpoint speaks the documented JSON.
"""

from __future__ import annotations

import json
import os
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.engine import ResultStore, SweepSpec, run_jobs
from repro.engine.journal import RunJournal
from repro.experiments.runner import ExperimentScale
from repro.service import (
    DirQueue,
    QueueSpec,
    SweepService,
    Worker,
    make_server,
    queue_from_spec,
    run_local_sweep,
    submit_sweep,
    wait_for_sweep,
)

TINY = ExperimentScale(llc_lines=128, warmup_factor=2, measure_factor=4, seed=9)


def tiny_spec() -> SweepSpec:
    return SweepSpec(
        workloads=("micro_stream", "micro_thrash"),
        policies=("lru", "rwp"),
        scale=TINY,
    )


class TestQueueFactory:
    def test_local(self):
        # The local backend runs in-process: there is no queue object.
        assert queue_from_spec("local") is None
        assert queue_from_spec(QueueSpec.make("local")) is None

    def test_dir(self, tmp_path):
        queue = queue_from_spec(f"dir:{tmp_path / 'q'}:ttl=7")
        assert isinstance(queue, DirQueue)
        assert queue.lease_ttl == 7.0

    def test_spec_strings_round_trip_through_the_factory(self, tmp_path):
        spec = QueueSpec.parse(f"dir:{tmp_path / 'q'}")
        assert queue_from_spec(spec).spec == spec


class TestDirQueue:
    def test_submit_is_idempotent(self, tmp_path):
        queue = DirQueue(tmp_path / "q")
        jobs = tiny_spec().jobs()
        first = queue.submit(jobs)
        assert len(first.enqueued) == len(jobs)
        second = queue.submit(jobs)
        assert second.enqueued == []
        assert len(second.pending) == len(jobs)
        assert queue.counts().pending == len(jobs)

    def test_warm_store_keys_are_not_enqueued(self, tmp_path):
        queue = DirQueue(tmp_path / "q")
        store = ResultStore(tmp_path / "store")
        jobs = tiny_spec().jobs()
        store.put(jobs[0].key(), jobs[0].kind, {"stub": True})
        receipt = queue.submit(jobs, store=store)
        assert receipt.warm == [jobs[0].key()]
        assert len(receipt.enqueued) == len(jobs) - 1

    def test_claims_are_exclusive_under_contention(self, tmp_path):
        queue = DirQueue(tmp_path / "q")
        jobs = tiny_spec().jobs()
        queue.submit(jobs)
        claimed, lock = [], threading.Lock()

        def grab(worker):
            while True:
                lease = queue.claim(worker)
                if lease is None:
                    return
                with lock:
                    claimed.append(lease.job_id)

        threads = [
            threading.Thread(target=grab, args=(f"w{i}",)) for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # Every job claimed exactly once, no duplicates, none lost.
        assert sorted(claimed) == sorted(job.key() for job in jobs)
        assert queue.counts().pending == 0
        assert queue.counts().leased == len(jobs)

    def test_complete_clears_the_lease(self, tmp_path):
        queue = DirQueue(tmp_path / "q")
        jobs = tiny_spec().jobs()[:1]
        queue.submit(jobs)
        lease = queue.claim("w0")
        queue.complete(lease, "ok", 0.25)
        counts = queue.counts()
        assert (counts.pending, counts.leased, counts.done) == (0, 0, 1)
        # Terminal jobs are not re-enqueued on resubmission.
        assert queue.submit(jobs).done == [jobs[0].key()]

    def test_failed_jobs_surface_their_error(self, tmp_path):
        queue = DirQueue(tmp_path / "q")
        jobs = tiny_spec().jobs()[:1]
        queue.submit(jobs)
        lease = queue.claim("w0")
        queue.complete(lease, "error", 0.0, error="boom\ntraceback tail")
        assert queue.counts().failed == 1
        assert queue.failures()[jobs[0].key()].endswith("traceback tail")

    def test_expired_lease_is_requeued(self, tmp_path):
        queue = DirQueue(tmp_path / "q", lease_ttl=0.05)
        jobs = tiny_spec().jobs()[:1]
        queue.submit(jobs)
        lease = queue.claim("doomed-worker")
        assert lease is not None
        assert queue.requeue_expired() == []  # still fresh
        time.sleep(0.08)  # the "worker" dies without heartbeating
        assert queue.requeue_expired() == [jobs[0].key()]
        assert queue.counts().pending == 1
        assert queue.counts().leased == 0
        assert queue.claim("rescuer") is not None  # claimable again

    def test_heartbeat_keeps_the_lease_alive(self, tmp_path):
        queue = DirQueue(tmp_path / "q", lease_ttl=0.1)
        jobs = tiny_spec().jobs()[:1]
        queue.submit(jobs)
        lease = queue.claim("w0")
        time.sleep(0.06)
        queue.heartbeat(lease)
        time.sleep(0.06)  # ttl exceeded since claim, not since heartbeat
        assert queue.requeue_expired() == []
        assert queue.counts().leased == 1

    def test_orphan_marker_without_metadata_is_recovered(self, tmp_path):
        # Claimer crashed between the rename and the metadata write:
        # only the bare marker exists, judged by its own mtime.
        queue = DirQueue(tmp_path / "q", lease_ttl=5.0)
        jobs = tiny_spec().jobs()[:1]
        queue.submit(jobs)
        key = jobs[0].key()
        os.rename(queue.pending_dir / key, queue.leases_dir / key)
        old = time.time() - 60
        os.utime(queue.leases_dir / key, (old, old))
        assert queue.requeue_expired() == [key]

    def test_unreadable_job_description_fails_instead_of_spinning(
        self, tmp_path
    ):
        queue = DirQueue(tmp_path / "q")
        jobs = tiny_spec().jobs()[:1]
        queue.submit(jobs)
        key = jobs[0].key()
        (queue.jobs_dir / f"{key}.json").write_text("not json")
        assert queue.claim("w0") is None
        assert queue.counts().failed == 1
        assert "unreadable" in queue.failures()[key]

    def test_sweep_registry_round_trips(self, tmp_path):
        queue = DirQueue(tmp_path / "q")
        spec = tiny_spec()
        record = queue.record_sweep(spec)
        assert queue.sweep_ids() == [spec.sweep_id()]
        loaded = queue.sweep_record(spec.sweep_id())
        assert loaded["keys"] == record["keys"]
        assert SweepSpec.from_dict(loaded["spec"]) == spec


def _semantic_records(store: ResultStore, keys):
    """Store records on the fields that must match across runs."""
    return {
        key: (store.get(key)["kind"], store.get(key)["result"])
        for key in keys
    }


class TestWorker:
    def test_single_worker_drain_matches_serial_field_for_field(
        self, tmp_path
    ):
        spec = tiny_spec()
        keys = [job.key() for job in spec.jobs()]

        serial_store = ResultStore(tmp_path / "serial")
        serial_journal = RunJournal(tmp_path / "serial.jsonl")
        run_jobs(spec.jobs(), store=serial_store, journal=serial_journal)

        queue = DirQueue(tmp_path / "q")
        dist_store = ResultStore(tmp_path / "dist")
        queue.submit(spec.jobs(), store=dist_store)
        stats = Worker(queue, dist_store, worker_id="w0").run(drain=True)

        assert stats.simulated == len(keys)
        assert stats.failed == 0
        assert _semantic_records(dist_store, keys) == _semantic_records(
            serial_store, keys
        )
        # Same journal on the semantic fields, plus the worker identity.
        serial_entries = {
            (e.key, e.label, e.status) for e in serial_journal.entries()
        }
        dist_entries = {
            (e.key, e.label, e.status) for e in queue.journal.entries()
        }
        assert dist_entries == serial_entries
        assert all(e.worker == "w0" for e in queue.journal.entries())

    def test_warm_keys_are_hits_not_resimulations(self, tmp_path):
        spec = tiny_spec()
        store = ResultStore(tmp_path / "store")
        run_jobs(spec.jobs(), store=store)  # warm everything
        before = _semantic_records(store, [j.key() for j in spec.jobs()])

        queue = DirQueue(tmp_path / "q")
        queue.submit(spec.jobs())  # no store passed: all jobs enqueue
        stats = Worker(queue, store, worker_id="w0").run(drain=True)
        assert stats.hits == len(spec.jobs())
        assert stats.simulated == 0
        assert (
            _semantic_records(store, [j.key() for j in spec.jobs()]) == before
        )

    def test_two_workers_split_the_queue_and_agree_with_serial(
        self, tmp_path
    ):
        spec = tiny_spec()
        keys = [job.key() for job in spec.jobs()]

        serial_store = ResultStore(tmp_path / "serial")
        run_jobs(spec.jobs(), store=serial_store)

        queue = DirQueue(tmp_path / "q")
        store = ResultStore(tmp_path / "dist")
        queue.submit(spec.jobs(), store=store)
        workers = [
            Worker(queue, store, worker_id=f"w{i}", poll_interval=0.01)
            for i in range(2)
        ]
        results = {}

        def drain(worker):
            results[worker.worker_id] = worker.run(drain=True)

        threads = [
            threading.Thread(target=drain, args=(w,)) for w in workers
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        total_claimed = sum(s.claimed for s in results.values())
        assert total_claimed == len(keys)
        assert sum(s.failed for s in results.values()) == 0
        assert queue.counts().done == len(keys)
        assert _semantic_records(store, keys) == _semantic_records(
            serial_store, keys
        )
        # The journal names whichever worker ran each job.
        workers_seen = {e.worker for e in queue.journal.entries()}
        assert workers_seen <= {"w0", "w1"}

    def test_killed_workers_jobs_are_rescued(self, tmp_path):
        spec = tiny_spec()
        queue = DirQueue(tmp_path / "q", lease_ttl=0.05)
        store = ResultStore(tmp_path / "store")
        queue.submit(spec.jobs(), store=store)
        # A worker claims one job and dies without heartbeat or result.
        assert queue.claim("crashed-worker") is not None
        time.sleep(0.08)
        stats = Worker(
            queue, store, worker_id="rescuer", poll_interval=0.01
        ).run(drain=True)
        assert stats.requeued >= 1
        assert queue.counts().done == len(spec.jobs())
        assert all(store.get(job.key()) for job in spec.jobs())

    def test_failing_job_is_journaled_and_reported(self, tmp_path):
        from repro.engine.jobs import RunJob

        queue = DirQueue(tmp_path / "q")
        store = ResultStore(tmp_path / "store")
        bad = RunJob("no_such_benchmark", "lru", TINY)
        queue.submit([bad])
        stats = Worker(queue, store, worker_id="w0", retries=0).run(
            drain=True
        )
        assert stats.failed == 1
        assert store.get(bad.key()) is None
        assert bad.key() in queue.failures()
        entries = queue.journal.entries()
        assert [e.status for e in entries] == ["error"]

    def test_max_jobs_bounds_the_loop(self, tmp_path):
        spec = tiny_spec()
        queue = DirQueue(tmp_path / "q")
        store = ResultStore(tmp_path / "store")
        queue.submit(spec.jobs(), store=store)
        stats = Worker(queue, store, worker_id="w0").run(max_jobs=1)
        assert stats.claimed == 1
        assert queue.counts().done == 1


class TestSweepRouting:
    def test_submit_then_worker_then_wait_matches_serial(self, tmp_path):
        spec = tiny_spec()
        serial = run_jobs(spec.jobs(), store=ResultStore(tmp_path / "s"))

        queue = DirQueue(tmp_path / "q")
        store = ResultStore(tmp_path / "dist")
        receipt = submit_sweep(spec, queue, store)
        assert len(receipt.enqueued) == len(spec.jobs())
        assert queue.sweep_ids() == [spec.sweep_id()]

        worker = threading.Thread(
            target=lambda: Worker(
                queue, store, worker_id="w0", poll_interval=0.01
            ).run(drain=True)
        )
        worker.start()
        outcome = wait_for_sweep(spec, queue, store, poll=0.02, timeout=60)
        worker.join()

        assert outcome.stats.total == len(spec.jobs())
        assert outcome.stats.simulated == len(spec.jobs())
        for job in spec.jobs():
            assert (
                outcome.results[job].to_dict()
                == serial.results[job].to_dict()
            )
        # The two tables -- the actual deliverable -- are identical.
        assert spec.table(spec.grid(outcome.results)) == spec.table(
            spec.grid(serial.results)
        )

    def test_wait_times_out_with_a_helpful_message(self, tmp_path):
        from repro.engine import SweepError

        spec = tiny_spec()
        queue = DirQueue(tmp_path / "q")
        store = ResultStore(tmp_path / "store")
        submit_sweep(spec, queue, store)
        with pytest.raises(SweepError, match="is a worker running"):
            wait_for_sweep(spec, queue, store, poll=0.01, timeout=0.05)

    def test_wait_raises_on_worker_failures(self, tmp_path):
        from repro.engine import SweepError
        from repro.engine.jobs import RunJob

        spec = tiny_spec()
        queue = DirQueue(tmp_path / "q")
        store = ResultStore(tmp_path / "store")
        submit_sweep(spec, queue, store)
        # Poison one of the sweep's own jobs with a failure record.
        bad_key = spec.jobs()[0].key()
        lease = None
        while True:
            lease = queue.claim("w0")
            if lease is None or lease.job_id == bad_key:
                break
            queue.complete(lease, "ok")  # not stored: irrelevant here
        queue.complete(lease, "error", error="RuntimeError: kaboom")
        with pytest.raises(SweepError, match="kaboom"):
            wait_for_sweep(spec, queue, store, poll=0.01, timeout=5)


class TestLocalSweep:
    def test_journals_under_the_sweep_name_and_matches_run_jobs(
        self, tmp_path
    ):
        spec = tiny_spec()
        store = ResultStore(tmp_path / "store")
        outcome = run_local_sweep(spec, store)
        journal = RunJournal(store.journals_dir / spec.journal_name())
        assert sorted(entry.key for entry in journal.entries()) == sorted(
            job.key() for job in spec.jobs()
        )
        serial = run_jobs(spec.jobs())
        assert spec.table(spec.grid(outcome.results)) == spec.table(
            spec.grid(serial.results)
        )
        # A second run of the same grid is served from the store.
        again = run_local_sweep(spec, store)
        assert again.stats.cache_hits == len(spec.jobs())

    def test_explicit_journal_and_no_store(self, tmp_path):
        spec = tiny_spec()
        path = tmp_path / "mine.jsonl"
        run_local_sweep(spec, None, journal=path)
        assert len(RunJournal(path).entries()) == len(spec.jobs())


@pytest.fixture
def http_service(tmp_path):
    """A threaded server over a local-backend service; yields (base, svc)."""
    store = ResultStore(tmp_path / "store")
    service = SweepService(store, jobs=1)
    server, port = make_server(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{port}", service
    finally:
        server.shutdown()
        server.server_close()


def _get(url):
    with urllib.request.urlopen(url) as response:
        return response.status, json.loads(response.read())


def _post(url, payload):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request) as response:
        return response.status, json.loads(response.read())


class TestHTTP:
    def test_healthz(self, http_service):
        base, _ = http_service
        status, body = _get(base + "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["queue"] == "local"
        assert "queue_counts" not in body
        assert "results_served" in body["counters"]

    def test_sweep_lifecycle_and_result_endpoint(self, http_service):
        base, service = http_service
        spec = tiny_spec()
        status, receipt = _post(base + "/sweep", spec.to_dict())
        assert status == 200
        assert receipt["sweep"] == spec.sweep_id()
        assert receipt["total"] == len(spec.jobs())

        deadline = time.time() + 60
        while True:
            status, progress = _get(f"{base}/sweep/{receipt['sweep']}")
            assert status == 200
            if progress["complete"]:
                break
            assert time.time() < deadline, "sweep never completed"
            time.sleep(0.05)

        table = progress["table"]
        assert table["columns"] == ["benchmark", "lru", "rwp"]
        assert [row[0] for row in table["rows"]] == [
            "micro_stream", "micro_thrash", "GEOMEAN",
        ]
        # Baseline column is exactly 1.0 for every benchmark row.
        assert all(row[1] == 1.0 for row in table["rows"])

        key = spec.jobs()[0].key()
        status, record = _get(f"{base}/result/{key}")
        assert status == 200
        assert record["key"] == key
        assert record["kind"] == "run"

        # The local backend has no queue to count, before or after a
        # sweep; the sweep ran through the same runner as `repro
        # sweep`: one journal line per job under its own journal name.
        _, health = _get(base + "/healthz")
        assert health["queue"] == "local"
        assert "queue_counts" not in health
        journal = RunJournal(
            service.store.journals_dir / spec.journal_name()
        )
        for _ in range(100):  # the last line lands just after the store
            if len(journal.entries()) == len(spec.jobs()):
                break
            time.sleep(0.05)
        assert len(journal.entries()) == len(spec.jobs())

    def test_resubmission_is_all_warm_no_resimulation(self, http_service):
        base, service = http_service
        spec = tiny_spec()
        _post(base + "/sweep", spec.to_dict())
        deadline = time.time() + 60
        while not _get(f"{base}/sweep/{spec.sweep_id()}")[1]["complete"]:
            assert time.time() < deadline
            time.sleep(0.05)

        simulated_before = service.counters["jobs_enqueued"]
        status, receipt = _post(base + "/sweep", spec.to_dict())
        assert status == 200
        assert receipt["warm"] == len(spec.jobs())
        assert receipt["enqueued"] == 0
        # The proof nothing re-ran: the enqueue counter did not move.
        assert service.counters["jobs_enqueued"] == simulated_before
        assert service.counters["jobs_warm_on_submit"] >= len(spec.jobs())

    def test_result_miss_is_404(self, http_service):
        base, _ = http_service
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{base}/result/{'0' * 64}")
        assert excinfo.value.code == 404

    def test_unknown_sweep_is_404(self, http_service):
        base, _ = http_service
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{base}/sweep/{'0' * 16}")
        assert excinfo.value.code == 404

    def test_unknown_route_is_404(self, http_service):
        base, _ = http_service
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{base}/nope")
        assert excinfo.value.code == 404

    def test_bad_sweep_spec_is_400(self, http_service):
        base, _ = http_service
        for payload in (
            {"mode": "bogus", "workloads": ["mcf"], "policies": ["lru"]},
            {"workloads": ["mcf"], "policies": []},
        ):
            request = urllib.request.Request(
                base + "/sweep",
                data=json.dumps(payload).encode(),
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request)
            assert excinfo.value.code == 400

    def test_non_json_body_is_400(self, http_service):
        base, _ = http_service
        request = urllib.request.Request(
            base + "/sweep",
            data=b"this is not json",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400

    def test_dir_backend_service_reports_queue_progress(self, tmp_path):
        """The server over a dir queue: submit, drain externally, read."""
        store = ResultStore(tmp_path / "store")
        queue = DirQueue(tmp_path / "q")
        service = SweepService(store, queue)
        spec = tiny_spec()
        total = len(spec.jobs())

        receipt = service.submit_sweep(spec.to_dict())
        assert receipt["enqueued"] == total
        progress = service.sweep_status(spec.sweep_id())
        assert progress["complete"] is False
        assert progress["stored"] == 0
        health = service.health()
        assert health["queue"] == str(queue.spec)
        assert health["queue_counts"] == {
            "pending": total, "leased": 0, "done": 0, "failed": 0,
        }

        Worker(queue, store, worker_id="w0", poll_interval=0.01).run(
            drain=True
        )
        progress = service.sweep_status(spec.sweep_id())
        assert progress["complete"] is True
        assert progress["stored"] == total
        assert progress["table"]["columns"] == ["benchmark", "lru", "rwp"]
        assert service.health()["queue_counts"] == {
            "pending": 0, "leased": 0, "done": total, "failed": 0,
        }
