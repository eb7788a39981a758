"""Tests for the execution engine: keys, store, journal, executor,
serialization round-trips, and the serial/parallel determinism guard."""

import dataclasses
import json
import time
from dataclasses import dataclass, field
from typing import ClassVar, Dict

import pytest

from repro.common.jsonutil import from_jsonable, to_jsonable
from repro.cpu.core import RunResult
from repro.engine import (
    MixJob,
    ProgressReporter,
    ResultStore,
    RunJob,
    RunJournal,
    SweepError,
    code_version,
    run_jobs,
)
from repro.experiments.multicore_exp import MixResult
from repro.experiments.runner import ExperimentScale, run_benchmark, run_grid

TINY = ExperimentScale(llc_lines=256, warmup_factor=4, measure_factor=8)


def sample_result(**overrides) -> RunResult:
    fields = dict(
        name="bench",
        policy="LRUPolicy",
        instructions=1000,
        cycles=1234.5,
        ipc=0.81,
        llc_read_hits=10,
        llc_read_misses=20,
        llc_write_hits=30,
        llc_write_misses=40,
        llc_writebacks=5,
        llc_bypasses=6,
        read_stall_cycles=100.0,
        write_stall_cycles=50.0,
        extra={"nested": {"values": [1, 2.5, "x"]}, "pair": (1, 2)},
    )
    fields.update(overrides)
    return RunResult(**fields)


class TestJsonUtil:
    def test_tuple_round_trip(self):
        value = {"a": (1, 2, (3, "x")), "b": [1, (2.5, None)]}
        assert from_jsonable(to_jsonable(value)) == value

    def test_encoded_form_is_pure_json(self):
        blob = json.dumps(to_jsonable({"t": (1, 2)}))
        assert from_jsonable(json.loads(blob)) == {"t": (1, 2)}

    def test_unknown_type_raises(self):
        with pytest.raises(TypeError):
            to_jsonable({"bad": object()})

    def test_non_string_key_raises(self):
        with pytest.raises(TypeError):
            to_jsonable({1: "x"})

    def test_reserved_key_raises(self):
        with pytest.raises(TypeError):
            to_jsonable({"__tuple__": [1]})


class TestRunResultSerialization:
    def test_exact_round_trip_including_extra(self):
        result = sample_result()
        restored = RunResult.from_dict(result.to_dict())
        assert restored == result
        assert restored.extra["pair"] == (1, 2)

    def test_round_trip_through_json_text(self):
        result = sample_result()
        blob = json.dumps(result.to_dict())
        assert RunResult.from_dict(json.loads(blob)) == result

    def test_real_simulation_round_trip(self):
        result = run_benchmark("micro_fit", "rwp", TINY)
        assert RunResult.from_dict(json.loads(json.dumps(result.to_dict()))) == result

    def test_mix_result_round_trip(self):
        mix = MixResult("m", "lru", 3.1, 0.9, 2.2, 0.8, (1.0, 0.5, 0.25, 0.125))
        restored = MixResult.from_dict(json.loads(json.dumps(mix.to_dict())))
        assert restored == mix
        assert isinstance(restored.per_core_ipc, tuple)


class TestKeys:
    def test_key_is_stable(self):
        assert RunJob("mcf", "rwp", TINY).key() == RunJob("mcf", "rwp", TINY).key()

    @pytest.mark.parametrize(
        "other",
        [
            RunJob("soplex", "rwp", TINY),  # benchmark
            RunJob("mcf", "lru", TINY),  # policy
            RunJob("mcf", "rwp", dataclasses.replace(TINY, llc_lines=512)),
            RunJob("mcf", "rwp", dataclasses.replace(TINY, measure_factor=16)),
            RunJob("mcf", "rwp", dataclasses.replace(TINY, seed=999)),
            RunJob("mcf", "rwp", TINY, llc_lines=512),  # geometry override
            RunJob("mcf", "rwp", TINY, ways=8),
        ],
    )
    def test_key_changes_with_any_input(self, other):
        assert RunJob("mcf", "rwp", TINY).key() != other.key()

    def test_mix_key_differs_from_run_key(self):
        assert MixJob("m", "rwp", TINY).key() != RunJob("m", "rwp", TINY).key()

    def test_code_version_shape(self):
        assert len(code_version()) == 16
        assert code_version() == code_version()

    def test_code_version_digests_the_kernel_source(self, tmp_path, monkeypatch):
        # An edit to the native kernel's C source must re-key every job,
        # as any .py edit does, or the store serves the old verdicts.
        import repro

        kernels = tmp_path / "repro" / "kernels"
        kernels.mkdir(parents=True)
        (tmp_path / "repro" / "__init__.py").write_text("")
        source = kernels / "native_src.c"
        source.write_text("int lane_loop(void);\n")
        monkeypatch.setattr(repro, "__file__", str(tmp_path / "repro" / "__init__.py"))
        code_version.cache_clear()
        try:
            before = code_version()
            source.write_text("int lane_loop(void); /* edited */\n")
            code_version.cache_clear()
            assert code_version() != before
        finally:
            code_version.cache_clear()


class TestResultStore:
    def test_round_trip_equals_in_memory(self, tmp_path):
        store = ResultStore(tmp_path)
        result = run_benchmark("micro_fit", "lru", TINY)
        job = RunJob("micro_fit", "lru", TINY)
        store.put(job.key(), job.kind, job.encode(result))
        record = store.get(job.key())
        assert record["kind"] == "run"
        assert job.decode(record["result"]) == result

    def test_record_file_is_json_dumps_of_the_record(self, tmp_path):
        store = ResultStore(tmp_path)
        job = RunJob("micro_fit", "lru", TINY)
        data = job.encode(sample_result(extra={"name": "café", "x": 0.1}))
        path = store.put(job.key(), job.kind, data)
        record = store.get(job.key())
        assert record["result"] == data
        assert path.read_bytes() == json.dumps(record).encode("ascii")

    def test_miss_returns_none(self, tmp_path):
        assert ResultStore(tmp_path).get("00" + "ab" * 31) is None

    def test_corrupt_record_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        job = RunJob("micro_fit", "lru", TINY)
        path = store.put(job.key(), job.kind, {"name": "x"})
        path.write_text("{not json")
        assert store.get(job.key()) is None

    def test_len_and_clear(self, tmp_path):
        store = ResultStore(tmp_path)
        assert len(store) == 0
        for policy in ("lru", "dip"):
            job = RunJob("micro_fit", policy, TINY)
            store.put(job.key(), job.kind, {"name": policy})
        assert len(store) == 2
        store.clear()
        assert len(store) == 0


class TestCacheHits:
    def test_second_run_is_all_hits(self, tmp_path):
        store = ResultStore(tmp_path)
        jobs = [RunJob("micro_fit", p, TINY) for p in ("lru", "dip", "rwp")]
        cold = run_jobs(jobs, store=store)
        assert cold.stats.simulated == 3
        assert cold.stats.cache_hits == 0
        warm = run_jobs(jobs, store=store)
        assert warm.stats.simulated == 0
        assert warm.stats.cache_hits == 3
        assert warm.results == cold.results

    def test_run_benchmark_store_write_through(self, tmp_path):
        store = ResultStore(tmp_path)
        first = run_benchmark("micro_stream", "lru", TINY, store=store)
        assert len(store) == 1
        assert run_benchmark("micro_stream", "lru", TINY, store=store) == first


class TestJournal:
    def test_entries_round_trip(self, tmp_path):
        journal = RunJournal(tmp_path / "j.jsonl")
        journal.append("k1", "a/lru", "ok", 1.25)
        journal.append("k2", "a/dip", "error", 0.0)
        journal.append("k3", "a/rwp", "hit", 0.0)
        entries = journal.entries()
        assert [e.key for e in entries] == ["k1", "k2", "k3"]
        assert entries[0].wall_seconds == 1.25
        assert journal.completed_keys() == {"k1", "k3"}

    def test_torn_line_is_skipped(self, tmp_path):
        journal = RunJournal(tmp_path / "j.jsonl")
        journal.append("k1", "a/lru", "ok", 0.5)
        with journal.path.open("a") as handle:
            handle.write('{"key": "k2", "status": "o')  # crash mid-write
        assert journal.completed_keys() == {"k1"}

    def test_missing_file_reads_as_empty(self, tmp_path):
        journal = RunJournal(tmp_path / "never-written.jsonl")
        assert journal.entries() == []
        assert journal.completed_keys() == set()

    def test_empty_file_reads_as_empty(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.touch()  # crash before the first append flushed anything
        journal = RunJournal(path)
        assert journal.entries() == []
        assert journal.completed_keys() == set()

    def test_entirely_corrupt_journal_reads_as_empty(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text("not json\n[1, 2]\n{\"status\": \"ok\"}\n")
        journal = RunJournal(path)  # valid JSON but no "key" also skipped
        assert journal.entries() == []
        assert journal.completed_keys() == set()

    def test_corrupt_mid_file_line_is_skipped_not_fatal(self, tmp_path):
        # A crash-truncated line that later appends merged into, or bit
        # rot, mid-file: the surrounding intact lines must still parse.
        journal = RunJournal(tmp_path / "j.jsonl")
        journal.append("k1", "a/lru", "ok", 0.5)
        with journal.path.open("a") as handle:
            handle.write('{"key": "k2", "status": }garbled{\n')
        journal.append("k3", "a/rwp", "ok", 0.2)
        entries = journal.entries()
        assert [e.key for e in entries] == ["k1", "k3"]
        assert journal.completed_keys() == {"k1", "k3"}

    def test_torn_multibyte_utf8_tail_is_dropped(self, tmp_path):
        # A crash can split a multi-byte UTF-8 sequence; the torn tail
        # must read as a partial line, not a decode crash.
        journal = RunJournal(tmp_path / "j.jsonl")
        journal.append("k1", "a/lru", "ok", 0.5)
        with journal.path.open("ab") as handle:
            payload = '{"key": "k2", "label": "émile'.encode("utf-8")
            handle.write(payload[:-1])  # cut inside the é... literal
        assert journal.completed_keys() == {"k1"}
        # The next append merges into the torn physical line (and is
        # sacrificed with it), but the one after that is intact.
        journal.append("k3", "a/rwp", "hit", 0.0)
        journal.append("k4", "a/dip", "ok", 0.1)
        assert journal.completed_keys() == {"k1", "k4"}

    def test_worker_field_round_trips_and_stays_optional(self, tmp_path):
        journal = RunJournal(tmp_path / "j.jsonl")
        journal.append("k1", "a/lru", "ok", 0.5)
        journal.append("k2", "a/rwp", "ok", 0.5, worker="host-42")
        entries = journal.entries()
        assert entries[0].worker == ""
        assert entries[1].worker == "host-42"
        # Lines without a worker carry no "worker" field at all, so
        # pre-service journals and new ones are byte-compatible.
        first_line = json.loads(
            journal.path.read_text().splitlines()[0]
        )
        assert "worker" not in first_line

    def test_append_after_torn_line_still_recovers(self, tmp_path):
        journal = RunJournal(tmp_path / "j.jsonl")
        with journal.path.parent.joinpath("j.jsonl").open("w") as handle:
            handle.write('{"key": "k1", "status"')  # torn, no newline
        journal.append("k2", "a/rwp", "ok", 0.1)
        # The torn line swallows k2's record (they share a physical line),
        # but the journal stays parseable and the next append is intact.
        journal.append("k3", "a/lru", "hit", 0.0)
        assert journal.completed_keys() == {"k3"}

    def test_resume_after_interrupt(self, tmp_path):
        """A sweep killed partway through picks up where it left off."""
        store = ResultStore(tmp_path)
        journal = RunJournal(tmp_path / "sweep.jsonl")
        benches = ["micro_fit", "micro_stream", "micro_dead_writes"]
        policies = ["lru", "dip", "rwp"]
        all_jobs = [RunJob(b, p, TINY) for b in benches for p in policies]

        # "Interrupt": only the first 4 jobs completed before the crash.
        run_jobs(all_jobs[:4], store=store, journal=journal)
        assert len(journal.completed_keys()) == 4

        resumed = run_jobs(all_jobs, store=store, journal=journal)
        assert resumed.stats.total == 9
        assert resumed.stats.simulated == 5
        assert resumed.stats.cache_hits == 4
        assert resumed.stats.resumed == 4
        assert len(resumed.results) == 9


@dataclass(frozen=True)
class FlakyJob:
    """Fails ``failures`` times (tracked via a flag dir), then succeeds."""

    flag_dir: str
    failures: int = 1

    kind: ClassVar[str] = "flaky"
    label: ClassVar[str] = "flaky/job"

    def key(self) -> str:
        return "f" * 64

    def execute(self) -> str:
        from pathlib import Path

        marks = list(Path(self.flag_dir).glob("attempt-*"))
        (Path(self.flag_dir) / f"attempt-{len(marks)}").touch()
        if len(marks) < self.failures:
            raise RuntimeError("transient failure")
        return "ok"

    @staticmethod
    def encode(result) -> Dict[str, object]:
        return {"value": result}

    @staticmethod
    def decode(data):
        return data["value"]


@dataclass(frozen=True)
class SleepJob:
    """Sleeps long enough to trip any sub-second timeout."""

    seconds: float = 5.0

    kind: ClassVar[str] = "sleep"
    label: ClassVar[str] = "sleep/job"

    def key(self) -> str:
        return "5" * 64

    def execute(self) -> str:
        time.sleep(self.seconds)
        return "done"

    @staticmethod
    def encode(result):
        return {"value": result}

    @staticmethod
    def decode(data):
        return data["value"]


class TestRetryAndTimeout:
    def test_one_retry_recovers_transient_failure(self, tmp_path):
        outcome = run_jobs([FlakyJob(str(tmp_path), failures=1)])
        assert list(outcome.results.values()) == ["ok"]
        assert outcome.stats.retried == 1
        assert outcome.stats.failed == 0

    def test_persistent_failure_raises_sweep_error(self, tmp_path):
        with pytest.raises(SweepError, match="transient failure"):
            run_jobs([FlakyJob(str(tmp_path), failures=5)])

    def test_timeout_kills_runaway_job(self, tmp_path):
        started = time.perf_counter()
        with pytest.raises(SweepError, match="exceeded"):
            run_jobs([SleepJob(5.0)], timeout=0.2)
        assert time.perf_counter() - started < 3.0


class TestDeterminismGuard:
    def test_parallel_grid_equals_serial_field_for_field(self):
        """4 workers, 3 benchmarks x 3 policies: bit-identical results."""
        scale = ExperimentScale(
            llc_lines=256, warmup_factor=4, measure_factor=8, seed=77
        )
        benches = ["micro_fit", "micro_stream", "micro_dead_writes"]
        policies = ["lru", "dip", "rwp"]
        # Parallel first: workers simulate these (benchmark, policy, seed)
        # cells cold, before the parent's in-process memo ever sees them.
        parallel = run_grid(benches, policies, scale, jobs=4)
        serial = run_grid(benches, policies, scale)
        assert set(parallel) == set(serial)
        for cell, serial_result in serial.items():
            parallel_result = parallel[cell]
            for field_def in dataclasses.fields(RunResult):
                assert getattr(parallel_result, field_def.name) == getattr(
                    serial_result, field_def.name
                ), f"{cell}.{field_def.name} differs"

    def test_parallel_store_matches_serial(self, tmp_path):
        benches = ["micro_fit", "micro_stream"]
        policies = ["lru", "rwp"]
        stored = run_grid(
            benches, policies, TINY, jobs=2, store=ResultStore(tmp_path)
        )
        # Decode-from-store on the warm pass must equal the serial path too.
        warm = run_grid(benches, policies, TINY, store=ResultStore(tmp_path))
        serial = run_grid(benches, policies, TINY)
        assert stored == serial
        assert warm == serial


class TestProgressReporting:
    def test_run_grid_progress_goes_to_stderr(self, capsys):
        run_grid(["micro_fit"], ["lru"], TINY, progress=True)
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "micro_fit/lru" in captured.err
        assert "sweep: 1 jobs" in captured.err

    def test_reporter_counts_and_summary(self):
        import io

        stream = io.StringIO()
        reporter = ProgressReporter(total=2, stream=stream)
        jobs = [RunJob("micro_fit", p, TINY) for p in ("lru", "dip")]
        outcome = run_jobs(jobs, progress=reporter)
        text = stream.getvalue()
        assert "[1/2]" in text and "[2/2]" in text
        assert "ipc=" in text
        assert "2 simulated" in text
        assert outcome.stats.total == 2
