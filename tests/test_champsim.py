"""Unit tests for the ChampSim trace interchange format."""

import struct

import pytest

from repro.trace.access import Trace
from repro.trace.ingest import (
    RECORD_BYTES,
    iter_champsim_records,
    read_champsim,
    write_champsim,
)


@pytest.fixture
def sample() -> Trace:
    return Trace(
        [0x1000, 0x2040, 0x1000, 0x30C0],
        [False, True, False, True],
        [0x400, 0x404, 0x400, 0x408],
        [1, 1, 1, 1],
        name="sample",
    )


class TestRoundTrip:
    def test_accesses_preserved(self, sample, tmp_path):
        path = write_champsim(sample, tmp_path / "t.champsim")
        loaded = read_champsim(path)
        assert loaded.addresses == sample.addresses
        assert loaded.is_write == sample.is_write
        assert loaded.pcs == sample.pcs

    def test_gzip_roundtrip(self, sample, tmp_path):
        path = write_champsim(sample, tmp_path / "t.champsim.gz")
        loaded = read_champsim(path)
        assert loaded.addresses == sample.addresses
        # compressed file should not be raw-record sized
        assert path.stat().st_size != RECORD_BYTES * len(sample)

    def test_xz_roundtrip(self, sample, tmp_path):
        path = write_champsim(sample, tmp_path / "t.champsim.xz")
        assert read_champsim(path).addresses == sample.addresses

    def test_one_instruction_per_access(self, sample, tmp_path):
        path = write_champsim(sample, tmp_path / "t.champsim")
        loaded = read_champsim(path)
        assert loaded.total_instructions == len(sample)

    def test_record_size_matches_champsim(self):
        # ChampSim's input_instr is 64 bytes with packed fields.
        assert RECORD_BYTES == 8 + 1 + 1 + 2 + 4 + 16 + 32


class TestMultiOperandRecords:
    def _raw_record(self, ip, dest=(0, 0), src=(0, 0, 0, 0)):
        record = struct.Struct("<QBB2B4B2Q4Q")
        return record.pack(ip, 0, 0, 0, 0, 0, 0, 0, 0, *dest, *src)

    def test_loads_then_stores(self, tmp_path):
        path = tmp_path / "multi.champsim"
        path.write_bytes(
            self._raw_record(0x99, dest=(0x5000, 0), src=(0x6000, 0x7000, 0, 0))
        )
        trace = read_champsim(path)
        assert trace.addresses == [0x6000, 0x7000, 0x5000]
        assert trace.is_write == [False, False, True]
        assert trace.pcs == [0x99, 0x99, 0x99]
        # The instruction gap lands on the first emitted access only.
        assert trace.instr_gaps == [1, 0, 0]

    def test_non_memory_instructions_accumulate_gap(self, tmp_path):
        path = tmp_path / "gaps.champsim"
        blob = b"".join(
            [self._raw_record(0x10)] * 5
            + [self._raw_record(0x20, src=(0x8000, 0, 0, 0))]
        )
        path.write_bytes(blob)
        trace = read_champsim(path)
        assert trace.instr_gaps == [6]

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "bad.champsim"
        path.write_bytes(self._raw_record(0x10)[: RECORD_BYTES - 3])
        with pytest.raises(ValueError, match="truncated"):
            read_champsim(path)

    def test_iter_records(self, tmp_path):
        path = tmp_path / "r.champsim"
        path.write_bytes(self._raw_record(0x42, src=(0x9000, 0, 0, 0)))
        records = list(iter_champsim_records(path))
        assert records == [(0x42, (0, 0), (0x9000, 0, 0, 0))]


class TestSimulationOnImportedTrace:
    def test_imported_trace_drives_simulator(self, tmp_path):
        from repro.common.config import default_hierarchy
        from repro.cpu.core import LLCRunner
        from repro.trace.spec import make_model

        original = make_model("micro_dead_writes", 512).generate(5000, seed=2)
        path = write_champsim(original, tmp_path / "w.champsim.gz")
        imported = read_champsim(path)
        config = default_hierarchy(llc_size=512 * 64)
        native = LLCRunner(config, "rwp").run(original, warmup=1000)
        roundtrip = LLCRunner(config, "rwp").run(imported, warmup=1000)
        assert roundtrip.llc_read_misses == native.llc_read_misses


class TestMulticoreSharedInterchange:
    """Per-core ChampSim files of one data-sharing run round-trip."""

    def _shared_traces(self):
        from repro.trace.generator import SharingSpec, generate_shared_mix
        from repro.trace.spec import make_model

        models = [make_model("mcf", 256), make_model("omnetpp", 256)]
        sharing = SharingSpec(
            pattern="producer_consumer",
            shared_fraction=0.4,
            writers=1,
            ws_lines=128,
        )
        return generate_shared_mix(models, sharing, 2000, seed=7)

    def test_per_core_round_trip_with_overlapping_ranges(self, tmp_path):
        originals = self._shared_traces()
        # The cores genuinely overlap: the shared region's line
        # addresses appear in both per-core streams.
        overlap = set(originals[0].addresses) & set(originals[1].addresses)
        assert overlap, "shared mix must produce overlapping addresses"
        loaded = []
        for core, trace in enumerate(originals):
            path = write_champsim(trace, tmp_path / f"core{core}.champsim")
            loaded.append(read_champsim(path, address_space="global"))
        for original, imported in zip(originals, loaded):
            assert imported.addresses == original.addresses
            assert imported.is_write == original.is_write
            assert imported.address_space == "global"
        # ...and the overlap survives the round trip byte-for-byte.
        assert set(loaded[0].addresses) & set(loaded[1].addresses) == overlap

    def test_imported_shared_mix_replays_identically(self, tmp_path):
        from repro.common.config import default_hierarchy
        from repro.multicore.shared import SharedLLCSystem

        originals = self._shared_traces()
        imported = [
            read_champsim(
                write_champsim(t, tmp_path / f"c{i}.champsim"),
                name=t.name,
                address_space="global",
            )
            for i, t in enumerate(originals)
        ]
        # ChampSim interchange packs one access per instruction record,
        # so instruction gaps (which set the cores' interleave in the
        # shared system) are the documented lossy part.  The imported
        # traces must replay bit-identically against the gap-normalized
        # originals -- addresses, writes, and PCs all survive.
        flattened = [
            Trace(
                t.addresses, t.is_write, t.pcs, [1] * len(t),
                name=t.name, address_space="global",
            )
            for t in originals
        ]
        config = default_hierarchy(llc_size=2 * 256 * 64)
        native = SharedLLCSystem(config, 2, "rwp-core").run(
            flattened, warmup=200
        )
        roundtrip = SharedLLCSystem(config, 2, "rwp-core").run(
            imported, warmup=200
        )
        assert roundtrip.cores == native.cores
        assert roundtrip.shared == native.shared

    def test_default_import_stays_private(self, tmp_path):
        trace = self._shared_traces()[0]
        path = write_champsim(trace, tmp_path / "p.champsim")
        assert read_champsim(path).address_space == "private"
