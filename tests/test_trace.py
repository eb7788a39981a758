"""Unit tests for access records, the Trace container, and file I/O."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.trace.access import Access, Trace
from repro.trace.ingest import load_npz, load_text, save_npz, save_text


class TestAccess:
    def test_fields(self):
        access = Access(0x1000, True, pc=0x400, instr_gap=3)
        assert access.address == 0x1000
        assert access.is_write
        assert access.pc == 0x400
        assert access.instr_gap == 3

    def test_negative_address_rejected(self):
        with pytest.raises(ValueError):
            Access(-1, False)

    def test_negative_gap_rejected(self):
        with pytest.raises(ValueError):
            Access(0, False, instr_gap=-1)

    def test_frozen(self):
        access = Access(0, False)
        with pytest.raises(AttributeError):
            access.address = 5


class TestTrace:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Trace([1, 2], [True])
        with pytest.raises(ValueError):
            Trace([1], [True], pcs=[1, 2])
        with pytest.raises(ValueError):
            Trace([1], [True], instr_gaps=[1, 2])

    def test_defaults(self):
        trace = Trace([64, 128], [False, True])
        assert trace.pcs == [0, 0]
        assert trace.instr_gaps == [1, 1]

    def test_iteration_order(self):
        trace = Trace([64, 128], [False, True], [10, 20], [1, 5])
        assert list(trace) == [(64, False, 10, 1), (128, True, 20, 5)]

    def test_total_instructions(self):
        trace = Trace([0, 0, 0], [False] * 3, instr_gaps=[2, 3, 4])
        assert trace.total_instructions == 9

    def test_write_fraction(self):
        trace = Trace([0, 0, 0, 0], [True, False, False, True])
        assert trace.write_fraction == 0.5

    def test_write_fraction_empty(self):
        assert Trace([], []).write_fraction == 0.0

    def test_slice(self):
        trace = Trace(list(range(10)), [False] * 10)
        part = trace.slice(2, 5)
        assert len(part) == 3
        assert part.addresses == [2, 3, 4]

    def test_from_accesses_roundtrip(self):
        accesses = [Access(64 * i, i % 2 == 0, pc=i, instr_gap=i + 1) for i in range(5)]
        trace = Trace.from_accesses(accesses)
        assert list(trace.accesses()) == accesses

    def test_from_arrays(self):
        trace = Trace.from_arrays(
            np.array([64, 128]), np.array([True, False])
        )
        assert trace.addresses == [64, 128]
        assert trace.is_write == [True, False]
        assert isinstance(trace.addresses[0], int)

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 2**40),
                st.booleans(),
                st.integers(0, 2**30),
                st.integers(0, 1000),
            ),
            max_size=50,
        )
    )
    def test_accesses_view_matches_tuples(self, rows):
        trace = Trace(
            [r[0] for r in rows],
            [r[1] for r in rows],
            [r[2] for r in rows],
            [r[3] for r in rows],
        )
        for access, row in zip(trace.accesses(), rows):
            assert (access.address, access.is_write, access.pc, access.instr_gap) == row


class TestFileIO:
    @pytest.fixture
    def sample(self) -> Trace:
        return Trace(
            [64, 128, 192, 64],
            [False, True, False, True],
            [0x400, 0x404, 0x408, 0x404],
            [1, 7, 2, 30],
            name="sample",
        )

    def test_npz_roundtrip(self, sample, tmp_path):
        path = tmp_path / "t.npz"
        save_npz(sample, path)
        loaded = load_npz(path)
        assert loaded.addresses == sample.addresses
        assert loaded.is_write == sample.is_write
        assert loaded.pcs == sample.pcs
        assert loaded.instr_gaps == sample.instr_gaps
        assert loaded.name == "sample"

    def test_text_roundtrip(self, sample, tmp_path):
        path = tmp_path / "t.txt.gz"
        save_text(sample, path)
        loaded = load_text(path)
        assert loaded.addresses == sample.addresses
        assert loaded.is_write == sample.is_write
        assert loaded.pcs == sample.pcs
        assert loaded.instr_gaps == sample.instr_gaps

    def test_text_bad_header_rejected(self, tmp_path):
        import gzip

        path = tmp_path / "bad.txt.gz"
        with gzip.open(path, "wt") as handle:
            handle.write("not a trace\n")
        with pytest.raises(ValueError, match="unrecognized trace header"):
            load_text(path)

    def test_text_malformed_line_reports_lineno(self, sample, tmp_path):
        import gzip

        path = tmp_path / "t.txt.gz"
        save_text(sample, path)
        with gzip.open(path, "at") as handle:
            handle.write("0x40 1 oops\n")
        with pytest.raises(ValueError, match=":6"):
            load_text(path)

    def test_empty_trace_roundtrip(self, tmp_path):
        path = tmp_path / "empty.npz"
        save_npz(Trace([], []), path)
        assert len(load_npz(path)) == 0
