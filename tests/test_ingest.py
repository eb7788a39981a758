"""Unit tests for the trace-ingest adapters (champsim/memsample/interchange)."""

import gzip

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.trace.access import Trace
from repro.trace.ingest import (
    FORMATS,
    NULL_PAGE_BYTES,
    RECORD_BYTES,
    detect_format,
    load_interchange,
    read_champsim,
    read_trace,
    save_interchange,
    scan_memsample,
    write_champsim,
)

LINE = 64


def make_trace(n=16, space="private", gaps=True):
    addresses = [LINE * (100 + 3 * i) for i in range(n)]
    writes = [i % 3 == 0 for i in range(n)]
    pcs = [0x4000 + 4 * (i % 5) for i in range(n)]
    instr_gaps = [1 + (i % 4) for i in range(n)] if gaps else None
    return Trace(
        addresses, writes, pcs, instr_gaps, name="t", address_space=space
    )


def assert_traces_equal(a, b, pcs=True, gaps=True):
    assert list(a.addresses) == list(b.addresses)
    assert list(a.is_write) == list(b.is_write)
    if pcs:
        assert list(a.pcs) == list(b.pcs)
    if gaps:
        assert list(a.instr_gaps) == list(b.instr_gaps)
    assert a.address_space == b.address_space


class TestChampSim:
    def test_round_trip(self, tmp_path):
        trace = make_trace()
        path = write_champsim(trace, tmp_path / "t.champsim")
        back = read_champsim(path)
        assert_traces_equal(trace, back, gaps=False)
        # one access per record -> every gap is 1 on the way back
        assert all(gap == 1 for gap in back.instr_gaps)

    def test_compressed_round_trip(self, tmp_path):
        trace = make_trace(8)
        for suffix in ("t.champsim.gz", "t.champsim.xz"):
            back = read_champsim(write_champsim(trace, tmp_path / suffix))
            assert list(back.addresses) == list(trace.addresses)

    def test_truncated_record_rejected(self, tmp_path):
        path = write_champsim(make_trace(4), tmp_path / "t.champsim")
        path.write_bytes(path.read_bytes()[: 2 * RECORD_BYTES + 7])
        with pytest.raises(ValueError, match="truncated record"):
            read_champsim(path)

    def test_null_page_address_names_record_index(self, tmp_path):
        trace = make_trace(4)
        path = write_champsim(trace, tmp_path / "t.champsim")
        blob = bytearray(path.read_bytes())
        # Corrupt record 2's source_memory[0] (offset 8+1+1+2+4+16 = 32)
        # to a nonzero address inside the reserved null page.
        offset = 2 * RECORD_BYTES + 32
        blob[offset : offset + 8] = (NULL_PAGE_BYTES - 8).to_bytes(8, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="record 2"):
            read_champsim(path)

    def test_global_address_space_tag(self, tmp_path):
        path = write_champsim(make_trace(4), tmp_path / "t.champsim")
        assert read_champsim(path, address_space="global").address_space == "global"


class TestMemSample:
    def test_header_csv(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text(
            "pc,addr,op,level\n"
            "0x4000,0x10000,LD,L1\n"
            "0x4004,0x10040,ST,LLC\n"
        )
        trace, skipped = scan_memsample(path)
        assert skipped == 0
        assert list(trace.addresses) == [0x10000, 0x10040]
        assert list(trace.is_write) == [False, True]
        assert list(trace.pcs) == [0x4000, 0x4004]

    def test_headerless_whitespace(self, tmp_path):
        path = tmp_path / "log.txt"
        path.write_text("4000 10000 L\nffa4 10f40 S extra fields ignored\n")
        trace, skipped = scan_memsample(path)
        assert skipped == 0
        # digits-only tokens parse as decimal; tokens with hex letters
        # fall back to bare hex (SPE/perf decoders omit the 0x prefix)
        assert list(trace.addresses) == [10000, 0x10F40]
        assert list(trace.pcs) == [4000, 0xFFA4]

    def test_two_column_rows_get_anonymous_pc(self, tmp_path):
        path = tmp_path / "log.txt"
        path.write_text("0x10000 R\n0x10040 W\n")
        trace, skipped = scan_memsample(path)
        assert skipped == 0
        assert list(trace.pcs) == [0, 0]
        assert list(trace.is_write) == [False, True]

    def test_malformed_lines_counted_and_skipped(self, tmp_path):
        path = tmp_path / "log.txt"
        path.write_text(
            "0x4000 0x10000 LD\n"
            "garbage line here\n"          # unknown op token
            "0x4008 0x0000000000000040 ST\n"  # null-page address
            "0x400c 0x10080 ST\n"
        )
        trace, skipped = scan_memsample(path)
        assert skipped == 2
        assert list(trace.addresses) == [0x10000, 0x10080]

    def test_strict_raises_naming_line(self, tmp_path):
        path = tmp_path / "log.txt"
        path.write_text("0x4000 0x10000 LD\n0x4004 0x10040 XX\n")
        with pytest.raises(ValueError, match=r"log\.txt:2"):
            scan_memsample(path, strict=True)

    def test_gzipped_log(self, tmp_path):
        path = tmp_path / "log.txt.gz"
        with gzip.open(path, "wt") as handle:
            handle.write("0x4000 0x10000 LD\n")
        trace, skipped = scan_memsample(path)
        assert (len(trace), skipped) == (1, 0)

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "log.txt"
        path.write_text("# capture of foo\n\n0x4000 0x10000 LD\n")
        trace, skipped = scan_memsample(path)
        assert (len(trace), skipped) == (1, 0)


addresses_st = st.lists(
    st.integers(min_value=NULL_PAGE_BYTES // LINE, max_value=1 << 40).map(
        lambda line: line * LINE
    ),
    min_size=1,
    max_size=40,
)


class TestInterchange:
    @given(
        addresses=addresses_st,
        data=st.data(),
        space=st.sampled_from(["private", "global"]),
        suffix=st.sampled_from([".npz", ".txt.gz"]),
    )
    def test_round_trip_lossless(self, tmp_path_factory, addresses, data, space, suffix):
        n = len(addresses)
        trace = Trace(
            addresses,
            data.draw(st.lists(st.booleans(), min_size=n, max_size=n)),
            data.draw(
                st.lists(
                    st.integers(min_value=0, max_value=1 << 48),
                    min_size=n,
                    max_size=n,
                )
            ),
            data.draw(
                st.lists(
                    st.integers(min_value=0, max_value=1000),
                    min_size=n,
                    max_size=n,
                )
            ),
            name="t",
            address_space=space,
        )
        path = tmp_path_factory.mktemp("interchange") / f"t{suffix}"
        save_interchange(trace, path)
        assert_traces_equal(trace, load_interchange(path))

    def test_private_text_file_has_no_directive(self, tmp_path):
        # Back-compat: private traces must stay byte-compatible with the
        # pre-address_space writer (no "# address_space" line).
        path = tmp_path / "t.txt.gz"
        save_interchange(make_trace(space="private"), path)
        with gzip.open(path, "rt") as handle:
            body = handle.read()
        assert "address_space" not in body

    def test_global_text_file_carries_directive(self, tmp_path):
        path = tmp_path / "t.txt.gz"
        save_interchange(make_trace(space="global"), path)
        with gzip.open(path, "rt") as handle:
            assert "# address_space global\n" in handle.read()

    def test_malformed_text_names_line(self, tmp_path):
        path = tmp_path / "t.txt.gz"
        save_interchange(make_trace(4), path)
        with gzip.open(path, "rt") as handle:
            lines = handle.readlines()
        lines[2] = "0x100 1\n"  # too few fields
        with gzip.open(path, "wt") as handle:
            handle.writelines(lines)
        with pytest.raises(ValueError, match=":3"):
            load_interchange(path)

    def test_unknown_header_rejected(self, tmp_path):
        path = tmp_path / "t.txt.gz"
        with gzip.open(path, "wt") as handle:
            handle.write("# some-other-format v9\n")
        with pytest.raises(ValueError, match="unrecognized trace header"):
            load_interchange(path)


class TestDispatch:
    def test_detect_format(self, tmp_path):
        champsim = write_champsim(make_trace(4), tmp_path / "a.champsim.xz")
        npz = tmp_path / "b.npz"
        save_interchange(make_trace(4), npz)
        text = tmp_path / "c.txt.gz"
        save_interchange(make_trace(4), text)
        log = tmp_path / "d.log"
        log.write_text("0x4000 0x10000 LD\n")
        assert detect_format(champsim) == "champsim"
        assert detect_format(npz) == "interchange"
        assert detect_format(text) == "interchange"
        assert detect_format(log) == "memsample"

    def test_read_trace_auto(self, tmp_path):
        trace = make_trace(6)
        path = tmp_path / "t.npz"
        save_interchange(trace, path)
        assert_traces_equal(trace, read_trace(path))

    def test_read_trace_unknown_format(self, tmp_path):
        with pytest.raises(ValueError, match="unknown trace format"):
            read_trace(tmp_path / "t.npz", format="elf")

    def test_formats_registry_covers_file_kinds(self):
        assert set(FORMATS) == {"champsim", "memsample", "interchange"}

