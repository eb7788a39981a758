"""ChampSim-compatible trace interchange.

ChampSim (the Cache Replacement Championship simulator) is the de facto
lingua franca for replacement-policy traces, so adopters of this library
usually have ``*.champsim.xz``-style traces lying around.  This module
reads and writes the binary record layout ChampSim uses::

    struct input_instr {
        uint64_t ip;                  // program counter
        uint8_t  is_branch;
        uint8_t  branch_taken;
        uint8_t  destination_registers[2];
        uint8_t  source_registers[4];
        uint64_t destination_memory[2];  // store addresses
        uint64_t source_memory[4];       // load addresses
    };

One instruction record can carry several memory operations; conversion
to our flat access stream emits loads (reads) then stores (writes) in
record order, attributing the inter-record instruction gap to the first
emitted access.  Conversion back packs one access per record (the lossy
but universally accepted round trip).

Address 0 means "no operand" in this layout, so a nonzero operand
address inside the reserved null page can only be corruption; reading
streams every record through the ingest validation
(:func:`~repro.trace.ingest.base.check_address`) and rejects such
records by index, as it does an operand address or an ``ip`` of
``2**63`` or more (the layout's fields are uint64, a trace's columns
int64).

Compression: files ending in ``.gz`` are transparently (de)compressed;
``.xz`` likewise.
"""

from __future__ import annotations

import gzip
import lzma
import struct
from pathlib import Path
from typing import BinaryIO, Iterator, List

from repro.trace.access import Trace
from repro.trace.ingest.base import TraceSource, check_address

#: struct layout: ip, is_branch, taken, 2 dest regs, 4 src regs,
#: 2 dest mem, 4 src mem  (little-endian, packed)
_RECORD = struct.Struct("<QBB2B4B2Q4Q")
RECORD_BYTES = _RECORD.size


def _open(path: Path, mode: str) -> BinaryIO:
    if path.suffix == ".gz":
        return gzip.open(path, mode)  # type: ignore[return-value]
    if path.suffix == ".xz":
        return lzma.open(path, mode)  # type: ignore[return-value]
    return path.open(mode)


def write_champsim(trace: Trace, path: str | Path) -> Path:
    """Write one access per ChampSim instruction record."""
    path = Path(path)
    with _open(path, "wb") as handle:
        for address, is_write, pc, _ in trace:
            dest_mem = (address, 0) if is_write else (0, 0)
            src_mem = (0, 0, 0, 0) if is_write else (address, 0, 0, 0)
            handle.write(
                _RECORD.pack(
                    pc,
                    0,  # is_branch
                    0,  # branch_taken
                    0, 0,  # destination registers
                    0, 0, 0, 0,  # source registers
                    *dest_mem,
                    *src_mem,
                )
            )
    return path


def iter_champsim_records(path: str | Path) -> Iterator[tuple]:
    """Yield raw (ip, dest_mem, src_mem) tuples from a ChampSim file."""
    path = Path(path)
    with _open(path, "rb") as handle:
        while True:
            blob = handle.read(RECORD_BYTES)
            if not blob:
                return
            if len(blob) != RECORD_BYTES:
                raise ValueError(
                    f"{path}: truncated record ({len(blob)} of "
                    f"{RECORD_BYTES} bytes)"
                )
            fields = _RECORD.unpack(blob)
            # layout: ip, is_branch, taken, 2 dest regs, 4 src regs,
            # 2 dest mem, 4 src mem -> 15 scalar fields.
            ip = fields[0]
            dest_mem = fields[9:11]
            src_mem = fields[11:15]
            yield ip, dest_mem, src_mem


def read_champsim(
    path: str | Path,
    name: str | None = None,
    address_space: str = "private",
) -> Trace:
    """Convert a ChampSim instruction trace to a flat access stream.

    Every record is one committed instruction; records with no memory
    operands only advance the instruction gap.  A nonzero operand
    address inside the reserved null page, or an operand address or
    ``ip`` of ``2**63`` or more, raises ``ValueError`` naming the file
    and the offending record index.  ChampSim records carry raw physical
    addresses with no per-core tag, so a set of per-core files from one
    data-sharing run must be re-imported with ``address_space="global"``
    to keep the shared system from applying its per-core address offsets
    on replay.
    """
    path = Path(path)
    addresses: List[int] = []
    writes: List[bool] = []
    pcs: List[int] = []
    gaps: List[int] = []
    pending_gap = 0
    for index, (ip, dest_mem, src_mem) in enumerate(
        iter_champsim_records(path)
    ):
        pending_gap += 1
        first = True
        for address in src_mem:
            if address:
                check_address(address, path, f"record {index}", ip)
                addresses.append(address)
                writes.append(False)
                pcs.append(ip)
                gaps.append(pending_gap if first else 0)
                pending_gap = 0
                first = False
        for address in dest_mem:
            if address:
                check_address(address, path, f"record {index}", ip)
                addresses.append(address)
                writes.append(True)
                pcs.append(ip)
                gaps.append(pending_gap if first else 0)
                pending_gap = 0
                first = False
    return Trace(
        addresses, writes, pcs, gaps,
        name=name or path.stem,
        address_space=address_space,
    )


class ChampSimSource(TraceSource):
    """Adapter over :func:`read_champsim` / :func:`write_champsim`."""

    format = "champsim"

    def read(
        self,
        path: "str | Path",
        name: "str | None" = None,
        address_space: str = "private",
    ) -> Trace:
        return read_champsim(path, name=name, address_space=address_space)

    def write(self, trace: Trace, path: "str | Path") -> Path:
        return write_champsim(trace, path)
