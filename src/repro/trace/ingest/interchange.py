"""The library's own interchange formats (npz binary, gzipped text).

Two formats, both lossless for every :class:`~repro.trace.access.Trace`
field including ``address_space`` (a trace's addresses, PCs and gaps
lie in ``[0, 2**63)``, which the npz archive's int64 columns hold; the
text loader checks that range per line and names the file and line of
a value outside it, and the npz loader builds the trace through its
checked constructor, whose ``ValueError`` names the column and index):

* a compact binary ``.npz`` (numpy) archive for bulk experiment traces;
* a line-oriented gzip text format (``address is_write pc instr_gap``
  per line) for interchange with external tools and for eyeballing.

The text format stays version 1: the address space travels as a
``# address_space global`` comment directive after the header, which
pre-existing loaders skip as a comment (private traces write no
directive, so their files are byte-identical to the old writer's).
Likewise old npz archives without the ``address_space`` array load as
private.
"""

from __future__ import annotations

import gzip
from pathlib import Path

import numpy as np

from repro.trace.access import Trace
from repro.trace.ingest.base import TraceSource, _range_problem

_TEXT_HEADER = "# repro-trace v1: address is_write pc instr_gap\n"


def save_npz(trace: Trace, path: str | Path) -> None:
    """Write a trace as a compressed numpy archive.

    Writes the trace's own int64/uint8 arrays, which hold every value a
    trace accepts, so saving builds no Python list and cannot fail on a
    value's range.
    """
    addresses, is_write, pcs, instr_gaps = trace.arrays()
    np.savez_compressed(
        Path(path),
        addresses=addresses,
        is_write=is_write.view(bool),
        pcs=pcs,
        instr_gaps=instr_gaps,
        name=np.array(trace.name),
        address_space=np.array(trace.address_space),
    )


def load_npz(path: str | Path) -> Trace:
    """Read a trace written by :func:`save_npz`."""
    with np.load(Path(path), allow_pickle=False) as data:
        address_space = (
            str(data["address_space"])
            if "address_space" in data.files
            else "private"
        )
        return Trace.from_arrays(
            data["addresses"],
            data["is_write"],
            data["pcs"],
            data["instr_gaps"],
            name=str(data["name"]),
            address_space=address_space,
        )


def save_text(trace: Trace, path: str | Path) -> None:
    """Write a trace as gzipped whitespace-separated text."""
    with gzip.open(Path(path), "wt") as handle:
        handle.write(_TEXT_HEADER)
        if trace.address_space != "private":
            handle.write(f"# address_space {trace.address_space}\n")
        for addr, wr, pc, gap in trace:
            handle.write(f"{addr:#x} {int(wr)} {pc:#x} {gap}\n")


def load_text(path: str | Path, name: str | None = None) -> Trace:
    """Read a trace written by :func:`save_text`.

    Unknown header versions, malformed lines, and an address, PC or gap
    outside ``[0, 2**63)`` raise ``ValueError`` naming the file and the
    offending line, rather than silently producing a bad trace.
    """
    path = Path(path)
    addresses, writes, pcs, gaps = [], [], [], []
    address_space = "private"
    with gzip.open(path, "rt") as handle:
        header = handle.readline()
        if header != _TEXT_HEADER:
            raise ValueError(f"{path}: unrecognized trace header {header!r}")
        for lineno, line in enumerate(handle, start=2):
            line = line.strip()
            if line.startswith("#"):
                directive = line[1:].split()
                if directive[:1] == ["address_space"] and len(directive) == 2:
                    address_space = directive[1]
                continue
            if not line:
                continue
            fields = line.split()
            if len(fields) != 4:
                raise ValueError(f"{path}:{lineno}: expected 4 fields, got {len(fields)}")
            try:
                address, pc = int(fields[0], 0), int(fields[2], 0)
                writes.append(bool(int(fields[1])))
                gap = int(fields[3])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
            problem = _range_problem(address=address, pc=pc, gap=gap)
            if problem is not None:
                raise ValueError(f"{path}:{lineno}: {problem}")
            addresses.append(address)
            pcs.append(pc)
            gaps.append(gap)
    return Trace(
        addresses, writes, pcs, gaps,
        name=name or path.stem,
        address_space=address_space,
    )


def save_interchange(trace: Trace, path: str | Path) -> Path:
    """Write ``trace`` at ``path``, format picked by suffix.

    ``.npz`` selects the binary archive; anything else the gzipped text
    format.
    """
    path = Path(path)
    if path.suffix == ".npz":
        save_npz(trace, path)
    else:
        save_text(trace, path)
    return path


def load_interchange(path: str | Path, name: str | None = None) -> Trace:
    """Read either interchange flavor, picked by suffix."""
    path = Path(path)
    if path.suffix == ".npz":
        return load_npz(path)
    return load_text(path, name=name)


class InterchangeSource(TraceSource):
    """Adapter over the npz/text interchange formats."""

    format = "interchange"

    def read(
        self,
        path: "str | Path",
        name: "str | None" = None,
        address_space: str = "private",
    ) -> Trace:
        trace = load_interchange(path, name=name)
        # The file's own declaration is authoritative; the caller can
        # only widen a legacy private file to the global space.
        if address_space == "global" and trace.address_space == "private":
            trace.address_space = "global"
        return trace

    def write(self, trace: Trace, path: "str | Path") -> Path:
        return save_interchange(trace, path)
