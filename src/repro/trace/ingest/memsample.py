"""Memory-sample log ingest (``perf mem`` / Arm SPE decoder style).

Sampling profilers emit one line per observed memory operation; the
exact shape varies by tool and decoder flags, so this adapter accepts
the common family rather than one rigid schema:

* comma- or whitespace-separated columns, optionally gzipped;
* an optional header row naming columns (``pc``/``ip``,
  ``addr``/``vaddr``/``address``, ``op``/``type``/``rw``, and optional
  extras like cache-level hints or latencies, which are ignored);
* without a header, positional columns: ``address op`` (2 columns) or
  ``pc address op [extras...]`` (3+);
* load/store spelled many ways (``LD``/``L``/``R``/``LOAD``/``0`` vs
  ``ST``/``S``/``W``/``STORE``/``1``, any case);
* hex with or without ``0x``, or decimal.

Sample logs carry no retire counts, so instruction gaps default to 1
unless the log has a ``gap``/``instrs`` column.  Rows the parser cannot
understand or a trace cannot hold (truncated lines, unknown op tokens,
null-page addresses, an address, PC or gap outside ``[0, 2**63)``, such
as a kernel-half ``0xffff...`` sample) are counted and skipped -- a sampling
log with a few mangled lines is the common case -- unless
``strict=True``, which raises naming the offending line.  Rows without
a PC get ``pc=0`` (PC-indexed predictors treat them as one anonymous
instruction).
"""

from __future__ import annotations

import gzip
from pathlib import Path
from typing import Dict, List, Optional, TextIO, Tuple

from repro.trace.access import Trace
from repro.trace.ingest.base import TraceSource, _address_problem

_READ_TOKENS = frozenset({"ld", "l", "r", "rd", "load", "read", "0"})
_WRITE_TOKENS = frozenset({"st", "s", "w", "wr", "store", "write", "1"})

#: header tokens -> logical column (None = recognized but ignored).
_COLUMN_ALIASES: Dict[str, Optional[str]] = {
    "pc": "pc", "ip": "pc", "iaddr": "pc", "instr": "pc",
    "instruction": "pc",
    "addr": "address", "address": "address", "vaddr": "address",
    "daddr": "address", "paddr": "address", "va": "address", "pa": "address",
    "op": "op", "type": "op", "access": "op", "memop": "op", "rw": "op",
    "kind": "op",
    "gap": "gap", "instr_gap": "gap", "instrs": "gap", "icount": "gap",
    "level": None, "cache_level": None, "source": None, "lat": None,
    "latency": None, "weight": None, "cpu": None, "tid": None, "pid": None,
    "event": None, "phys": None, "el": None,
}


def _open_text(path: Path) -> TextIO:
    if path.suffix == ".gz":
        return gzip.open(path, "rt")  # type: ignore[return-value]
    return path.open("rt")


def _split(line: str) -> List[str]:
    if "," in line:
        return [field.strip() for field in line.split(",")]
    return line.split()


def _parse_int(token: str) -> int:
    try:
        return int(token, 0)
    except ValueError:
        # SPE/perf decoders often print bare hex without the 0x prefix.
        return int(token, 16)


def _parse_op(token: str) -> bool:
    lowered = token.lower()
    if lowered in _WRITE_TOKENS:
        return True
    if lowered in _READ_TOKENS:
        return False
    raise ValueError(f"unknown memory-op token {token!r}")


def _header_columns(fields: List[str]) -> Optional[List[Optional[str]]]:
    """Map a header row to logical columns, or None if it's a data row."""
    lowered = [field.lower() for field in fields]
    if not any(token in _COLUMN_ALIASES for token in lowered):
        return None
    return [_COLUMN_ALIASES.get(token) for token in lowered]


def scan_memsample(
    path: "str | Path",
    name: "str | None" = None,
    address_space: str = "private",
    strict: bool = False,
) -> Tuple[Trace, int]:
    """Parse a sample log; returns ``(trace, skipped_line_count)``."""
    path = Path(path)
    addresses: List[int] = []
    writes: List[bool] = []
    pcs: List[int] = []
    gaps: List[int] = []
    skipped = 0
    columns: Optional[List[Optional[str]]] = None
    saw_rows = False
    with _open_text(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith(("#", "//", ";")):
                continue
            fields = _split(line)
            if not saw_rows and columns is None:
                columns = _header_columns(fields)
                if columns is not None:
                    continue
            saw_rows = True
            try:
                pc, address, is_write, gap = _parse_row(fields, columns)
                problem = _address_problem(address, pc)
                if problem is not None:
                    raise ValueError(problem)
            except (ValueError, IndexError) as exc:
                if strict:
                    raise ValueError(f"{path}:{lineno}: {exc}") from None
                skipped += 1
                continue
            addresses.append(address)
            writes.append(is_write)
            pcs.append(pc)
            gaps.append(gap)
    trace = Trace(
        addresses, writes, pcs, gaps,
        name=name or path.stem,
        address_space=address_space,
    )
    return trace, skipped


def _parse_row(
    fields: List[str], columns: Optional[List[Optional[str]]]
) -> Tuple[int, int, bool, int]:
    if columns is not None:
        values: Dict[str, str] = {}
        for column, field in zip(columns, fields):
            if column is not None and column not in values:
                values[column] = field
        if "address" not in values or "op" not in values:
            raise ValueError(
                f"row {fields!r} is missing the address or op column"
            )
        pc = _parse_int(values["pc"]) if "pc" in values else 0
        gap = int(values["gap"]) if "gap" in values else 1
        if not 0 <= gap < 1 << 63:
            raise ValueError(f"gap {gap} is outside [0, 2**63)")
        return pc, _parse_int(values["address"]), _parse_op(values["op"]), gap
    if len(fields) < 2:
        raise ValueError(f"expected at least 2 fields, got {len(fields)}")
    if len(fields) == 2:
        return 0, _parse_int(fields[0]), _parse_op(fields[1]), 1
    return (
        _parse_int(fields[0]),
        _parse_int(fields[1]),
        _parse_op(fields[2]),
        1,
    )


def read_memsample(
    path: "str | Path",
    name: "str | None" = None,
    address_space: str = "private",
    strict: bool = False,
) -> Trace:
    """:func:`scan_memsample` without the skipped-line count."""
    trace, _ = scan_memsample(
        path, name=name, address_space=address_space, strict=strict
    )
    return trace


class MemSampleSource(TraceSource):
    """Adapter over :func:`read_memsample` (read-only: logs are captures)."""

    format = "memsample"

    def read(
        self,
        path: "str | Path",
        name: "str | None" = None,
        address_space: str = "private",
    ) -> Trace:
        return read_memsample(path, name=name, address_space=address_space)
