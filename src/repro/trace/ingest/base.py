"""The trace-adapter contract: every external format, one interface.

A :class:`TraceSource` turns one on-disk trace format into a validated
:class:`~repro.trace.access.Trace` with a declared ``address_space``.
Adapters share two rules, both applied by :func:`check_address`, so an
offending record is named, never silently ingested:

* the null-page rule: byte addresses in ``(0, NULL_PAGE_BYTES)`` are
  reserved -- the ChampSim record layout encodes "no memory operand" as
  address 0, so a record claiming an operand *inside* the null page is
  corrupt (or a pointer bug in the traced program);
* the range rule: a trace holds addresses and PCs in ``[0, 2**63)``
  (its int64 columns), so a kernel-half address such as
  ``0xffff...`` cannot be ingested.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from pathlib import Path
from typing import ClassVar, Optional

from repro.trace.access import Trace

#: the reserved low page: 64 lines x 64 B.  The synthetic generators
#: never address it (shared regions start exactly at its end) and the
#: ChampSim format cannot represent address 0 as a real operand.
NULL_PAGE_BYTES = 4096


def _address_problem(address: int, pc: int) -> Optional[str]:
    """Why a record with this address and PC cannot be ingested, or None."""
    if 0 < address < NULL_PAGE_BYTES:
        return (
            f"address {address:#x} falls inside the reserved null page "
            f"(< {NULL_PAGE_BYTES:#x}); the record is corrupt or the trace "
            "was captured with a null-pointer bug"
        )
    for field, value in (("address", address), ("pc", pc)):
        if not 0 <= value < 1 << 63:
            return (
                f"{field} {value:#x} is outside the [0, 2**63) range a "
                "trace holds"
            )
    return None


def check_address(address: int, path: Path, where: str, pc: int = 0) -> None:
    """Reject an address inside the reserved null page, and an address
    or PC outside the ``[0, 2**63)`` range a trace holds."""
    problem = _address_problem(address, pc)
    if problem is not None:
        raise ValueError(f"{path}: {where}: {problem}")


class TraceSource(ABC):
    """One ingest adapter: reads (and optionally writes) one format."""

    #: the format name the CLI and :func:`repro.trace.ingest.read_trace`
    #: dispatch on.
    format: ClassVar[str]

    @abstractmethod
    def read(
        self,
        path: "str | Path",
        name: "str | None" = None,
        address_space: str = "private",
    ) -> Trace:
        """Decode ``path`` into a validated :class:`Trace`."""

    def write(self, trace: Trace, path: "str | Path") -> Path:
        """Encode ``trace`` at ``path`` (adapters that support export)."""
        raise NotImplementedError(
            f"{self.format} traces are read-only (no exporter)"
        )
