"""Memory-access records and trace containers.

A trace is a sequence of LLC-level accesses.  Each record carries the byte
address, whether it is a store, the program counter of the instruction that
issued it (used by PC-indexed predictors such as RRP), and the number of
instructions the core committed since the previous record (used to
reconstruct IPC from miss counts).

A :class:`Trace` holds four parallel columns.  A trace built from numpy
arrays (the generators, the stress zoo, shared mixes, npz interchange)
keeps those arrays as its only representation -- the decode layer and
the native kernel read them as they are -- and builds a column's Python
list only when a Python replay path first reads it.  A trace built from
lists (file readers, fuzzers, tests) keeps its lists and derives the
arrays once, on first use.  Traces are immutable.  The :class:`Access`
dataclass is the convenient scalar view used by tests and examples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np


@dataclass(frozen=True, slots=True)
class Access:
    """One memory access as seen by the cache under study."""

    address: int
    is_write: bool
    pc: int = 0
    instr_gap: int = 1

    def __post_init__(self) -> None:
        if self.address < 0:
            raise ValueError("address must be non-negative")
        if self.instr_gap < 0:
            raise ValueError("instr_gap must be non-negative")


#: a trace's columns as kernel-ready arrays: int64 addresses, uint8
#: write flags, int64 PCs, int64 instruction gaps
TraceArrays = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]

_ADDRESS, _WRITE, _PC, _GAP = range(4)


def _read_only(array: np.ndarray) -> np.ndarray:
    """A read-only view: the trace's arrays are shared, never written."""
    view = array.view()
    view.flags.writeable = False
    return view


class Trace:
    """An immutable sequence of accesses stored as four parallel columns.

    Each column is a numpy array, a Python list, or both (see the module
    docstring): ``addresses``, ``is_write``, ``pcs`` and ``instr_gaps``
    are lists of Python ``int``/``bool`` built on first read, and
    :meth:`arrays` gives the arrays.  Neither may be mutated: decodes
    and per-core views share them.

    Iterating yields ``(address, is_write, pc, instr_gap)`` tuples, which is
    what the hot simulation loop consumes; :meth:`accesses` yields
    :class:`Access` objects for code that prefers names over positions.
    """

    __slots__ = (
        "name",
        "address_space",
        "_length",
        "_lists",
        "_arrays",
        "_decoded",
    )

    def __init__(
        self,
        addresses: Sequence[int],
        is_write: Sequence[bool],
        pcs: Sequence[int] | None = None,
        instr_gaps: Sequence[int] | None = None,
        name: str = "trace",
        address_space: str = "private",
    ) -> None:
        n = len(addresses)
        if len(is_write) != n:
            raise ValueError("addresses and is_write must have equal length")
        if pcs is not None and len(pcs) != n:
            raise ValueError("pcs length mismatch")
        if instr_gaps is not None and len(instr_gaps) != n:
            raise ValueError("instr_gaps length mismatch")
        self._init(n, name, address_space)
        self._lists = [
            list(addresses),
            [bool(w) for w in is_write],
            list(pcs) if pcs is not None else [0] * n,
            list(instr_gaps) if instr_gaps is not None else [1] * n,
        ]

    def _init(self, length: int, name: str, address_space: str) -> None:
        if address_space not in ("private", "global"):
            raise ValueError(
                "address_space must be 'private' or 'global', "
                f"got {address_space!r}"
            )
        self.name = name
        self.address_space = address_space
        self._length = length
        self._arrays: Optional[TraceArrays] = None
        self._decoded: dict = {}

    @classmethod
    def from_arrays(
        cls,
        addresses: np.ndarray,
        is_write: np.ndarray,
        pcs: np.ndarray | None = None,
        instr_gaps: np.ndarray | None = None,
        name: str = "trace",
        address_space: str = "private",
    ) -> "Trace":
        """Build from numpy arrays (the generators' native output).

        Any dtype or stride is accepted and normalized once into
        C-contiguous int64 addresses, PCs and gaps and a uint8 write
        column (nonzero is a store).  The trace shares, not copies,
        arrays that already have that layout, so the caller must not
        write to them afterwards.
        """
        address_array = np.ascontiguousarray(addresses, dtype=np.int64)
        n = len(address_array)
        write_array = np.ascontiguousarray(is_write, dtype=np.bool_)
        pc_array = (
            np.zeros(n, dtype=np.int64)
            if pcs is None
            else np.ascontiguousarray(pcs, dtype=np.int64)
        )
        gap_array = (
            np.ones(n, dtype=np.int64)
            if instr_gaps is None
            else np.ascontiguousarray(instr_gaps, dtype=np.int64)
        )
        if not len(write_array) == len(pc_array) == len(gap_array) == n:
            raise ValueError("from_arrays columns must have equal length")
        trace = cls.__new__(cls)
        trace._init(n, name, address_space)
        trace._lists = [None] * 4
        trace._arrays = (
            _read_only(address_array),
            _read_only(write_array.view(np.uint8)),
            _read_only(pc_array),
            _read_only(gap_array),
        )
        return trace

    def arrays(self) -> Optional[TraceArrays]:
        """The columns as read-only kernel-ready arrays, or None.

        ``(addresses, is_write, pcs, instr_gaps)`` as int64, uint8, int64
        and int64.  A list-built trace derives them on the first call and
        keeps them; None when a value does not fit int64 (the trace then
        stays list-only).
        """
        arrays = self._arrays
        if arrays is None:
            addresses, is_write, pcs, gaps = self._lists
            try:
                arrays = (
                    np.asarray(addresses, dtype=np.int64),
                    np.asarray(is_write, dtype=np.uint8),
                    np.asarray(pcs, dtype=np.int64),
                    np.asarray(gaps, dtype=np.int64),
                )
            except (OverflowError, TypeError, ValueError):
                return None
            arrays = self._arrays = tuple(_read_only(a) for a in arrays)
        return arrays

    def _column(self, column: int) -> list:
        """One column as a list, built from its array on first read."""
        values = self._lists[column]
        if values is None:
            array = self._arrays[column]
            if column == _WRITE:
                array = array.view(np.bool_)
            values = self._lists[column] = array.tolist()
        return values

    @property
    def addresses(self) -> List[int]:
        return self._column(_ADDRESS)

    @property
    def is_write(self) -> List[bool]:
        return self._column(_WRITE)

    @property
    def pcs(self) -> List[int]:
        return self._column(_PC)

    @property
    def instr_gaps(self) -> List[int]:
        return self._column(_GAP)

    @classmethod
    def from_accesses(cls, accesses: Sequence[Access], name: str = "trace") -> "Trace":
        return cls(
            [a.address for a in accesses],
            [a.is_write for a in accesses],
            [a.pc for a in accesses],
            [a.instr_gap for a in accesses],
            name=name,
        )

    def __getstate__(self):
        # The decode cache is per-process scratch; keep pickles lean.
        # Private traces keep the historical 5-tuple so old pickles and
        # new ones stay interchangeable; only global-address traces
        # carry the extra field.
        base = (self.addresses, self.is_write, self.pcs, self.instr_gaps, self.name)
        if self.address_space == "private":
            return base
        return base + (self.address_space,)

    def __setstate__(self, state) -> None:
        addresses, is_write, pcs, instr_gaps, name = state[:5]
        self._init(
            len(addresses), name, state[5] if len(state) > 5 else "private"
        )
        self._lists = [addresses, is_write, pcs, instr_gaps]

    def __len__(self) -> int:
        return self._length

    def __iter__(self) -> Iterator[tuple]:
        return zip(self.addresses, self.is_write, self.pcs, self.instr_gaps)

    def decoded(self, config):
        """This trace pre-decoded for ``config``'s geometry, cached.

        Returns a :class:`~repro.trace.decode.DecodedTrace`; repeat calls
        with the same ``(offset_bits, index_bits)`` geometry reuse the
        cached decode, so a policy sweep splits each address exactly once.
        """
        from repro.trace.decode import decode_trace, geometry_key

        key = geometry_key(config)
        cached = self._decoded.get(key)
        if cached is None:
            cached = self._decoded[key] = decode_trace(self, config)
        return cached

    def accesses(self) -> Iterator[Access]:
        """Yield :class:`Access` objects (slower, named view)."""
        for addr, wr, pc, gap in self:
            yield Access(addr, wr, pc, gap)

    def slice(self, start: int, stop: int) -> "Trace":
        """A sub-trace covering records ``[start, stop)``."""
        if self._lists[_ADDRESS] is None:
            # Array-resident: slice the arrays, build no list.
            return Trace.from_arrays(
                *(array[start:stop] for array in self._arrays),
                name=f"{self.name}[{start}:{stop}]",
                address_space=self.address_space,
            )
        return Trace(
            self.addresses[start:stop],
            self.is_write[start:stop],
            self.pcs[start:stop],
            self.instr_gaps[start:stop],
            name=f"{self.name}[{start}:{stop}]",
            address_space=self.address_space,
        )

    @property
    def total_instructions(self) -> int:
        return sum(self.instr_gaps)

    @property
    def write_fraction(self) -> float:
        if not self.is_write:
            return 0.0
        return sum(self.is_write) / len(self.is_write)

    def __repr__(self) -> str:
        return f"Trace({self.name!r}, {len(self)} accesses)"
