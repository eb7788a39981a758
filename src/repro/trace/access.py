"""Memory-access records and trace containers.

A trace is a sequence of LLC-level accesses.  Each record carries the byte
address, whether it is a store, the program counter of the instruction that
issued it (used by PC-indexed predictors such as RRP), and the number of
instructions the core committed since the previous record (used to
reconstruct IPC from miss counts).

A :class:`Trace` holds four parallel columns as read-only numpy arrays:
int64 addresses, PCs and instruction gaps and a uint8 write flag.  Both
constructors build them once, and that is where a trace value's range
is decided: a column that is not integer-valued, or an address, PC or
gap outside ``[0, 2**63)``, raises ``ValueError`` naming the column and
index.  So every trace fits the decode layer's and the native kernel's
int64 streams.  A column's Python list (``addresses``, ...) is built
from its array on the first read by a Python replay path.  Traces are
immutable.  The :class:`Access` dataclass is the convenient scalar view
used by tests and examples.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

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

#: every address, PC and instruction gap lies in ``[0, 2**63)``, the
#: range an int64 column holds
_LIMIT = 1 << 63


def _read_only(array: np.ndarray) -> np.ndarray:
    """A read-only view: the trace's arrays are shared, never written."""
    view = array.view()
    view.flags.writeable = False
    return view


def _int64_column(values, column: str) -> np.ndarray:
    """``values`` as a C-contiguous int64 array, checked at the door.

    An int64 array that already has that layout is shared, not copied.
    Raises ``ValueError`` naming ``column`` and the index of the first
    value that is not an integer in ``[0, 2**63)``.
    """
    array = np.asarray(values)
    if array.dtype.kind in "biu":
        if not array.size or (
            int(array.min()) >= 0 and int(array.max()) < _LIMIT
        ):
            return np.ascontiguousarray(array, dtype=np.int64)
    elif not array.size:
        return np.zeros(0, dtype=np.int64)
    for index, value in enumerate(values):
        if not isinstance(value, numbers.Integral) or not 0 <= value < _LIMIT:
            raise ValueError(
                f"{column}[{index}] = {value} is not an integer in [0, 2**63)"
            )
    # An object column of in-range integers.
    return np.asarray(values, dtype=np.int64)


class Trace:
    """An immutable sequence of accesses stored as four parallel columns.

    :meth:`arrays` gives the columns as arrays; ``addresses``,
    ``is_write``, ``pcs`` and ``instr_gaps`` are lists of Python
    ``int``/``bool`` built on first read.  Neither may be mutated:
    decodes and per-core views share them.

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
        if address_space not in ("private", "global"):
            raise ValueError(
                "address_space must be 'private' or 'global', "
                f"got {address_space!r}"
            )
        address_array = _int64_column(addresses, "addresses")
        n = len(address_array)
        write_array = np.asarray(is_write)
        if write_array.dtype != np.bool_:
            write_array = _int64_column(is_write, "is_write") != 0
        arrays = (
            address_array,
            np.ascontiguousarray(write_array).view(np.uint8),
            np.zeros(n, dtype=np.int64)
            if pcs is None
            else _int64_column(pcs, "pcs"),
            np.ones(n, dtype=np.int64)
            if instr_gaps is None
            else _int64_column(instr_gaps, "instr_gaps"),
        )
        if any(len(array) != n for array in arrays):
            raise ValueError("trace columns must have equal length")
        self.name = name
        self.address_space = address_space
        self._length = n
        self._arrays: TraceArrays = tuple(_read_only(a) for a in arrays)
        self._lists: list = [None] * 4
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

        The constructor under its array name: any integer dtype or
        stride is normalized once into C-contiguous int64 addresses,
        PCs and gaps and a uint8 write column (nonzero is a store).
        The trace shares, not copies, arrays that already have that
        layout, so the caller must not write to them afterwards.
        """
        return cls(addresses, is_write, pcs, instr_gaps, name, address_space)

    def arrays(self) -> TraceArrays:
        """The columns as read-only kernel-ready arrays.

        ``(addresses, is_write, pcs, instr_gaps)`` as int64, uint8, int64
        and int64.
        """
        return self._arrays

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
        self.__init__(
            addresses, is_write, pcs, instr_gaps, name,
            state[5] if len(state) > 5 else "private",
        )

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
        """A sub-trace covering records ``[start, stop)``; it shares
        this trace's arrays and builds no list."""
        addresses, is_write, pcs, gaps = self._arrays
        return Trace(
            addresses[start:stop],
            is_write[start:stop].view(np.bool_),
            pcs[start:stop],
            gaps[start:stop],
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
