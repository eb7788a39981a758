"""Trace decode layer: per-geometry ``(set_index, tag)`` precomputation.

Address decoding -- two shifts and a mask per access -- is pure function
of (address, geometry), yet the scalar hot loop used to redo it for
every access of every run.  A :class:`DecodedTrace` hoists the whole
decode out of the loop: the set indices and tags for one trace x one
geometry are computed once, by shifting and masking the trace's int64
address array.

A decode keeps the same ownership rule as its trace.  The kernel-ready
arrays are its only representation: the set and tag arrays it computed
plus the trace's own write, gap and PC arrays, which
:meth:`~DecodedTrace.kernel_streams` and
:meth:`~DecodedTrace.kernel_pcs` return without converting anything.
A stream's Python list (``set_indices``, ``tags``, ...) is built only
when the dict driver first reads it: CPython indexes a list faster than
an array inside an interpreted loop.  A trace's values lie in ``[0,
2**63)`` (checked when the trace is built), so every decode fits int64.

:meth:`~repro.trace.access.Trace.decoded` caches the result per
geometry, so a sweep replaying one trace under many policies decodes it
exactly once.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

#: decode cache key: everything address decoding depends on.
GeometryKey = Tuple[int, int]

#: stream positions: the first four are :meth:`DecodedTrace.kernel_streams`
_SET, _TAG, _WRITE, _GAP, _PC = range(5)

#: per-core offsets are added in int64 only while the sum stays below
#: this bound (numpy's int64 addition wraps silently)
_OFFSET_GUARD = 1 << 62

_INT64_MAX = (1 << 63) - 1


def _sealed(array: "np.ndarray") -> "np.ndarray":
    """Mark a freshly computed stream read-only; views share it."""
    array.flags.writeable = False
    return array


class DecodedTrace:
    """One trace pre-decoded for one cache geometry; immutable.

    Holds the kernel arrays and builds each stream's list on first
    read.  A list read from an array holds Python ``int``/``bool``
    values, never numpy scalars.
    """

    __slots__ = (
        "offset_bits",
        "index_bits",
        "name",
        "_length",
        "_lists",
        "_streams",
        "_pc_array",
        "_np_cycles",
    )

    def __init__(
        self,
        set_indices: List[int],
        tags: List[int],
        is_write: List[bool],
        pcs: List[int],
        instr_gaps: List[int],
        offset_bits: int,
        index_bits: int,
        name: str = "trace",
    ) -> None:
        """A decode over Python sequences, converted once into the
        kernel arrays (``OverflowError`` for a value past int64)."""
        self._init(
            tuple(
                _sealed(np.asarray(values, dtype=dtype))
                for values, dtype in (
                    (set_indices, np.int64),
                    (tags, np.int64),
                    (is_write, np.uint8),
                    (instr_gaps, np.int64),
                )
            ),
            _sealed(np.asarray(pcs, dtype=np.int64)),
            offset_bits,
            index_bits,
            name,
        )

    @classmethod
    def from_arrays(
        cls,
        streams: Tuple["np.ndarray", ...],
        pcs: "np.ndarray",
        offset_bits: int,
        index_bits: int,
        name: str = "trace",
    ) -> "DecodedTrace":
        """A decode over ``(set, tag, write, gap)`` kernel arrays and PCs.

        The arrays must already have the kernel layout (int64, uint8 for
        the write stream, C-contiguous) and must not be written to.
        """
        decoded = cls.__new__(cls)
        decoded._init(tuple(streams), pcs, offset_bits, index_bits, name)
        return decoded

    def _init(self, streams, pcs, offset_bits: int, index_bits: int, name: str):
        self.offset_bits = offset_bits
        self.index_bits = index_bits
        self.name = name
        self._length = len(streams[_SET])
        self._lists: list = [None] * 5
        self._streams = streams
        self._pc_array = pcs
        self._np_cycles: dict = {}

    def __len__(self) -> int:
        return self._length

    def _column(self, column: int) -> list:
        """One stream as a list, built from its array on first read."""
        values = self._lists[column]
        if values is None:
            if column == _PC:
                array = self._pc_array
            else:
                array = self._streams[column]
                if column == _WRITE:
                    array = array.view(bool)
            values = self._lists[column] = array.tolist()
        return values

    @property
    def set_indices(self) -> List[int]:
        return self._column(_SET)

    @property
    def tags(self) -> List[int]:
        return self._column(_TAG)

    @property
    def is_write(self) -> List[bool]:
        return self._column(_WRITE)

    @property
    def pcs(self) -> List[int]:
        return self._column(_PC)

    @property
    def instr_gaps(self) -> List[int]:
        return self._column(_GAP)

    def cycle_gaps(self, base_cpi: float) -> List[float]:
        """The ``gap * base_cpi`` stream (cycle cost per access).

        Each element is the same IEEE product the timing model computes
        per access, hoisted out of the replay loop; the batch driver
        adds it to the cycle counter directly.  A fresh list per call,
        unboxed from the memoized :meth:`kernel_cycles` array, so a
        decode never holds the float stream twice.
        """
        return self.kernel_cycles(base_cpi).tolist()

    def gap_total(self, start: int, stop: int) -> int:
        """Instructions retired in ``[start, stop)``: the exact sum.

        Summed in int64 while the window's extreme gap times its length
        fits (no partial sum can wrap), else over Python ints.
        """
        window = self._streams[_GAP][start:stop]
        if not len(window):
            return 0
        bound = len(window) * max(-int(window.min()), int(window.max()))
        if bound > _INT64_MAX:
            return sum(window.tolist())
        return int(window.sum())

    def kernel_streams(self) -> Tuple:
        """The ``(set, tag, write, gap)`` arrays for the C kernels:
        int64 set/tag/gap streams plus a uint8 write stream."""
        return self._streams

    def kernel_pcs(self) -> "np.ndarray":
        """The PC stream as an int64 array for the C kernels.

        The trace's own PC array (each per-core view holds its offset
        copy), so returning it costs nothing.
        """
        return self._pc_array

    def kernel_cycles(self, base_cpi: float) -> "np.ndarray":
        """Memoized float64 per-access cycle-cost array.

        Element ``i`` is the IEEE double ``gap * base_cpi`` of access
        ``i``: the int64-times-double product, left unboxed, so a
        kernel-only replay never materializes the float list.
        """
        cached = self._np_cycles.get(base_cpi)
        if cached is None:
            cached = self._np_cycles[base_cpi] = _sealed(
                self._streams[_GAP] * float(base_cpi)
            )
        return cached

    def with_core_offset(
        self, core: int, address_stride: int, pc_stride: int
    ) -> "DecodedTrace":
        """A per-core view of this decode with offset address/PC spaces.

        Multicore runs place each core's working set in a disjoint
        address region (``address + core * address_stride``).  When the
        stride is a multiple of the tag granularity
        (``1 << (offset_bits + index_bits)`` -- true for
        ``CORE_ADDRESS_STRIDE`` at every geometry we simulate), the
        offset touches only the tag bits: the set, write and gap arrays
        are *shared* with this decode (same objects), and the tag and PC
        arrays are one vectorized add each.  The memoized cycle-cost
        arrays are shared too, so N cores replaying one trace derive
        them once.  A sum that could pass ``2**62`` raises ``ValueError``
        (``SharedLLCSystem.run`` then records it and runs its scalar
        interleave).
        """
        tag_granularity = 1 << (self.offset_bits + self.index_bits)
        if address_stride % tag_granularity:
            raise ValueError(
                f"address stride {address_stride:#x} is not a multiple of "
                f"the tag granularity {tag_granularity:#x}; per-core views "
                "would change set indices"
            )
        tag_offset = core * (address_stride >> (self.offset_bits + self.index_bits))
        pc_offset = core * pc_stride
        if not tag_offset and not pc_offset:
            return self
        streams = self._streams
        view = DecodedTrace.from_arrays(
            (
                streams[_SET],
                _offset_array(streams[_TAG], tag_offset, "tag"),
                streams[_WRITE],
                streams[_GAP],
            ),
            _offset_array(self._pc_array, pc_offset, "PC"),
            self.offset_bits,
            self.index_bits,
            name=f"{self.name}@core{core}",
        )
        # Lists the dict driver already built stay shared; the gap
        # stream is the same, so its derived products are too.
        for column in (_SET, _WRITE, _GAP):
            view._lists[column] = self._lists[column]
        view._np_cycles = self._np_cycles
        return view

    @property
    def geometry_key(self) -> GeometryKey:
        return (self.offset_bits, self.index_bits)

    def matches(self, config) -> bool:
        """True when this decode is valid for ``config``'s geometry."""
        return (
            self.offset_bits == config.offset_bits
            and self.index_bits == config.index_bits
        )

    def __repr__(self) -> str:
        return (
            f"DecodedTrace({self.name!r}, {len(self)} accesses, "
            f"offset={self.offset_bits}, index={self.index_bits})"
        )


def _offset_array(array: "np.ndarray", offset: int, stream: str) -> "np.ndarray":
    """``array + offset`` in int64; ``ValueError`` unless the sum
    provably fits."""
    if not offset:
        return array
    if offset >= _OFFSET_GUARD or (
        len(array) and int(array.max()) + offset >= _OFFSET_GUARD
    ):
        raise ValueError(
            f"a per-core {stream} offset of {offset:#x} would carry the "
            f"{stream} stream past the int64 guard (2**62)"
        )
    return _sealed(array + offset)


def geometry_key(config) -> GeometryKey:
    """The decode-cache key for a :class:`~repro.common.config.CacheConfig`."""
    return (config.offset_bits, config.index_bits)


def decode_trace(trace, config) -> DecodedTrace:
    """Decode one trace for one geometry (uncached; prefer ``trace.decoded``)."""
    offset_bits = config.offset_bits
    index_bits = config.index_bits
    addresses, is_write, pcs, gaps = trace.arrays()
    sets = _sealed((addresses >> offset_bits) & ((1 << index_bits) - 1))
    tags = _sealed(addresses >> (offset_bits + index_bits))
    return DecodedTrace.from_arrays(
        (sets, tags, is_write, gaps), pcs, offset_bits, index_bits,
        name=trace.name,
    )
