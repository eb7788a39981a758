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
an array inside an interpreted loop.  Traces with a value past int64
keep the pure-Python decode over lists.

:meth:`~repro.trace.access.Trace.decoded` caches the result per
geometry, so a sweep replaying one trace under many policies decodes it
exactly once.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

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

    Built from lists (the constructor) it keeps the lists and derives
    the kernel arrays on the first kernel call; built from arrays
    (:meth:`from_arrays`, what :func:`decode_trace` does for any trace
    that fits int64) it keeps the arrays and builds each list on first
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
        self._init(offset_bits, index_bits, name, len(set_indices))
        self._lists = [set_indices, tags, is_write, instr_gaps, pcs]

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
        decoded._init(offset_bits, index_bits, name, len(streams[_SET]))
        decoded._lists = [None] * 5
        decoded._streams = tuple(streams)
        decoded._pc_array = pcs
        return decoded

    def _init(self, offset_bits: int, index_bits: int, name: str, length: int):
        self.offset_bits = offset_bits
        self.index_bits = index_bits
        self.name = name
        self._length = length
        self._streams = None
        self._pc_array = None
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

    def _gap_array(self) -> "np.ndarray":
        """The int64 gap array (converted per call for list-built decodes;
        raises when a gap does not fit int64)."""
        if self._streams is not None:
            return self._streams[_GAP]
        return np.asarray(self._lists[_GAP], dtype=np.int64)

    def gap_total(self, start: int, stop: int) -> int:
        """Instructions retired in ``[start, stop)``: the exact sum.

        Summed in int64 while the window's extreme gap times its length
        fits (no partial sum can wrap), else over Python ints.
        """
        if self._streams is None:
            return sum(self._lists[_GAP][start:stop])
        window = self._streams[_GAP][start:stop]
        if not len(window):
            return 0
        bound = len(window) * max(-int(window.min()), int(window.max()))
        if bound > _INT64_MAX:
            return sum(window.tolist())
        return int(window.sum())

    def kernel_streams(self) -> Optional[Tuple]:
        """The ``(set, tag, write, gap)`` arrays for the C kernels.

        int64 set/tag/gap streams plus a uint8 write stream.  A decode
        built from arrays returns its own; a list-built one converts its
        lists on the first call and keeps the arrays.  ``None`` when a
        stream exceeds int64 -- the kernel layer then falls back to the
        dict driver.
        """
        streams = self._streams
        if streams is None:
            set_indices, tags, is_write, gaps, _ = self._lists
            try:
                streams = (
                    np.asarray(set_indices, dtype=np.int64),
                    np.asarray(tags, dtype=np.int64),
                    np.asarray(is_write, dtype=np.uint8),
                    np.asarray(gaps, dtype=np.int64),
                )
            except (OverflowError, TypeError, ValueError):
                return None
            streams = self._streams = tuple(_sealed(s) for s in streams)
        return streams

    def kernel_pcs(self) -> Optional["np.ndarray"]:
        """The PC stream as an int64 array for the C kernels.

        A decode built from arrays holds the trace's own PC array (and
        each per-core view its offset copy), so returning it costs
        nothing; a list-built decode converts its list on the first call
        and keeps the array.  ``None`` when a PC exceeds int64.
        """
        pcs = self._pc_array
        if pcs is None:
            try:
                pcs = np.asarray(self._lists[_PC], dtype=np.int64)
            except (OverflowError, TypeError, ValueError):
                return None
            pcs = self._pc_array = _sealed(pcs)
        return pcs

    def kernel_cycles(self, base_cpi: float) -> "np.ndarray":
        """Memoized float64 per-access cycle-cost array.

        Element ``i`` is the IEEE double ``gap * base_cpi`` of access
        ``i``: the int64-times-double product, left unboxed, so a
        kernel-only replay never materializes the float list.  A gap
        past int64 takes the same products in Python instead.
        """
        cached = self._np_cycles.get(base_cpi)
        if cached is None:
            try:
                cached = self._gap_array() * float(base_cpi)
            except (OverflowError, TypeError, ValueError):
                cached = np.asarray(
                    [gap * base_cpi for gap in self.instr_gaps],
                    dtype=np.float64,
                )
            self._np_cycles[base_cpi] = _sealed(cached)
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
        them once.  A sum that could pass int64 takes the list path, and
        the kernel then declines the view.
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
        name = f"{self.name}@core{core}"
        view = None
        streams = self._streams
        if streams is not None and self._pc_array is not None:
            tags = _offset_array(streams[_TAG], tag_offset)
            pcs = _offset_array(self._pc_array, pc_offset)
            if tags is not None and pcs is not None:
                view = DecodedTrace.from_arrays(
                    (streams[_SET], tags, streams[_WRITE], streams[_GAP]),
                    pcs,
                    self.offset_bits,
                    self.index_bits,
                    name=name,
                )
                # Lists the dict driver already built stay shared.
                for column in (_SET, _WRITE, _GAP):
                    view._lists[column] = self._lists[column]
        if view is None:
            view = DecodedTrace(
                self.set_indices,
                _offset_stream(self.tags, tag_offset),
                self.is_write,
                _offset_stream(self.pcs, pc_offset) if pc_offset else self.pcs,
                self.instr_gaps,
                self.offset_bits,
                self.index_bits,
                name=name,
            )
        # The gap stream is the same, so its derived products are too.
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


def _offset_array(array: "np.ndarray", offset: int) -> Optional["np.ndarray"]:
    """``array + offset`` in int64, or None unless the sum provably fits."""
    if not offset:
        return array
    if offset >= _OFFSET_GUARD or (
        len(array) and int(array.max()) + offset >= _OFFSET_GUARD
    ):
        return None
    return _sealed(array + offset)


def _offset_stream(values: List[int], offset: int) -> List[int]:
    """``[v + offset for v in values]``, vectorized when int64-safe."""
    if values and offset < _OFFSET_GUARD:
        try:
            array = np.asarray(values, dtype=np.int64)
            if int(array.max()) + offset < _OFFSET_GUARD:
                return (array + offset).tolist()
        except (OverflowError, TypeError, ValueError):
            pass
    return [value + offset for value in values]


def geometry_key(config) -> GeometryKey:
    """The decode-cache key for a :class:`~repro.common.config.CacheConfig`."""
    return (config.offset_bits, config.index_bits)


def decode_addresses(
    addresses: List[int], offset_bits: int, index_bits: int
) -> Tuple[List[int], List[int]]:
    """Split addresses into (set_indices, tags) for one geometry."""
    index_mask = (1 << index_bits) - 1
    tag_shift = offset_bits + index_bits
    try:
        array = np.asarray(addresses, dtype=np.int64)
    except (OverflowError, TypeError, ValueError):
        # Addresses beyond int64 (never produced by our generators, but
        # legal in hand-written tests): pure-Python decode.
        return (
            [(address >> offset_bits) & index_mask for address in addresses],
            [address >> tag_shift for address in addresses],
        )
    set_indices = ((array >> offset_bits) & index_mask).tolist()
    tags = (array >> tag_shift).tolist()
    return set_indices, tags


def decode_trace(trace, config) -> DecodedTrace:
    """Decode one trace for one geometry (uncached; prefer ``trace.decoded``)."""
    offset_bits = config.offset_bits
    index_bits = config.index_bits
    arrays = trace.arrays()
    if arrays is None:
        set_indices, tags = decode_addresses(
            trace.addresses, offset_bits, index_bits
        )
        return DecodedTrace(
            set_indices,
            tags,
            trace.is_write,
            trace.pcs,
            trace.instr_gaps,
            offset_bits,
            index_bits,
            name=trace.name,
        )
    addresses, is_write, pcs, gaps = arrays
    sets = _sealed((addresses >> offset_bits) & ((1 << index_bits) - 1))
    tags = _sealed(addresses >> (offset_bits + index_bits))
    return DecodedTrace.from_arrays(
        (sets, tags, is_write, gaps), pcs, offset_bits, index_bits,
        name=trace.name,
    )
