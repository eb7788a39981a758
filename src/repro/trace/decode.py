"""Trace decode layer: per-geometry ``(set_index, tag)`` precomputation.

Address decoding -- two shifts and a mask per access -- is pure function
of (address, geometry), yet the scalar hot loop used to redo it for
every access of every run.  A :class:`DecodedTrace` hoists the whole
decode out of the loop: the set indices and tags for one trace x one
geometry are computed once, vectorized through numpy when the addresses
fit in int64 (they essentially always do), and then handed to the batch
driver as plain Python lists, which CPython indexes faster than numpy
arrays inside an interpreted loop.

:meth:`~repro.trace.access.Trace.decoded` caches the result per
geometry, so a sweep replaying one trace under many policies decodes it
exactly once.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

try:
    import numpy as np
except ImportError:  # pragma: no cover - exercised with numpy stubbed out
    np = None

#: decode cache key: everything address decoding depends on.
GeometryKey = Tuple[int, int]


class DecodedTrace:
    """One trace pre-decoded for one cache geometry.

    ``set_indices`` and ``tags`` are fresh per-geometry lists; the
    ``is_write`` / ``pcs`` / ``instr_gaps`` streams are shared with (not
    copied from) the source :class:`~repro.trace.access.Trace`.
    """

    __slots__ = (
        "set_indices",
        "tags",
        "is_write",
        "pcs",
        "instr_gaps",
        "offset_bits",
        "index_bits",
        "name",
        "_gap_cumsum",
        "_np_streams",
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
        self.set_indices = set_indices
        self.tags = tags
        self.is_write = is_write
        self.pcs = pcs
        self.instr_gaps = instr_gaps
        self.offset_bits = offset_bits
        self.index_bits = index_bits
        self.name = name
        self._gap_cumsum = None
        self._np_streams = None
        self._np_cycles: dict = {}

    def __len__(self) -> int:
        return len(self.set_indices)

    def cycle_gaps(self, base_cpi: float) -> List[float]:
        """The ``gap * base_cpi`` stream (cycle cost per access).

        Each element is the same IEEE product the timing model computes
        per access, hoisted out of the replay loop; the batch driver
        adds it to the cycle counter directly.  A fresh list per call,
        unboxed from the memoized :meth:`kernel_cycles` array, so a
        decode never holds the float stream twice.
        """
        cycles = self.kernel_cycles(base_cpi)
        if cycles is None:
            return [gap * base_cpi for gap in self.instr_gaps]
        return cycles.tolist()

    def gap_cumsum(self) -> List[int]:
        """Memoized inclusive cumsum of ``instr_gaps`` as a plain list.

        A plain Python list (not a numpy array) so per-epoch consumers
        -- the multicore session flushes retired instructions at every
        epoch -- index native ints with no scalar boxing.
        """
        cum = self._gap_cumsum
        if cum is None:
            if np is not None:
                try:
                    cum = np.cumsum(
                        np.asarray(self.instr_gaps, dtype=np.int64)
                    ).tolist()
                except (OverflowError, TypeError, ValueError):
                    cum = None
            if cum is None:
                total = 0
                cum = []
                for gap in self.instr_gaps:
                    total += gap
                    cum.append(total)
            self._gap_cumsum = cum
        return cum

    def gap_total(self, start: int, stop: int) -> int:
        """Instructions retired in ``[start, stop)`` (memoized cumsum)."""
        cum = self.gap_cumsum()
        total = cum[stop - 1] if stop else 0
        return total - (cum[start - 1] if start else 0)

    def kernel_streams(self) -> Optional[Tuple]:
        """Memoized ``(set, tag, write, gap)`` arrays for the C kernels.

        int64 set/tag/gap streams plus a uint8 write stream, converted
        once per decode and reused by every kernel run over it.  ``None``
        when numpy is absent or a stream exceeds int64 -- the kernel
        layer then falls back to the dict driver.
        """
        if np is None:
            return None
        streams = self._np_streams
        if streams is None:
            try:
                streams = (
                    np.asarray(self.set_indices, dtype=np.int64),
                    np.asarray(self.tags, dtype=np.int64),
                    np.asarray(self.is_write, dtype=np.uint8),
                    np.asarray(self.instr_gaps, dtype=np.int64),
                )
            except (OverflowError, TypeError, ValueError):
                return None
            self._np_streams = streams
        return streams

    def kernel_pcs(self) -> Optional["np.ndarray"]:
        """The PC stream as an int64 array for the C kernels.

        Built per call, not memoized: only SHiP and RRP replays read it,
        and a sweep keeps its decodes alive, so a memoized copy would
        hold eight more bytes per access for every trace it touched.
        ``None`` when numpy is absent or a PC exceeds int64.
        """
        if np is None:
            return None
        try:
            return np.asarray(self.pcs, dtype=np.int64)
        except (OverflowError, TypeError, ValueError):
            return None

    def kernel_cycles(self, base_cpi: float) -> Optional["np.ndarray"]:
        """Memoized float64 per-access cycle-cost array.

        Element ``i`` is the IEEE double ``gap * base_cpi`` of access
        ``i``: the int64-times-double product, left unboxed, so a
        kernel-only replay never materializes the float list.
        """
        if np is None:
            return None
        cached = self._np_cycles.get(base_cpi)
        if cached is None:
            try:
                gaps = np.asarray(self.instr_gaps, dtype=np.int64)
                cached = gaps * float(base_cpi)
            except (OverflowError, TypeError, ValueError):
                cached = np.asarray(
                    [gap * base_cpi for gap in self.instr_gaps],
                    dtype=np.float64,
                )
            self._np_cycles[base_cpi] = cached
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
        offset touches only the tag bits: set indices, write flags and
        instruction gaps are *shared* with this decode (same list
        objects), only the tag (and PC) streams are re-materialized.
        The memoized cycle-cost arrays and the gap cumsum are shared
        too, so N cores replaying one trace decode and derive them once.
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
        tags = _offset_stream(self.tags, tag_offset)
        pcs = _offset_stream(self.pcs, pc_offset) if pc_offset else self.pcs
        view = DecodedTrace(
            self.set_indices,
            tags,
            self.is_write,
            pcs,
            self.instr_gaps,
            self.offset_bits,
            self.index_bits,
            name=f"{self.name}@core{core}",
        )
        # Share the derived-stream memoization: the gap streams are the
        # same objects, so the cached products/cumsum stay valid.  The
        # set/tag kernel streams differ per view and stay per-view.
        view._gap_cumsum = self.gap_cumsum()
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


def _offset_stream(values: List[int], offset: int) -> List[int]:
    """``[v + offset for v in values]``, vectorized when int64-safe.

    numpy int64 addition wraps silently on overflow, so the vector path
    is only taken when the result provably fits.
    """
    if values and np is not None and offset < (1 << 62):
        try:
            array = np.asarray(values, dtype=np.int64)
            if int(array.max()) + offset < (1 << 62):
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
    array = None
    if np is not None:
        try:
            array = np.asarray(addresses, dtype=np.int64)
        except (OverflowError, TypeError, ValueError):
            array = None
    if array is None:
        # Addresses beyond int64 (never produced by our generators, but
        # legal in hand-written tests) or no numpy: pure-Python decode.
        return (
            [(address >> offset_bits) & index_mask for address in addresses],
            [address >> tag_shift for address in addresses],
        )
    set_indices = ((array >> offset_bits) & index_mask).tolist()
    tags = (array >> tag_shift).tolist()
    return set_indices, tags


def decode_trace(trace, config) -> DecodedTrace:
    """Decode one trace for one geometry (uncached; prefer ``trace.decoded``)."""
    set_indices, tags = decode_addresses(
        trace.addresses, config.offset_bits, config.index_bits
    )
    return DecodedTrace(
        set_indices,
        tags,
        trace.is_write,
        trace.pcs,
        trace.instr_gaps,
        config.offset_bits,
        config.index_bits,
        name=trace.name,
    )
