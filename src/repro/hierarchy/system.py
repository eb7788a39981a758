"""Three-level memory hierarchy plumbing.

``MemoryHierarchy`` connects an L1D, an L2, a last-level cache (the cache
whose policy is under study) and main memory.  Demand accesses walk down
on misses; dirty evictions walk down as writes (a write-back hierarchy);
nothing walks back up (non-inclusive, no coherence -- the workloads are
single-threaded or multiprogrammed, never sharing lines).

This full mode backs the unit/integration tests and the motivation
experiments.  The bulk experiments drive the LLC directly with LLC-level
traces (see DESIGN.md, design decision 1); :meth:`llc_filter` converts a
raw access stream into the LLC-level stream the shortcut consumes, which
is also how the equivalence of the two modes is validated.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

import numpy as np

from repro.cache.cache import SetAssociativeCache
from repro.cache.policy import ReplacementPolicy, make_policy
from repro.common.config import HierarchyConfig
from repro.hierarchy.memory import MainMemory
from repro.trace.access import Trace

#: levels a demand access can be served at
L1, L2, LLC, MEMORY, BYPASSED = "l1", "l2", "llc", "memory", "bypassed"


def _decode_blocks(blocks, index_mask, index_bits):
    """Split block addresses into (set_indices, tags) for one level.

    Vectorized when the blocks provably fit int64 (hierarchy traces
    always do); numpy's wrapping arithmetic is never allowed to decode
    silently wrong.
    """
    if blocks:
        try:
            array = np.asarray(blocks, dtype=np.int64)
            if int(array.max()) < (1 << 62):
                return (
                    (array & index_mask).tolist(),
                    (array >> index_bits).tolist(),
                )
        except (OverflowError, TypeError, ValueError):
            pass
    return (
        [block & index_mask for block in blocks],
        [block >> index_bits for block in blocks],
    )


class MemoryHierarchy:
    """An L1D + L2 + LLC + memory stack for one (or more) cores."""

    def __init__(
        self,
        config: HierarchyConfig,
        llc_policy: ReplacementPolicy | str = "lru",
        num_l1l2: int = 1,
        inclusive: bool = False,
        backend=None,
    ) -> None:
        if isinstance(llc_policy, str):
            llc_policy = make_policy(llc_policy)
        self.config = config
        #: optional :class:`~repro.mem.backend.MemoryBackend` whose stats
        #: join :meth:`snapshot`.  The hierarchy's *functional* behaviour
        #: (hits, misses, writebacks) never depends on it -- timing does,
        #: and the timing replay lives in the runners.
        self.backend = backend
        #: when True, an LLC eviction back-invalidates the line from every
        #: private L1/L2 (inclusive LLC); a back-invalidated dirty private
        #: copy is written straight to memory (its LLC home is gone).
        self.inclusive = inclusive
        self.back_invalidations = 0
        # Private L1/L2 per core; one shared LLC.
        self.l1s = [
            SetAssociativeCache(config.l1, make_policy("lru"))
            for _ in range(num_l1l2)
        ]
        self.l2s = [
            SetAssociativeCache(config.l2, make_policy("lru"))
            for _ in range(num_l1l2)
        ]
        self.llc = SetAssociativeCache(config.llc, llc_policy)
        self.memory = MainMemory(config.memory)
        if inclusive:
            self.llc.eviction_listener = self._back_invalidate

    def _back_invalidate(self, address: int, was_dirty: bool) -> None:
        """Enforce inclusion: an LLC eviction removes the line above.

        A dirty private copy loses its LLC home, so its data goes
        straight to memory (already counted as one memory write when the
        LLC copy itself was dirty; a clean LLC copy with a dirty L1/L2
        copy pays its own transfer here).
        """
        for l1, l2 in zip(self.l1s, self.l2s):
            for cache in (l1, l2):
                line = cache.probe(address)
                if line is None:
                    continue
                if line.dirty and not was_dirty:
                    self.memory.write(address)
                cache.invalidate(address)
                self.back_invalidations += 1

    def access(
        self, address: int, is_write: bool, pc: int = 0, core: int = 0
    ) -> Tuple[str, int]:
        """One demand access from ``core``; returns (service_level, latency)."""
        config = self.config
        l1 = self.l1s[core]
        hit, _, wb = l1.access(address, is_write, pc, core)
        if wb >= 0:
            self._write_l2(wb, pc, core)
        if hit:
            return (L1, config.l1.hit_latency)

        l2 = self.l2s[core]
        hit, _, wb = l2.access(address, False, pc, core)
        if wb >= 0:
            self._write_llc(wb, pc, core)
        if hit:
            return (L2, config.l2.hit_latency)

        hit, bypassed, wb = self.llc.access(address, False, pc, core)
        if wb >= 0:
            self.memory.write(wb)
        if hit:
            return (LLC, config.llc.hit_latency)
        self.memory.read(address)
        return (MEMORY, config.memory.latency)

    def run_trace(
        self,
        trace: Trace,
        core: int = 0,
        start: int = 0,
        stop: int | None = None,
        collect: bool = False,
        timing=None,
    ):
        """Replay demand accesses ``[start, stop)`` through the stack.

        Batched counterpart of calling :meth:`access` per record: the
        replay runs level by level instead of access by access.  The L1
        replays the whole (pre-decoded) demand stream and emits the op
        stream the L2 would have seen -- each dirty eviction as a
        write, each demand miss forwarded as a read, in the scalar
        walk's order -- the L2 filters that down again, and the LLC
        stage (:meth:`_llc_stage`) replays the residue.  Every level's
        input sequence is exactly the scalar walk's, so cache state,
        statistics, and memory counters are bit-identical (the
        conformance suite holds the two together); the win is that the
        pure-LRU L1/L2 loops run fully inlined and each level's
        machinery is hoisted once per run instead of consulted once per
        access.

        With the native kernel attached, the replay is first offered to
        ``KernelRuntime.try_hierarchy_stages``, which filters L1 and L2
        in C and replays the LLC there too when it ports the LLC's
        policy (otherwise it hands the residue to :meth:`_llc_stage`).

        Returns the per-service-level access counts dict; with
        ``collect=True`` returns ``(counts, levels, mem_writes)`` where
        ``levels[i]`` is the service level of access ``i`` (0=L1, 1=L2,
        2=LLC, 3=memory) and ``mem_writes[i]`` counts the memory
        writes access ``i`` triggered -- everything a timing replay
        needs (see :class:`~repro.cpu.core.HierarchyRunner`).

        ``timing`` (collect mode only) is the caller's
        :class:`~repro.cpu.timing.TimingModel` for the replayed
        accesses.  When the native kernel serves all three levels and
        its walk covers the model's memory (flat, or a ``PCMBackend``),
        it advances ``timing`` itself and ``levels`` and ``mem_writes``
        come back None; otherwise the caller walks them.

        Configurations the staged filters cannot express -- an
        inclusive LLC (back-invalidation re-enters upper levels
        mid-access), an eviction listener, prefetches in flight,
        non-LRU private caches, or mismatched line sizes -- fall back
        to the scalar walk, same results, scalar speed.
        """
        if stop is None:
            stop = len(trace)
        if timing is not None and not collect:
            raise ValueError("a timing walk needs collect mode")
        if not self._batch_supported(core):
            return self._run_trace_scalar(trace, core, start, stop, collect)

        l1 = self.l1s[core]
        l2 = self.l2s[core]
        llc = self.llc
        decoded = trace.decoded(self.config.l1)

        if (
            llc.kernel is not None
            and l1.kernel is not None
            and l2.kernel is not None
        ):
            # Every level under the kernel: the private filters (and the
            # LLC, when its policy is ported) run in C over arrays.
            staged = llc.kernel.try_hierarchy_stages(
                self, l1, l2, llc, decoded, start, stop, collect, core,
                timing=timing,
            )
            if staged is not None:
                return staged

        levels = [0] * stop if collect else None

        # Stage 1: L1 over the demand stream.
        l2_blocks: List[int] = []
        l2_write: List[bool] = []
        l2_origin: List[int] = []
        fwd1 = l1.run_lru_filter(
            decoded.set_indices,
            decoded.tags,
            decoded.is_write,
            start,
            stop,
            l2_blocks,
            l2_write,
            l2_origin,
            core=core,
        )
        l1_hits = (stop - start) - fwd1

        # Stage 2: L2 over the L1 residue (decode blocks to L2 geometry).
        set2, tag2 = _decode_blocks(
            l2_blocks, l2.config.num_sets - 1, l2.config.index_bits
        )
        llc_blocks: List[int] = []
        llc_write: List[bool] = []
        llc_origin: List[int] = []
        fwd2 = l2.run_lru_filter(
            set2,
            tag2,
            l2_write,
            0,
            len(l2_blocks),
            llc_blocks,
            llc_write,
            llc_origin,
            origins=l2_origin,
            levels=levels,
            level=1,
            core=core,
        )
        l2_hits = fwd1 - fwd2
        return self._llc_stage(
            decoded, l1_hits, l2_hits, llc_blocks, llc_write, llc_origin,
            levels, core,
        )

    def _llc_stage(
        self, decoded, l1_hits, l2_hits, blocks, write, origins, levels, core
    ):
        """Stage 3 of :meth:`run_trace`: the LLC (any policy) over the
        L2 residue, in Python; returns :meth:`run_trace`'s result.

        ``blocks``/``write``/``origins`` are the op stream (lists) the L2
        stage emitted, ``levels`` the collect-mode attribution it began
        (None for an untimed run).  The dict filters end here, and so
        does the kernel's stage replay when it declines the LLC.
        """
        llc = self.llc
        memory = self.memory
        index_bits = llc.config.index_bits
        ob = llc.config.offset_bits
        index_mask = llc.config.num_sets - 1

        # A line that scalar access() filled past int64 can write back
        # a block no decode holds.
        overflow = levels is None and bool(blocks) and max(blocks) >= 1 << 63
        if levels is None and llc._should_bypass is None and not overflow:
            # No per-access attribution needed and no bypass decisions
            # possible: replay the residue through the LLC's own batch
            # loop and derive the memory traffic from the statistics
            # deltas (every read miss is one memory read, every
            # writeback one memory write -- exact precisely because
            # nothing can bypass).
            from repro.trace.decode import DecodedTrace

            array = np.asarray(blocks, dtype=np.int64)
            zeros = np.zeros(len(blocks), dtype=np.int64)
            decoded3 = DecodedTrace.from_arrays(
                (
                    array & index_mask,
                    array >> index_bits,
                    np.asarray(write, dtype=np.uint8),
                    zeros,
                ),
                decoded.kernel_pcs()[np.asarray(origins, dtype=np.int64)]
                if llc._needs_pc
                else zeros,
                ob,
                index_bits,
                name=f"{decoded.name}@llc-residue",
            )
            stats = llc.stats
            base_rh = stats.read_hits
            base_rm = stats.read_misses
            base_wb = stats.writebacks
            llc.run_trace(decoded3, core=core)
            llc_hits = stats.read_hits - base_rh
            memory_reads = stats.read_misses - base_rm
            memory.reads += memory_reads
            memory.writes += stats.writebacks - base_wb
            return {
                L1: l1_hits,
                L2: l2_hits,
                LLC: llc_hits,
                MEMORY: memory_reads,
            }

        if levels is None and llc.kernel is not None:
            # An untimed run walks for that block, or because the LLC
            # can bypass: the statistics count bypassed writes (memory
            # writes) with bypassed reads, so only the walk splits them.
            llc.kernel.fallback_reason = (
                "a block address overflows the int64 kernel ABI"
                if overflow
                else f"{type(llc.policy).__name__} can bypass, so the "
                "hierarchy's LLC stage walks the residue per access"
            )
        set3, tag3 = _decode_blocks(blocks, index_mask, index_bits)
        mem = None if levels is None else [0] * len(levels)
        pcs = decoded.pcs
        access = llc._access_decoded
        llc_hits = memory_reads = 0
        for si, tag, block, w, origin in zip(set3, tag3, blocks, write, origins):
            hit, bypassed, wb = access(si, tag, w, pcs[origin], core)
            if w:
                if bypassed:
                    memory.write(block << ob)
                    if mem is not None:
                        mem[origin] += 1
                if wb >= 0:
                    memory.write(wb)
                    if mem is not None:
                        mem[origin] += 1
            else:
                if wb >= 0:
                    memory.write(wb)
                    if mem is not None:
                        mem[origin] += 1
                if hit:
                    llc_hits += 1
                    if levels is not None:
                        levels[origin] = 2
                else:
                    memory.read(block << ob)
                    memory_reads += 1
                    if levels is not None:
                        levels[origin] = 3
        counts = {L1: l1_hits, L2: l2_hits, LLC: llc_hits, MEMORY: memory_reads}
        return counts if levels is None else (counts, levels, mem)

    def _batch_supported(self, core: int) -> bool:
        """True when the staged level-by-level replay is exact here."""
        if self.inclusive or self.llc.eviction_listener is not None:
            return False
        if self.llc._prefetch_active:
            return False
        config = self.config
        if not (
            config.l1.offset_bits
            == config.l2.offset_bits
            == config.llc.offset_bits
        ):
            return False
        return (
            self.l1s[core].lru_filter_eligible()
            and self.l2s[core].lru_filter_eligible()
        )

    def _run_trace_scalar(
        self,
        trace: Trace,
        core: int,
        start: int,
        stop: int,
        collect: bool,
    ):
        """Per-access walk: the executable specification and fallback."""
        l1_access = self.l1s[core].access
        l2_access = self.l2s[core].access
        llc_access = self.llc.access
        memory = self.memory
        memory_read = memory.read
        memory_write = memory.write
        write_l2 = self._write_l2
        write_llc = self._write_llc
        addresses = trace.addresses
        is_write = trace.is_write
        pcs = trace.pcs
        levels = [0] * stop if collect else None
        mem = [0] * stop if collect else None
        l1_hits = l2_hits = llc_hits = memory_reads = 0
        for i in range(start, stop):
            address = addresses[i]
            w = is_write[i]
            pc = pcs[i]
            seen_writes = memory.writes
            level = 0
            hit, _, wb = l1_access(address, w, pc, core)
            if wb >= 0:
                write_l2(wb, pc, core)
            if hit:
                l1_hits += 1
            else:
                hit, _, wb = l2_access(address, False, pc, core)
                if wb >= 0:
                    write_llc(wb, pc, core)
                if hit:
                    l2_hits += 1
                    level = 1
                else:
                    hit, _, wb = llc_access(address, False, pc, core)
                    if wb >= 0:
                        memory_write(wb)
                    if hit:
                        llc_hits += 1
                        level = 2
                    else:
                        memory_read(address)
                        memory_reads += 1
                        level = 3
            if collect:
                levels[i] = level
                mem[i] = memory.writes - seen_writes
        counts = {L1: l1_hits, L2: l2_hits, LLC: llc_hits, MEMORY: memory_reads}
        return (counts, levels, mem) if collect else counts

    def _write_l2(self, address: int, pc: int, core: int) -> None:
        """Absorb an L1 dirty eviction into L2 (write-allocate)."""
        _, _, wb = self.l2s[core].access(address, True, pc, core)
        if wb >= 0:
            self._write_llc(wb, pc, core)

    def _write_llc(self, address: int, pc: int, core: int) -> None:
        """Absorb an L2 dirty eviction into the LLC."""
        _, bypassed, wb = self.llc.access(address, True, pc, core)
        if bypassed:
            self.memory.write(address)
        if wb >= 0:
            self.memory.write(wb)

    # -- LLC-trace extraction ---------------------------------------------
    def llc_filter(self, trace: Trace, core: int = 0) -> Trace:
        """Replay ``trace`` through this hierarchy's L1/L2 and return the
        stream of accesses that reached the LLC (reads = L2 read misses,
        writes = L2 dirty evictions), with instruction gaps re-attributed.

        Mutates the L1/L2 state of ``core`` (use a fresh hierarchy when a
        clean filter is needed).  The LLC itself is *not* touched.
        """
        l1 = self.l1s[core]
        l2 = self.l2s[core]
        out_addr: List[int] = []
        out_write: List[bool] = []
        out_pc: List[int] = []
        out_gap: List[int] = []
        pending_gap = 0

        def emit(address: int, is_write: bool, pc: int) -> None:
            nonlocal pending_gap
            out_addr.append(address)
            out_write.append(is_write)
            out_pc.append(pc)
            out_gap.append(pending_gap)
            pending_gap = 0

        for address, is_write, pc, gap in trace:
            pending_gap += gap
            hit, _, wb1 = l1.access(address, is_write, pc, core)
            if wb1 >= 0:
                _, _, wb2 = l2.access(wb1, True, pc, core)
                if wb2 >= 0:
                    emit(wb2, True, pc)
            if hit:
                continue
            hit, _, wb2 = l2.access(address, False, pc, core)
            if wb2 >= 0:
                emit(wb2, True, pc)
            if not hit:
                emit(address, False, pc)
        return Trace(out_addr, out_write, out_pc, out_gap, name=f"{trace.name}@llc")

    # -- bookkeeping --------------------------------------------------------
    def reset_stats(self) -> None:
        for cache in self.all_caches():
            cache.reset_stats()
        self.memory.reset_stats()

    def all_caches(self) -> Iterable[SetAssociativeCache]:
        yield from self.l1s
        yield from self.l2s
        yield self.llc

    def snapshot(self) -> dict:
        stats: dict = {}
        for index, (l1, l2) in enumerate(zip(self.l1s, self.l2s)):
            for cache in (l1, l2):
                for key, value in cache.snapshot().items():
                    stats[f"core{index}.{key}"] = value
        stats.update(self.llc.snapshot())
        stats.update(self.memory.snapshot())
        if self.backend is not None:
            stats.update(self.backend.stats())
        return stats
