"""The set-associative write-back cache core.

Policy-agnostic: all replacement intelligence lives behind the
:class:`~repro.cache.policy.ReplacementPolicy` hooks.  The core handles
lookup, allocation into invalid ways, write-back bookkeeping, bypass
plumbing, and the statistics every experiment consumes (including the
read/write line-class accounting the paper's motivation figures need).

Writes model the write-allocate path of an LLC receiving writebacks from
the level above: a write hit dirties the line, a write miss allocates a
dirty line (unless the policy bypasses it, modeling write-no-allocate).

The access pipeline has three layers (see ``docs/ARCHITECTURE.md``):

1. the decode layer (:mod:`repro.trace.decode`) splits addresses into
   ``(set_index, tag)`` once per trace x geometry;
2. this core either replays decoded accesses in bulk through
   :meth:`SetAssociativeCache.run_trace` (the hot path: hoisted
   attribute lookups, inlined hit handling, optionally fused timing) or
   one at a time through :meth:`SetAssociativeCache.access`;
3. the policy's ABI v2 :class:`~repro.cache.policy.DispatchPlan` tells
   the core which hooks exist, so no-op hooks are never called.

Both drivers share the cold paths (:meth:`_miss_path` / :meth:`_evict`)
and are held bit-identical by the differential harness and the batch
equivalence property tests.
"""

from __future__ import annotations

from itertools import repeat
from typing import Dict, Iterator, List, Tuple

from repro.cache.line import CacheLine
from repro.cache.policy import ReplacementPolicy
from repro.common.config import CacheConfig

#: access() return type: (hit, bypassed, writeback_address_or_minus_1)
AccessOutcome = Tuple[bool, bool, int]

#: batch-driver chunk size: big enough to amortize slicing, small enough
#: that the four stream slices stay cache- and memory-friendly.
RUN_TRACE_CHUNK = 1 << 16


class CacheSet:
    """One set: fixed ways plus a tag->line index for O(1) lookup.

    ``dirty_lines`` is maintained by the cache core at every dirty-state
    transition (fill, first write hit, eviction, invalidation), so
    partition-aware policies (RWP) can split a set without rescanning it.
    """

    __slots__ = ("lines", "lookup", "filled", "dirty_lines")

    def __init__(self, ways: int) -> None:
        self.lines: List[CacheLine] = [CacheLine() for _ in range(ways)]
        self.lookup: Dict[int, CacheLine] = {}
        self.filled = 0
        self.dirty_lines = 0

    def valid_lines(self) -> List[CacheLine]:
        return [line for line in self.lines if line.valid]

    def dirty_count(self) -> int:
        return sum(1 for line in self.lines if line.valid and line.dirty)


class CacheStats:
    """All demand/prefetch counters for one cache, as one mutable struct.

    Shared by the scalar and batch drivers, ``snapshot()`` and
    ``reset()``, so the counter list exists in exactly one place.
    """

    __slots__ = (
        "read_hits",
        "read_misses",
        "write_hits",
        "write_misses",
        "writebacks",
        "bypasses",
        "evictions",
        "dirty_evictions",
        "invalidations",
        "evicted_read_only",
        "evicted_write_only",
        "evicted_read_write",
        "prefetch_fills",
        "prefetch_useful",
        "prefetch_unused_evictions",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.read_hits = 0
        self.read_misses = 0
        self.write_hits = 0
        self.write_misses = 0
        self.writebacks = 0
        self.bypasses = 0
        self.evictions = 0
        self.dirty_evictions = 0
        self.invalidations = 0
        # Line-class accounting at eviction (motivation figures F1/F2).
        self.evicted_read_only = 0
        self.evicted_write_only = 0
        self.evicted_read_write = 0
        # Prefetch statistics.
        self.prefetch_fills = 0
        self.prefetch_useful = 0
        self.prefetch_unused_evictions = 0

    def snapshot(self, prefix: str) -> Dict[str, int]:
        """All counters as a flat dict keyed ``{prefix}.{counter}``."""
        return {f"{prefix}.{name}": getattr(self, name) for name in self.__slots__}


class SetAssociativeCache:
    """A single cache level driven by a pluggable replacement policy."""

    def __init__(self, config: CacheConfig, policy: ReplacementPolicy) -> None:
        self.config = config
        self.policy = policy
        # ``sets`` is built on first read (see ``__getattr__``); until
        # then the line state is ``_image``, a kernel's SoA image, or
        # an all-invalid cache when that is None too.
        self._image = None
        self.ways = config.ways
        self.tick = 0
        self.stats = CacheStats()

        self._offset_bits = config.offset_bits
        self._index_mask = config.num_sets - 1
        self._index_bits = config.index_bits
        self._tag_shift = config.offset_bits + config.index_bits

        #: optional callback(address, was_dirty) fired on every eviction;
        #: used by inclusive hierarchies for back-invalidation.
        self.eviction_listener = None
        #: optional callback(set_index, tag, is_write, pc, core) fired
        #: before every demand access; install via
        #: :meth:`set_access_listener` (used by the multicore sharer
        #: directory).  Orthogonal to the policy's observe hook.
        self.access_listener = None
        #: True once any prefetch was installed; lets the batch driver
        #: skip the per-hit ``line.prefetched`` check for demand-only runs.
        self._prefetch_active = False
        #: True while every set's lookup dict is known to be in recency
        #: (stamp) order -- the invariant `run_lru_filter` maintains and
        #: the kernel scatter re-arms (sets built from a resident image
        #: come out stamp-sorted).  When it holds across calls, the
        #: filter's stamp-sorted rebuild is skipped.
        self._lookup_ordered = False
        # Cached [set.lookup] / [set.lookup.get] tables for the batch
        # drivers; dict objects are only ever replaced by a stamp-sorted
        # rebuild, which updates these lists in place.
        self._lookups: List[Dict[int, CacheLine]] | None = None
        self._getters: list | None = None
        #: optional ``repro.kernels.KernelRuntime``: when set, the batch
        #: entry points offer each replay to the SoA kernels first and
        #: fall back to the dict drivers on any unsupported shape.
        self.kernel = None

        # ABI v2: the policy declares its capabilities after attach and
        # the resolved plan is unpacked into per-hook attributes, so the
        # drivers dispatch through pre-bound methods (None = hook unused).
        policy.attach(self)
        plan = policy.dispatch_plan()
        self.plan = plan
        self._observe = plan.observe
        self._on_sample = plan.on_sample
        self._sample_stride = plan.sample_stride
        self._on_epoch = plan.on_epoch
        self._epoch_period = plan.epoch_period
        self._epoch_left = plan.epoch_period
        self._should_bypass = plan.should_bypass
        self._victim = plan.victim
        self._on_fill = plan.on_fill
        self._on_hit = plan.on_hit
        self._on_evict = plan.on_evict
        self._needs_pc = plan.needs_pc
        self._pre_active = (
            plan.observe is not None
            or plan.sample_stride > 0
            or plan.epoch_period > 0
        )

    def __getattr__(self, name: str):
        """Build ``sets`` on first read; any other miss is an error.

        Python calls this only when normal lookup fails, so once the
        sets exist reading them costs nothing.  A kernel run hands its
        SoA image to the cache (:func:`repro.kernels.soa.scatter_lines`)
        and drops the objects; the next read rebuilds them from that
        image.  Across a kernel call, read ``cache.sets`` afresh: a
        saved list, :class:`CacheSet` or line is stale afterwards.
        """
        if name != "sets":
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        image = self.__dict__.get("_image")
        if image is None:
            sets = [CacheSet(self.ways) for _ in range(self.config.num_sets)]
        else:
            from repro.kernels.soa import materialize_sets

            sets = materialize_sets(image, self.ways)
            self._image = None
        self.sets = sets
        return sets

    def set_access_listener(self, callback) -> None:
        """Install (or clear) the pre-access listener.

        ``_pre_active`` is resolved at construction, so the listener
        must be installed through this setter for the drivers to see
        it; assigning the attribute directly would leave the hoisted
        batch loops running without it.
        """
        self.access_listener = callback
        plan = self.plan
        self._pre_active = (
            callback is not None
            or plan.observe is not None
            or plan.sample_stride > 0
            or plan.epoch_period > 0
        )

    # -- the hot path ----------------------------------------------------
    def access(
        self, address: int, is_write: bool, pc: int = 0, core: int = 0
    ) -> AccessOutcome:
        """One demand access; returns (hit, bypassed, writeback_addr|-1)."""
        return self._access_decoded(
            (address >> self._offset_bits) & self._index_mask,
            address >> self._tag_shift,
            is_write,
            pc,
            core,
        )

    def _lookup_tables(self) -> Tuple[List[Dict[int, CacheLine]], list]:
        """The cached per-set lookup dicts and their bound ``.get``s."""
        if self._lookups is None:
            self._lookups = [s.lookup for s in self.sets]
            self._getters = [lookup.get for lookup in self._lookups]
        return self._lookups, self._getters

    def _access_decoded(
        self, set_index: int, tag: int, is_write: bool, pc: int, core: int
    ) -> AccessOutcome:
        """One demand access with the decode already done."""
        self.tick += 1
        # A scalar hit bumps the stamp without moving the dict entry,
        # so the recency-order invariant no longer holds.
        self._lookup_ordered = False
        if self._pre_active:
            self._pre_observe(set_index, tag, is_write, pc, core)

        cache_set = self.sets[set_index]
        line = cache_set.lookup.get(tag)
        if line is not None:
            stats = self.stats
            if line.prefetched:
                stats.prefetch_useful += 1
                line.prefetched = False
            if is_write:
                stats.write_hits += 1
                if not line.dirty:
                    cache_set.dirty_lines += 1
                line.dirty = True
                line.write_seen = True
            else:
                stats.read_hits += 1
                line.read_seen = True
            if self._on_hit is not None:
                self._on_hit(cache_set, line, set_index, is_write, pc, core)
            return (True, False, -1)
        return self._miss_path(cache_set, set_index, tag, is_write, pc, core)

    def _pre_observe(
        self, set_index: int, tag: int, is_write: bool, pc: int, core: int
    ) -> None:
        """Pre-lookup policy notification: full, sampled, and/or epoch."""
        if self.access_listener is not None:
            self.access_listener(set_index, tag, is_write, pc, core)
        if self._observe is not None:
            self._observe(set_index, tag, is_write, pc, core)
            return
        stride = self._sample_stride
        if stride and not set_index % stride:
            self._on_sample(set_index, tag, is_write, pc, core)
        if self._epoch_period:
            self._epoch_left -= 1
            if not self._epoch_left:
                self._epoch_left = self._epoch_period
                self._on_epoch()

    def _miss_path(
        self,
        cache_set: CacheSet,
        set_index: int,
        tag: int,
        is_write: bool,
        pc: int,
        core: int,
    ) -> AccessOutcome:
        """Cold path shared by both drivers: account, bypass, fill/evict."""
        stats = self.stats
        if is_write:
            stats.write_misses += 1
        else:
            stats.read_misses += 1

        if self._should_bypass is not None and self._should_bypass(
            set_index, tag, is_write, pc, core
        ):
            stats.bypasses += 1
            return (False, True, -1)

        writeback_addr = -1
        if cache_set.filled < self.ways:
            line = next(l for l in cache_set.lines if not l.valid)
            cache_set.filled += 1
        else:
            line, writeback_addr = self._evict(
                cache_set, set_index, is_write, pc, core
            )

        line.reset_for_fill(tag, is_write, core)
        if is_write:
            cache_set.dirty_lines += 1
        cache_set.lookup[tag] = line
        if self._on_fill is not None:
            self._on_fill(cache_set, line, set_index, is_write, pc, core)
        return (False, False, writeback_addr)

    def _evict(
        self,
        cache_set: CacheSet,
        set_index: int,
        is_write: bool,
        pc: int,
        core: int,
    ) -> Tuple[CacheLine, int]:
        """Evict one line from a full set; returns (line, writeback|-1).

        The single eviction path for demand misses and prefetch fills:
        policy victim choice, training notification, class accounting,
        writeback bookkeeping, and the hierarchy's eviction listener.
        """
        line = self._victim(cache_set, set_index, is_write, pc, core)
        if self._on_evict is not None:
            self._on_evict(line, set_index)
        self._account_eviction(line)
        if line.dirty:
            cache_set.dirty_lines -= 1
        del cache_set.lookup[line.tag]
        writeback_addr = -1
        if line.dirty or self.eviction_listener is not None:
            victim_addr = (
                (line.tag << self._index_bits) | set_index
            ) << self._offset_bits
            if line.dirty:
                self.stats.writebacks += 1
                writeback_addr = victim_addr
            if self.eviction_listener is not None:
                self.eviction_listener(victim_addr, line.dirty)
        return line, writeback_addr

    # -- the batch driver -------------------------------------------------
    def run_trace(
        self,
        decoded,
        start: int = 0,
        stop: int | None = None,
        *,
        timing=None,
        core: int = 0,
        warmup: int | None = None,
    ) -> int:
        """Replay decoded accesses ``[start, stop)``; returns the count run.

        ``decoded`` is a :class:`~repro.trace.decode.DecodedTrace` for
        this cache's geometry (see ``Trace.decoded(config)``).  Produces
        bit-identical state, statistics, and timing to calling
        :meth:`access` in a loop; the speedup comes from hoisting
        attribute lookups and hook checks out of the loop and inlining
        the hit fast path.

        ``timing``: optional :class:`~repro.cpu.timing.TimingModel`
        advanced exactly as :class:`~repro.cpu.core.LLCRunner` does per
        access (instruction gap, read hit/miss stalls, write-buffer
        pressure for bypassed writes and writebacks).

        ``warmup``: an access index in ``[start, stop]`` at which the
        replay zeroes the statistics (:meth:`reset_stats`) and
        ``timing`` (``TimingModel.reset``), so both count only
        ``[warmup, stop)`` -- :class:`~repro.cpu.core.LLCRunner`'s
        measured window, run in one call.  An exception raised by a
        policy hook before ``warmup`` propagates with nothing zeroed.

        During a batch replay the statistics counters, ``tick``, and a
        recency-stamped policy's clock live in loop locals and are
        flushed on every exit -- policy hooks fired mid-run (``on_epoch``
        and friends) must not read them from the cache.  No shipped
        policy does.  An exception from a pre-lookup hook (the epoch,
        sampling or access-listener hook) propagates after that flush
        and leaves what :meth:`access` leaves: the access it raised in
        counts in ``tick``, its gap and its cycles, not in the
        statistics.
        """
        n = len(decoded)
        if stop is None:
            stop = n
        if not 0 <= start <= stop <= n:
            raise ValueError(
                f"invalid access range [{start}, {stop}) for {n}-access trace"
            )
        if not decoded.matches(self.config):
            raise ValueError(
                f"decoded trace geometry {decoded.geometry_key} does not "
                f"match cache geometry ({self.config.offset_bits}, "
                f"{self.config.index_bits})"
            )
        if warmup is not None and not start <= warmup <= stop:
            raise ValueError(
                f"warmup {warmup} outside the access range [{start}, {stop}]"
            )
        if self.kernel is not None:
            ran = self.kernel.try_run_trace(
                self, decoded, start, stop, timing, core, warmup
            )
            if ran is not None:
                return ran
        if warmup is None:
            return self._run_dict(decoded, start, stop, timing, core)
        ran = self._run_dict(decoded, start, warmup, timing, core)
        self.reset_stats()
        if timing is not None:
            timing.reset()
        return ran + self._run_dict(decoded, warmup, stop, timing, core)

    def _run_dict(
        self, decoded, start: int, stop: int, timing, core: int
    ) -> int:
        """The dict-driven batch loop over ``[start, stop)``."""
        # Hits bump stamps without moving dict entries, so the
        # recency-order invariant of the lookup dicts dies.
        self._lookup_ordered = False

        # Hoist every per-access attribute chase into locals.  The miss
        # path is inlined below with the same operation order as
        # ``_miss_path``/``_evict`` (the batch-equivalence property tests
        # and the differential harness pin the two paths together).
        sets = self.sets
        lookups, _ = self._lookup_tables()
        stats = self.stats
        observe = self._observe
        access_listener = self.access_listener
        on_sample = self._on_sample
        stride = self._sample_stride
        period = self._epoch_period
        pre_active = self._pre_active
        on_hit = self._on_hit
        on_fill = self._on_fill
        # Recency-stamped policies (see RecencyStampMixin): hoist the
        # policy clock and stamp lines inline instead of calling the
        # on_hit/on_fill hook pair on every access.
        stamp = self.plan.stamp_policy
        stamping = stamp is not None
        clock = stamp._clock if stamping else 0
        if stamping:
            on_hit = None
            on_fill = None
        should_bypass = self._should_bypass
        victim = self._victim
        on_evict = self._on_evict
        listener = self.eviction_listener
        index_bits = self._index_bits
        offset_bits = self._offset_bits
        ways = self.ways
        prefetch_active = self._prefetch_active
        epoch_left = self._epoch_left
        read_hits = stats.read_hits
        write_hits = stats.write_hits
        prefetch_useful = stats.prefetch_useful
        read_misses = stats.read_misses
        write_misses = stats.write_misses
        bypasses = stats.bypasses
        evictions = stats.evictions
        dirty_evictions = stats.dirty_evictions
        writebacks = stats.writebacks
        evicted_ro = stats.evicted_read_only
        evicted_wo = stats.evicted_write_only
        evicted_rw = stats.evicted_read_write
        prefetch_unused = stats.prefetch_unused_evictions

        set_stream = decoded.set_indices
        tag_stream = decoded.tags
        write_stream = decoded.is_write
        pc_stream = decoded.pcs if self._needs_pc else None
        timed = timing is not None
        if timed:
            # Per-access cycle costs are precomputed per (trace, CPI) --
            # same IEEE products the scalar path multiplies out per
            # access -- and retired instructions are summed at flush.
            cycle_stream = decoded.cycle_gaps(timing.core.base_cpi)
            mlp = timing.core.mlp
            # Same operands as TimingModel.read_hit/read_miss compute per
            # call, so the hoisted constants are bit-identical floats.
            hit_stall = timing.llc_hit_latency / mlp
            miss_stall = timing.memory.latency / mlp
            cycles = timing.cycles
            read_stall = timing.read_stall_cycles
            write_stall = timing.write_stall_cycles
            # Write-buffer state, hoisted: the loop below inlines
            # WriteBufferModel.issue (same arithmetic, same order) to
            # avoid a Python call per writeback.
            write_buffer = timing.write_buffer
            wb_completions = write_buffer._completions
            wb_pop = wb_completions.popleft
            wb_append = wb_completions.append
            wb_entries = write_buffer.entries
            wb_drain = write_buffer.drain_cycles
            wb_server_free = write_buffer._server_free
            wb_stall_cycles = write_buffer.stall_cycles
            wb_writes = write_buffer.total_writes
        else:
            cycle_stream = None
            cycles = 0.0

        # Every completed access counts once in these four, so on an
        # exception their sum gives the position without per-access work.
        counted = read_hits + write_hits + read_misses + write_misses
        pos = start
        try:
            while pos < stop:
                end = min(pos + RUN_TRACE_CHUNK, stop)
                chunk = zip(
                    set_stream[pos:end],
                    tag_stream[pos:end],
                    write_stream[pos:end],
                    pc_stream[pos:end] if pc_stream is not None else repeat(0),
                    cycle_stream[pos:end] if cycle_stream is not None else repeat(0),
                )
                pos = end
                for si, tag, w, pc, cgap in chunk:
                    if timed:
                        cycles += cgap
                    if pre_active:
                        if access_listener is not None:
                            access_listener(si, tag, w, pc, core)
                        if observe is not None:
                            observe(si, tag, w, pc, core)
                        else:
                            if stride and not si % stride:
                                on_sample(si, tag, w, pc, core)
                            if period:
                                epoch_left -= 1
                                if not epoch_left:
                                    epoch_left = period
                                    self._on_epoch()
                    lookup = lookups[si]
                    line = lookup.get(tag)
                    if line is not None:
                        if prefetch_active and line.prefetched:
                            prefetch_useful += 1
                            line.prefetched = False
                        if w:
                            write_hits += 1
                            if not line.dirty:
                                sets[si].dirty_lines += 1
                            line.dirty = True
                            line.write_seen = True
                            if stamping:
                                clock += 1
                                line.stamp = clock
                            elif on_hit is not None:
                                on_hit(sets[si], line, si, w, pc, core)
                        else:
                            read_hits += 1
                            line.read_seen = True
                            if stamping:
                                clock += 1
                                line.stamp = clock
                            elif on_hit is not None:
                                on_hit(sets[si], line, si, w, pc, core)
                            if timed:
                                read_stall += hit_stall
                                cycles += hit_stall
                        continue

                    # Miss: same operation order as _miss_path/_evict.
                    if w:
                        write_misses += 1
                    else:
                        read_misses += 1
                    if should_bypass is not None and should_bypass(
                        si, tag, w, pc, core
                    ):
                        bypasses += 1
                        if timed:
                            if w:
                                # inlined WriteBufferModel.issue(cycles)
                                while wb_completions and wb_completions[0] <= cycles:
                                    wb_pop()
                                if len(wb_completions) >= wb_entries:
                                    stall = wb_pop() - cycles
                                    wb_stall_cycles += stall
                                    write_stall += stall
                                    cycles += stall
                                wb_server_free = (
                                    cycles
                                    if cycles > wb_server_free
                                    else wb_server_free
                                ) + wb_drain
                                wb_append(wb_server_free)
                                wb_writes += 1
                            else:
                                read_stall += miss_stall
                                cycles += miss_stall
                        continue
                    cache_set = sets[si]
                    wb = -1
                    if cache_set.filled < ways:
                        for line in cache_set.lines:
                            if not line.valid:
                                break
                        cache_set.filled += 1
                    else:
                        line = victim(cache_set, si, w, pc, core)
                        if on_evict is not None:
                            on_evict(line, si)
                        evictions += 1
                        dirty = line.dirty
                        if dirty:
                            dirty_evictions += 1
                            cache_set.dirty_lines -= 1
                        if line.prefetched:
                            prefetch_unused += 1
                        elif line.read_seen:
                            if line.write_seen:
                                evicted_rw += 1
                            else:
                                evicted_ro += 1
                        else:
                            evicted_wo += 1
                        del lookup[line.tag]
                        if dirty or listener is not None:
                            victim_addr = (
                                (line.tag << index_bits) | si
                            ) << offset_bits
                            if dirty:
                                writebacks += 1
                                wb = victim_addr
                            if listener is not None:
                                listener(victim_addr, dirty)
                    # inlined CacheLine.reset_for_fill(tag, w, core)
                    line.tag = tag
                    line.valid = True
                    line.dirty = w
                    line.stamp = 0
                    line.rrpv = 0
                    line.signature = 0
                    line.outcome = 0
                    line.owner = core
                    line.read_seen = not w
                    line.write_seen = w
                    line.prefetched = False
                    if w:
                        cache_set.dirty_lines += 1
                    lookup[tag] = line
                    if stamping:
                        clock += 1
                        line.stamp = clock
                    elif on_fill is not None:
                        on_fill(cache_set, line, si, w, pc, core)
                    if timed:
                        if not w:
                            read_stall += miss_stall
                            cycles += miss_stall
                        if wb >= 0:
                            # inlined WriteBufferModel.issue(cycles)
                            while wb_completions and wb_completions[0] <= cycles:
                                wb_pop()
                            if len(wb_completions) >= wb_entries:
                                stall = wb_pop() - cycles
                                wb_stall_cycles += stall
                                write_stall += stall
                                cycles += stall
                            wb_server_free = (
                                cycles
                                if cycles > wb_server_free
                                else wb_server_free
                            ) + wb_drain
                            wb_append(wb_server_free)
                            wb_writes += 1
        except BaseException:
            # As in access(), the access a pre-lookup hook raised in
            # counts in tick, its gap and its cycles (already added),
            # not in the statistics.
            stop = start + 1 + (
                read_hits + write_hits + read_misses + write_misses - counted
            )
            raise
        finally:
            self.tick += stop - start
            if stamping:
                stamp._clock = clock
            stats.read_hits = read_hits
            stats.write_hits = write_hits
            stats.prefetch_useful = prefetch_useful
            stats.read_misses = read_misses
            stats.write_misses = write_misses
            stats.bypasses = bypasses
            stats.evictions = evictions
            stats.dirty_evictions = dirty_evictions
            stats.writebacks = writebacks
            stats.evicted_read_only = evicted_ro
            stats.evicted_write_only = evicted_wo
            stats.evicted_read_write = evicted_rw
            stats.prefetch_unused_evictions = prefetch_unused
            self._epoch_left = epoch_left
            if timed:
                timing.cycles = cycles
                timing.instructions += decoded.gap_total(start, stop)
                timing.read_stall_cycles = read_stall
                timing.write_stall_cycles = write_stall
                write_buffer._server_free = wb_server_free
                write_buffer.stall_cycles = wb_stall_cycles
                write_buffer.total_writes = wb_writes
        return stop - start

    # -- the hierarchy filter stage ---------------------------------------
    def lru_filter_eligible(self) -> bool:
        """True when :meth:`run_lru_filter` may replay this cache.

        The filter inlines exactly the pure-LRU stamped plan (the shape
        every private L1/L2 uses): recency-stamp hooks, min-stamp
        victim, and none of the optional machinery -- no observers or
        samplers, no bypass, no evict training, no eviction listener,
        no prefetches in flight, no PC consumers.
        """
        plan = self.plan
        return (
            plan.stamp_policy is not None
            and plan.min_stamp_victim
            and self._observe is None
            and self._on_sample is None
            and self._on_epoch is None
            and self._should_bypass is None
            and self._on_evict is None
            and self.eviction_listener is None
            and self.access_listener is None
            and not self._prefetch_active
            and not self._needs_pc
        )

    def run_lru_filter(
        self,
        set_stream,
        tag_stream,
        write_stream,
        start: int,
        stop: int,
        out_blocks,
        out_write,
        out_origin,
        origins=None,
        levels=None,
        level: int = 0,
        core: int = 0,
    ) -> int:
        """Replay one private-cache stage and emit its downstream stream.

        Batched building block of the hierarchy replay: runs accesses
        ``[start, stop)`` of the (pre-decoded) input op stream against
        this cache with the pure-LRU loop inlined, appending the ops
        the next level would see -- each dirty eviction first (a block
        written back, emitted as a write), then the demand miss
        (forwarded as a read, exactly like the scalar hierarchy's
        miss walk) -- to ``out_blocks`` / ``out_write`` /
        ``out_origin``.  Blocks are line addresses (``address >>
        offset_bits``), which is what makes one stage's output
        decodable by the next level's geometry.

        Two input shapes share the loop:

        * demand mode (``origins is None``, the L1): every input op is
          a demand access ``i``; misses are forwarded regardless of
          type (a write miss allocates here and walks down as a read),
          with origin ``i``.
        * forwarded mode (the L2): ``origins[i]`` names the demand
          access each op descends from; write ops are upstream
          writebacks and are absorbed (only their own evictions walk
          down), read ops are forwarded on miss.  A read hit records
          ``levels[origin] = level`` when ``levels`` is given.

        Returns the number of demand reads forwarded.  Caller must
        check :meth:`lru_filter_eligible` first; state and statistics
        are bit-identical to the scalar walk (the conformance suite
        holds the two together).  This is the dict driver only: with a
        kernel attached, the hierarchy offers its whole stage replay to
        the kernel first, whose ``rw_lru_filter`` is this loop in C.
        """
        sets = self.sets
        lookups, getters = self._lookup_tables()
        stats = self.stats
        stamp = self.plan.stamp_policy
        clock = stamp._clock
        if not self._lookup_ordered:
            for i, lookup in enumerate(lookups):
                if len(lookup) > 1:
                    ordered = dict(
                        sorted(lookup.items(), key=lambda kv: kv[1].stamp)
                    )
                    sets[i].lookup = ordered
                    lookups[i] = ordered
                    getters[i] = ordered.get
        ways = self.ways
        index_bits = self._index_bits
        read_hits = stats.read_hits
        write_hits = stats.write_hits
        read_misses = stats.read_misses
        write_misses = stats.write_misses
        evictions = stats.evictions
        dirty_evictions = stats.dirty_evictions
        writebacks = stats.writebacks
        evicted_ro = stats.evicted_read_only
        evicted_wo = stats.evicted_write_only
        evicted_rw = stats.evicted_read_write
        emit_block = out_blocks.append
        emit_write = out_write.append
        emit_origin = out_origin.append
        demand_mode = origins is None
        forwarded = 0

        if start == 0 and stop == len(set_stream):
            ops = zip(set_stream, tag_stream, write_stream)
        else:
            ops = zip(
                set_stream[start:stop],
                tag_stream[start:stop],
                write_stream[start:stop],
            )
        i = start - 1
        for si, tag, w in ops:
            i += 1
            line = getters[si](tag)
            if line is not None:
                # move-to-end keeps dict order == stamp order
                lookup = lookups[si]
                del lookup[tag]
                lookup[tag] = line
                clock += 1
                line.stamp = clock
                if w:
                    write_hits += 1
                    if not line.dirty:
                        sets[si].dirty_lines += 1
                    line.dirty = True
                    line.write_seen = True
                else:
                    read_hits += 1
                    line.read_seen = True
                    if levels is not None:
                        levels[origins[i]] = level
                continue

            if w:
                write_misses += 1
            else:
                read_misses += 1
            origin = i if demand_mode else origins[i]
            cache_set = sets[si]
            lookup = lookups[si]
            if cache_set.filled < ways:
                for line in cache_set.lines:
                    if not line.valid:
                        break
                cache_set.filled += 1
            else:
                line = next(iter(lookup.values()))
                evictions += 1
                dirty = line.dirty
                if dirty:
                    dirty_evictions += 1
                    cache_set.dirty_lines -= 1
                if line.read_seen:
                    if line.write_seen:
                        evicted_rw += 1
                    else:
                        evicted_ro += 1
                else:
                    evicted_wo += 1
                del lookup[line.tag]
                if dirty:
                    writebacks += 1
                    emit_block((line.tag << index_bits) | si)
                    emit_write(True)
                    emit_origin(origin)
            # inlined CacheLine.reset_for_fill(tag, w, core)
            line.tag = tag
            line.valid = True
            line.dirty = w
            line.rrpv = 0
            line.signature = 0
            line.outcome = 0
            line.owner = core
            line.read_seen = not w
            line.write_seen = w
            line.prefetched = False
            if w:
                cache_set.dirty_lines += 1
            clock += 1
            line.stamp = clock
            lookup[tag] = line
            if demand_mode or not w:
                emit_block((tag << index_bits) | si)
                emit_write(False)
                emit_origin(origin)
                forwarded += 1

        self.tick += stop - start
        self._lookup_ordered = True
        stamp._clock = clock
        stats.read_hits = read_hits
        stats.write_hits = write_hits
        stats.read_misses = read_misses
        stats.write_misses = write_misses
        stats.evictions = evictions
        stats.dirty_evictions = dirty_evictions
        stats.writebacks = writebacks
        stats.evicted_read_only = evicted_ro
        stats.evicted_write_only = evicted_wo
        stats.evicted_read_write = evicted_rw
        return forwarded

    def fill_prefetch(self, address: int, core: int = 0) -> int:
        """Install a prefetched line; returns the writeback address or -1.

        A no-op when the line is already resident. The fill goes through
        the policy's normal victim/insertion path (a prefetch pollutes
        exactly like a demand fill would) but counts in the prefetch
        statistics instead of the demand counters, and the line is
        tagged so a later demand hit can credit the prefetcher.
        """
        set_index = (address >> self._offset_bits) & self._index_mask
        tag = address >> self._tag_shift
        cache_set = self.sets[set_index]
        if tag in cache_set.lookup:
            return -1
        if self._pre_active:
            self._pre_observe(set_index, tag, False, 0, core)
        writeback_addr = -1
        if cache_set.filled < self.ways:
            line = next(l for l in cache_set.lines if not l.valid)
            cache_set.filled += 1
        else:
            line, writeback_addr = self._evict(cache_set, set_index, False, 0, core)
        line.reset_for_fill(tag, False, core)
        line.read_seen = False  # a prefetch is not a demand read
        line.prefetched = True
        cache_set.lookup[tag] = line
        self._lookup_ordered = False
        if self._on_fill is not None:
            self._on_fill(cache_set, line, set_index, False, 0, core)
        self.stats.prefetch_fills += 1
        self._prefetch_active = True
        return writeback_addr

    # -- maintenance operations -------------------------------------------
    def probe(self, address: int) -> CacheLine | None:
        """Non-intrusive lookup: no stats, no policy updates."""
        set_index = (address >> self._offset_bits) & self._index_mask
        tag = address >> self._tag_shift
        return self.sets[set_index].lookup.get(tag)

    def invalidate(self, address: int) -> bool:
        """Drop a line if present (no writeback); True if it was present.

        The policy sees the line leave through its ``on_evict`` training
        hook (an invalidation ends a line's life exactly like an
        eviction does), but the line does not count as an eviction --
        it counts in the ``invalidations`` stat instead.
        """
        set_index = (address >> self._offset_bits) & self._index_mask
        tag = address >> self._tag_shift
        cache_set = self.sets[set_index]
        line = cache_set.lookup.get(tag)
        if line is None:
            return False
        if self._on_evict is not None:
            self._on_evict(line, set_index)
        self.stats.invalidations += 1
        if line.dirty:
            cache_set.dirty_lines -= 1
        del cache_set.lookup[tag]
        line.invalidate()
        cache_set.filled -= 1
        self._lookup_ordered = False
        return True

    def _account_eviction(self, line: CacheLine) -> None:
        stats = self.stats
        stats.evictions += 1
        if line.dirty:
            stats.dirty_evictions += 1
        if line.prefetched:
            # Fetched but never demanded: pure pollution, tracked apart
            # from the demand line classes.
            stats.prefetch_unused_evictions += 1
            return
        if line.read_seen and line.write_seen:
            stats.evicted_read_write += 1
        elif line.read_seen:
            stats.evicted_read_only += 1
        else:
            stats.evicted_write_only += 1

    # -- statistics --------------------------------------------------------
    def reset_stats(self) -> None:
        """Zero all counters (typically after warmup)."""
        self.stats.reset()

    @property
    def read_hits(self) -> int:
        return self.stats.read_hits

    @property
    def read_misses(self) -> int:
        return self.stats.read_misses

    @property
    def write_hits(self) -> int:
        return self.stats.write_hits

    @property
    def write_misses(self) -> int:
        return self.stats.write_misses

    @property
    def writebacks(self) -> int:
        return self.stats.writebacks

    @property
    def bypasses(self) -> int:
        return self.stats.bypasses

    @property
    def evictions(self) -> int:
        return self.stats.evictions

    @property
    def dirty_evictions(self) -> int:
        return self.stats.dirty_evictions

    @property
    def invalidations(self) -> int:
        return self.stats.invalidations

    @property
    def evicted_read_only(self) -> int:
        return self.stats.evicted_read_only

    @property
    def evicted_write_only(self) -> int:
        return self.stats.evicted_write_only

    @property
    def evicted_read_write(self) -> int:
        return self.stats.evicted_read_write

    @property
    def prefetch_fills(self) -> int:
        return self.stats.prefetch_fills

    @property
    def prefetch_useful(self) -> int:
        return self.stats.prefetch_useful

    @property
    def prefetch_unused_evictions(self) -> int:
        return self.stats.prefetch_unused_evictions

    @property
    def accesses(self) -> int:
        stats = self.stats
        return (
            stats.read_hits
            + stats.read_misses
            + stats.write_hits
            + stats.write_misses
        )

    @property
    def misses(self) -> int:
        return self.stats.read_misses + self.stats.write_misses

    @property
    def read_accesses(self) -> int:
        return self.stats.read_hits + self.stats.read_misses

    def read_miss_rate(self) -> float:
        reads = self.read_accesses
        return self.stats.read_misses / reads if reads else 0.0

    def miss_rate(self) -> float:
        total = self.accesses
        return self.misses / total if total else 0.0

    def snapshot(self) -> Dict[str, int]:
        """All counters as a flat dict keyed by the cache's name."""
        return self.stats.snapshot(self.config.name)

    # -- introspection ------------------------------------------------------
    def resident_lines(self) -> Iterator[CacheLine]:
        """All valid lines (tests and occupancy studies)."""
        for cache_set in self.sets:
            for line in cache_set.lines:
                if line.valid:
                    yield line

    def dirty_fraction(self) -> float:
        """Fraction of valid lines currently dirty."""
        valid = dirty = 0
        for line in self.resident_lines():
            valid += 1
            dirty += line.dirty
        return dirty / valid if valid else 0.0

    def __repr__(self) -> str:
        cfg = self.config
        return (
            f"SetAssociativeCache({cfg.name}: {cfg.size >> 10} KiB, "
            f"{cfg.num_sets}x{cfg.ways}, policy={self.policy.name})"
        )
