"""Struct-of-arrays line state for the native batch kernels.

A cache's line state lives in one of two forms, never both:

* the dict-of-objects form (:class:`~repro.cache.cache.CacheSet` of
  :class:`~repro.cache.line.CacheLine`, ``cache.sets``) that the scalar
  ``access()`` walk, the dict drivers and the policy hooks read;
* a :class:`LineImage` -- parallel per-line arrays (tags, recency
  stamps, dirty bits, core owners, read/write-seen class bits) plus
  per-set fill/dirty counters -- that the kernels run over.

The image is the cache's state between kernel calls: :func:`gather_lines`
returns the resident image (or a fresh all-invalid one), the kernel
mutates it in place and :func:`scatter_lines` hands it back to the
cache, dropping ``cache.sets``.  The objects are rebuilt by
:func:`materialize_sets` only when Python next reads ``cache.sets``;
gathering from them again (after a scalar ``access()``, say) is the one
path that still walks the line objects.  The arrays are way-major
within a set: line ``j`` of set ``i`` lives at index ``i * ways + j``,
so a kernel's way scan walks the exact ``CacheSet.lines`` order the
reference drivers iterate.  Materialized lookup dicts come out in
ascending stamp order, which is why :func:`scatter_lines` re-arms the
cache's ``_lookup_ordered`` invariant for a follow-up dict
``run_lru_filter``.

Every image a native call runs over passes :func:`check_image` first:
an image outlives a call, so a corrupted column raises ``ValueError``
instead of sending the kernel outside its arrays.

A shared LLC's :class:`~repro.multicore.shared.SharerDirectory` folds
into two more per-line columns: the sharer bitmask (0 = untracked) and
the last writer (-1 = never written).  That works because every
directory entry belongs to a resident line -- entries open on a line's
first touch and close on its eviction -- which the gather checks.

The comparator policies (DIP, DRRIP, SHiP, RRP) add three per-line
columns -- ``rrpv``, ``signature``, ``outcome`` -- and a
:class:`PolicyImage` of their remaining state: set-dueling roles and
PSEL, the coin, the PC-indexed counter table.  The counter table is the
policy's own int64 buffer, bound without a copy and trained in place.
Statistics, the policy clock, samplers, the dueling roles, PSEL and
coin, and the directory are still gathered and scattered eagerly around
every call.

The access streams need no gather: a kernel reads a decode's own
arrays (``DecodedTrace.kernel_streams``, ``kernel_pcs``,
``kernel_cycles``), and :func:`check_streams` validates them.

Everything here returns ``None`` for state the SoA image cannot
represent (tags beyond int64, foreign sampler shapes); callers treat
that as "unsupported" and fall back to the dict driver.
:func:`check_streams` and :func:`check_image` are the exceptions: input
that would make a kernel read or write outside its arrays raises
``ValueError``.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass
from operator import attrgetter
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.cache.cache import CacheSet
from repro.cache.dueling import (
    FOLLOWER,
    TEAM_A,
    TEAM_B,
    SaturatingCounter,
    SetDueling,
)
from repro.common.rng import CheapLCG
from repro.core.sampler import ShadowSet

_BY_STAMP = attrgetter("stamp")

_p_int64 = ctypes.POINTER(ctypes.c_int64)
_p_uint8 = ctypes.POINTER(ctypes.c_uint8)
_p_uint64 = ctypes.POINTER(ctypes.c_uint64)
_p_double = ctypes.POINTER(ctypes.c_double)


def ptr_int64(array) -> "ctypes._Pointer":
    return array.ctypes.data_as(_p_int64)


def ptr_uint8(array) -> "ctypes._Pointer":
    return array.ctypes.data_as(_p_uint8)


def ptr_uint64(array) -> "ctypes._Pointer":
    return array.ctypes.data_as(_p_uint64)


def ptr_double(array) -> "ctypes._Pointer":
    return array.ctypes.data_as(_p_double)


@dataclass
class LineImage:
    """The SoA image of one cache's line and per-set state."""

    tag: "np.ndarray"
    stamp: "np.ndarray"
    owner: "np.ndarray"
    valid: "np.ndarray"
    dirty: "np.ndarray"
    read_seen: "np.ndarray"
    write_seen: "np.ndarray"
    filled: "np.ndarray"
    dirty_lines: "np.ndarray"
    #: the comparator policies' columns; None for the stamped policies
    rrpv: "Optional[np.ndarray]" = None
    signature: "Optional[np.ndarray]" = None
    outcome: "Optional[np.ndarray]" = None


#: the per-line columns every image carries, with their kernel dtypes
_LINE_COLUMNS = (
    ("tag", "int64"),
    ("stamp", "int64"),
    ("owner", "int64"),
    ("valid", "uint8"),
    ("dirty", "uint8"),
    ("read_seen", "uint8"),
    ("write_seen", "uint8"),
)

#: the comparator policies' per-line columns (None on stamped images)
_COMPARATOR_COLUMNS = ("rrpv", "signature", "outcome")

#: the per-set columns
_SET_COLUMNS = ("filled", "dirty_lines")


def fresh_image(num_sets: int, ways: int, comparator: bool = False) -> LineImage:
    """The image of an all-invalid cache: what ``CacheSet(ways)`` holds."""
    count = num_sets * ways
    columns = {}
    if comparator:
        columns = {
            name: np.zeros(count, dtype=np.int64)
            for name in _COMPARATOR_COLUMNS
        }
    return LineImage(
        tag=np.full(count, -1, dtype=np.int64),
        stamp=np.zeros(count, dtype=np.int64),
        owner=np.zeros(count, dtype=np.int64),
        valid=np.zeros(count, dtype=np.uint8),
        dirty=np.zeros(count, dtype=np.uint8),
        read_seen=np.zeros(count, dtype=np.uint8),
        write_seen=np.zeros(count, dtype=np.uint8),
        filled=np.zeros(num_sets, dtype=np.int64),
        dirty_lines=np.zeros(num_sets, dtype=np.int64),
        **columns,
    )


def gather_lines(cache, comparator: bool = False) -> Optional[LineImage]:
    """The image a kernel runs ``cache`` over (way-major).

    The resident image when the cache holds one, a fresh all-invalid
    image when it holds neither image nor line objects, and otherwise
    the line objects flattened into a new image.  ``comparator`` adds
    the ``rrpv``/``signature``/``outcome`` columns; a cache's policy
    never changes, so its resident image already has them or never
    needs them.
    """
    sets = cache.__dict__.get("sets")
    if sets is None:
        image = cache._image
        if image is None:
            return fresh_image(cache.config.num_sets, cache.ways, comparator)
        return image
    lines = [line for cache_set in sets for line in cache_set.lines]
    columns = {}
    try:
        tag = np.array([line.tag for line in lines], dtype=np.int64)
        stamp = np.array([line.stamp for line in lines], dtype=np.int64)
        owner = np.array([line.owner for line in lines], dtype=np.int64)
        if comparator:
            for name in _COMPARATOR_COLUMNS:
                columns[name] = np.array(
                    [getattr(line, name) for line in lines], dtype=np.int64
                )
    except OverflowError:
        return None
    return LineImage(
        tag=tag,
        stamp=stamp,
        owner=owner,
        valid=np.array([line.valid for line in lines], dtype=np.uint8),
        dirty=np.array([line.dirty for line in lines], dtype=np.uint8),
        read_seen=np.array([line.read_seen for line in lines], dtype=np.uint8),
        write_seen=np.array(
            [line.write_seen for line in lines], dtype=np.uint8
        ),
        filled=np.array(
            [cache_set.filled for cache_set in sets], dtype=np.int64
        ),
        dirty_lines=np.array(
            [cache_set.dirty_lines for cache_set in sets], dtype=np.int64
        ),
        **columns,
    )


def scatter_lines(cache, image: LineImage) -> None:
    """Hand the (mutated) image to ``cache`` as its line state.

    Drops any line objects (and the cached ``_lookups``/``_getters``
    tables over them); the next read of ``cache.sets`` rebuilds them
    from the image, lookup dicts in stamp order, so the recency-order
    invariant is re-armed here.
    """
    cache.__dict__.pop("sets", None)
    cache._image = image
    cache._lookups = None
    cache._getters = None
    cache._lookup_ordered = True


def materialize_sets(image: LineImage, ways: int) -> List[CacheSet]:
    """Rebuild ``CacheSet`` objects from an image.

    Every set's lookup dict is built sorted by stamp, the order the
    dict ``run_lru_filter`` keeps.
    """
    tags = image.tag.tolist()
    stamps = image.stamp.tolist()
    owners = image.owner.tolist()
    valids = image.valid.tolist()
    dirtys = image.dirty.tolist()
    read_seens = image.read_seen.tolist()
    write_seens = image.write_seen.tolist()
    filleds = image.filled.tolist()
    dirty_counts = image.dirty_lines.tolist()
    comparator = image.rrpv is not None
    if comparator:
        rrpvs = image.rrpv.tolist()
        signatures = image.signature.tolist()
        outcomes = image.outcome.tolist()

    sets: List[CacheSet] = []
    index = 0
    for set_index in range(len(filleds)):
        cache_set = CacheSet(ways)
        live: List = []
        for line in cache_set.lines:
            line.tag = tags[index]
            line.stamp = stamps[index]
            line.owner = owners[index]
            line.valid = bool(valids[index])
            line.dirty = bool(dirtys[index])
            line.read_seen = bool(read_seens[index])
            line.write_seen = bool(write_seens[index])
            if comparator:
                line.rrpv = rrpvs[index]
                line.signature = signatures[index]
                line.outcome = outcomes[index]
            index += 1
            if line.valid:
                live.append(line)
        live.sort(key=_BY_STAMP)
        cache_set.lookup = {line.tag: line for line in live}
        cache_set.filled = filleds[set_index]
        cache_set.dirty_lines = dirty_counts[set_index]
        sets.append(cache_set)
    return sets


def check_image(image: LineImage, num_sets: int, ways: int) -> None:
    """Validate the image a native call will run over.

    Every column must be a C-contiguous one-dimensional array of its
    kernel dtype, ``num_sets * ways`` long per line or ``num_sets``
    long per set, and every set's ``filled`` count must lie in
    ``[0, ways]`` and equal its number of valid lines (a fill scans for
    an invalid way while ``filled < ways``).  Raises ``ValueError``
    naming the first offending column: the kernel does no bounds checks
    of its own.
    """
    columns = [(name, dtype, num_sets * ways) for name, dtype in _LINE_COLUMNS]
    if image.rrpv is not None:
        columns += [
            (name, "int64", num_sets * ways) for name in _COMPARATOR_COLUMNS
        ]
    columns += [(name, "int64", num_sets) for name in _SET_COLUMNS]
    for name, dtype, length in columns:
        array = getattr(image, name)
        if getattr(array, "dtype", None) != dtype:
            raise ValueError(
                f"{name} column has dtype {getattr(array, 'dtype', None)}, "
                f"the kernel reads {dtype}"
            )
        if array.ndim != 1 or not array.flags.c_contiguous:
            raise ValueError(
                f"{name} column is not a C-contiguous one-dimensional array"
            )
        if len(array) != length:
            raise ValueError(
                f"{name} column has {len(array)} entries, the cache "
                f"{length}"
            )
    if num_sets:
        filled = image.filled
        low, high = int(filled.min()), int(filled.max())
        if low < 0 or high > ways:
            raise ValueError(
                f"filled column holds {low if low < 0 else high}, "
                f"outside [0, {ways}]"
            )
        valid = np.count_nonzero(image.valid.reshape(num_sets, ways), axis=1)
        if not np.array_equal(valid, filled):
            raise ValueError(
                "filled column disagrees with the valid column's line counts"
            )


# -- sharer directory ------------------------------------------------------
#: SharerDirectory counter attributes, in CacheCtx field order.
_DIRECTORY_COUNTERS = (
    "peak_tracked",
    "shared_lines",
    "shared_accesses",
    "shared_writes",
    "write_migrations",
    "shared_evictions",
)


@dataclass
class DirectoryImage:
    """The sharer-directory columns of one cache's SoA image."""

    sharers: "np.ndarray"  # uint64 core bitmask per line, 0 = untracked
    last_writer: "np.ndarray"  # int64 per line, -1 = never written
    tracked: int  # directory entries that matched a resident line


def gather_directory(
    image: LineImage, ways: int, directory
) -> Optional[DirectoryImage]:
    """Fold ``directory.table`` into per-line columns; None if foreign.

    Reads tags and valid bits from ``image``.  Entries of lines not
    resident in it have no column to live in; they are left out of the
    image and of ``tracked``, so the caller compares ``tracked`` with
    ``len(directory.table)``.
    """
    count = len(image.tag)
    sharers = np.zeros(count, dtype=np.uint64)
    last_writer = np.full(count, -1, dtype=np.int64)
    tracked = 0
    table = directory.table
    if table:
        index_bits = directory.index_bits
        tags = image.tag.tolist()
        try:
            for slot in np.flatnonzero(image.valid).tolist():
                entry = table.get((tags[slot] << index_bits) | (slot // ways))
                if entry is not None:
                    mask, writer = entry
                    if mask <= 0:
                        return None
                    sharers[slot] = mask
                    last_writer[slot] = writer
                    tracked += 1
        except (OverflowError, TypeError, ValueError):
            return None
    return DirectoryImage(
        sharers=sharers, last_writer=last_writer, tracked=tracked
    )


def load_directory_counters(ctx, directory) -> None:
    ctx.tracked = len(directory.table)
    for name in _DIRECTORY_COUNTERS:
        setattr(ctx, name, getattr(directory, name))


def scatter_directory(
    directory, image: DirectoryImage, lines: LineImage, ways: int, ctx
) -> None:
    """Rebuild ``directory.table`` and its counters from the columns."""
    slots = np.flatnonzero(image.sharers).tolist()
    sharers = image.sharers.tolist()
    writers = image.last_writer.tolist()
    tags = lines.tag.tolist()
    index_bits = directory.index_bits
    directory.table = {
        (tags[slot] << index_bits) | (slot // ways): [
            sharers[slot],
            writers[slot],
        ]
        for slot in slots
    }
    for name in _DIRECTORY_COUNTERS:
        setattr(directory, name, getattr(ctx, name))


# -- comparator policies ---------------------------------------------------
#: the set-dueling roles the kernel's duel tells apart
_DUEL_ROLES = frozenset((TEAM_A, TEAM_B, FOLLOWER))


@dataclass
class PolicyImage:
    """A comparator policy's state beyond its line columns.

    Keeps the objects it was packed from (``dueling``, ``coin``,
    ``policy``) so :func:`scatter_policy` writes back into them;
    ``counters`` is a view of the policy's own table, which the kernel
    trains in place.  ``describe()`` then reads the same values a dict
    run leaves.
    """

    policy: object
    dueling: Optional[SetDueling] = None  # DIP, DRRIP
    roles: "Optional[np.ndarray]" = None  # uint8 [num_sets]
    coin: Optional[CheapLCG] = None  # DIP, DRRIP, RRP
    coin_odds: int = 1
    #: SHiP SHCT / RRP predictor: an int64 view of the policy's buffer
    counters: "Optional[np.ndarray]" = None
    counter_max: int = 0
    #: RRP: whether write misses may bypass (its plan binds the hook)
    bypass_writes: bool = False


def gather_policy(
    policy,
    num_sets: int,
    *,
    dueling=None,
    coin=None,
    coin_odds: int = 1,
    table=None,
    entries: int = 0,
    counter_max: int = 0,
    bypass_writes: bool = False,
) -> Optional[PolicyImage]:
    """Pack a comparator's dueling/coin/table state; None if foreign.

    Every value the kernel divides by or indexes with is range-checked
    here: the coin odds (a modulus), the dueling roles (one per set),
    the table length (a power of two, ``entries`` long).  The table is
    bound through its buffer, without a copy, so it must be a writable,
    contiguous buffer of exactly ``entries`` int64 items (an
    ``array('q')``); a list, or an ``array('i')``, is foreign.
    """
    image = PolicyImage(policy=policy, bypass_writes=bypass_writes)
    if dueling is not None:
        if (
            type(dueling) is not SetDueling
            or type(dueling.psel) is not SaturatingCounter
            or len(dueling._roles) != num_sets
            or not set(dueling._roles) <= _DUEL_ROLES
        ):
            return None
        image.dueling = dueling
        image.roles = np.array(dueling._roles, dtype=np.uint8)
    if coin is not None:
        if (
            type(coin) is not CheapLCG
            or not 0 <= coin.state <= 0xFFFFFFFF
            or not 1 <= coin_odds < (1 << 63)
        ):
            return None
        image.coin = coin
        image.coin_odds = coin_odds
    if table is not None:
        if entries < 1 or entries & (entries - 1):
            return None
        try:
            # The view carries the buffer's own item format, which
            # np.frombuffer would reinterpret as int64 whatever it is.
            counters = np.asarray(memoryview(table))
        except TypeError:
            return None
        if (
            counters.dtype != np.int64
            or counters.shape != (entries,)
            or not counters.flags.c_contiguous
            or not counters.flags.writeable
        ):
            return None
        image.counters = counters
        image.counter_max = counter_max
    return image


def load_policy(ctx, image: PolicyImage) -> None:
    """Bind a :class:`PolicyImage` into ``ctx`` (OverflowError if too big)."""
    if image.dueling is not None:
        psel = image.dueling.psel
        ctx.roles = ptr_uint8(image.roles)
        ctx.psel = psel.value
        ctx.psel_max = psel.maximum
        ctx.psel_mid = psel._mid
    if image.coin is not None:
        ctx.coin = image.coin.state
        ctx.coin_odds = image.coin_odds
    if image.counters is not None:
        ctx.counters = ptr_int64(image.counters)
        ctx.counter_mask = len(image.counters) - 1
        ctx.counter_max = image.counter_max
    ctx.bypass_writes = int(image.bypass_writes)
    ctx.bypassed_writes = getattr(image.policy, "bypassed_writes", 0)


def scatter_policy(image: PolicyImage, ctx) -> None:
    """Write PSEL, the coin and the bypass count back (the kernel
    trained the counter table in place)."""
    if image.dueling is not None:
        image.dueling.psel.value = ctx.psel
    if image.coin is not None:
        image.coin.state = ctx.coin
    if hasattr(image.policy, "bypassed_writes"):
        image.policy.bypassed_writes = ctx.bypassed_writes


# -- statistics ------------------------------------------------------------
def load_stats(ctx, cache) -> None:
    """Copy the cache-wide counters the kernel maintains into ``ctx``."""
    stats = cache.stats
    ctx.read_hits = stats.read_hits
    ctx.write_hits = stats.write_hits
    ctx.read_misses = stats.read_misses
    ctx.write_misses = stats.write_misses
    ctx.evictions = stats.evictions
    ctx.dirty_evictions = stats.dirty_evictions
    ctx.writebacks = stats.writebacks
    ctx.evicted_ro = stats.evicted_read_only
    ctx.evicted_wo = stats.evicted_write_only
    ctx.evicted_rw = stats.evicted_read_write
    ctx.bypasses = stats.bypasses


def flush_stats(cache, ctx) -> None:
    stats = cache.stats
    stats.read_hits = ctx.read_hits
    stats.write_hits = ctx.write_hits
    stats.read_misses = ctx.read_misses
    stats.write_misses = ctx.write_misses
    stats.evictions = ctx.evictions
    stats.dirty_evictions = ctx.dirty_evictions
    stats.writebacks = ctx.writebacks
    stats.evicted_read_only = ctx.evicted_ro
    stats.evicted_write_only = ctx.evicted_wo
    stats.evicted_read_write = ctx.evicted_rw
    stats.bypasses = ctx.bypasses


# -- shadow sampler --------------------------------------------------------
@dataclass
class SamplerImage:
    """SoA image of one or more ``ReadWriteSampler`` shadow structures."""

    sh_tags: "np.ndarray"  # [samplers][slots][2][ways]
    sh_len: "np.ndarray"  # [samplers][slots][2]
    sh_touched: "np.ndarray"  # [samplers][slots]
    hist: "np.ndarray"  # [samplers][2][ways]
    slots: int


def gather_sampler(
    samplers: Sequence, stride: int, num_sets: int, ways: int
) -> Optional[SamplerImage]:
    """Pack shadow stacks + histograms; None when the shape is foreign.

    Shadow slot ``set_index // stride`` is well-defined because the
    batch drivers only ever feed set indices that are multiples of the
    plan's sample stride; pre-existing state sampled under a different
    stride makes the image unrepresentable and forces the fallback.
    """
    slots = (num_sets + stride - 1) // stride
    count = len(samplers)
    sh_tags = np.zeros((count, slots, 2, ways), dtype=np.int64)
    sh_len = np.zeros((count, slots, 2), dtype=np.int64)
    sh_touched = np.zeros((count, slots), dtype=np.uint8)
    hist = np.zeros((count, 2, ways), dtype=np.int64)
    try:
        for k, sampler in enumerate(samplers):
            if len(sampler.clean_hits) != ways:
                return None
            if len(sampler.dirty_hits) != ways:
                return None
            hist[k, 0, :] = sampler.clean_hits
            hist[k, 1, :] = sampler.dirty_hits
            for set_index, shadow in sampler._sets.items():
                if set_index % stride or set_index // stride >= slots:
                    return None
                clean, dirty = shadow.clean, shadow.dirty
                if len(clean) > ways or len(dirty) > ways:
                    return None
                slot = set_index // stride
                sh_touched[k, slot] = 1
                sh_len[k, slot, 0] = len(clean)
                sh_len[k, slot, 1] = len(dirty)
                sh_tags[k, slot, 0, : len(clean)] = clean
                sh_tags[k, slot, 1, : len(dirty)] = dirty
    except OverflowError:
        return None
    return SamplerImage(
        sh_tags=sh_tags,
        sh_len=sh_len,
        sh_touched=sh_touched,
        hist=hist,
        slots=slots,
    )


def sync_hist_to_python(samplers: Sequence, image: SamplerImage) -> None:
    """Histograms C -> Python (epoch boundary, before ``on_epoch``)."""
    for k, sampler in enumerate(samplers):
        sampler.clean_hits = image.hist[k, 0].tolist()
        sampler.dirty_hits = image.hist[k, 1].tolist()


def sync_hist_to_image(samplers: Sequence, image: SamplerImage) -> None:
    """Histograms Python -> C (epoch boundary, after decay)."""
    for k, sampler in enumerate(samplers):
        image.hist[k, 0, :] = sampler.clean_hits
        image.hist[k, 1, :] = sampler.dirty_hits


def scatter_sampler(
    samplers: Sequence, image: SamplerImage, stride: int
) -> None:
    """Write shadow stacks + histograms back into the sampler objects."""
    sh_tags = image.sh_tags.tolist()
    sh_len = image.sh_len.tolist()
    for k, sampler in enumerate(samplers):
        sampler.clean_hits = image.hist[k, 0].tolist()
        sampler.dirty_hits = image.hist[k, 1].tolist()
        sets = {}
        touched = np.nonzero(image.sh_touched[k])[0].tolist()
        for slot in touched:
            shadow = ShadowSet()
            clean_len, dirty_len = sh_len[k][slot]
            shadow.clean = sh_tags[k][slot][0][:clean_len]
            shadow.dirty = sh_tags[k][slot][1][:dirty_len]
            sets[slot * stride] = shadow
        sampler._sets = sets


# -- write buffer ----------------------------------------------------------
def load_write_buffer(lane, write_buffer) -> "np.ndarray":
    """Bind a write buffer's state into ``lane``; returns the ring array.

    The ring is sized ``entries + 1`` -- ``issue`` pops to at most
    ``entries - 1`` pending completions before appending, so occupancy
    never exceeds ``entries`` and one spare slot keeps head != tail.
    """
    entries = write_buffer.entries
    pending = list(write_buffer._completions)
    ring = np.zeros(entries + 1, dtype=np.float64)
    ring[: len(pending)] = pending
    lane.wb_ring = ptr_double(ring)
    lane.wb_cap = entries + 1
    lane.wb_head = 0
    lane.wb_len = len(pending)
    lane.wb_entries = entries
    lane.wb_drain = write_buffer.drain_cycles
    lane.wb_server_free = write_buffer._server_free
    lane.wb_stall_cycles = write_buffer.stall_cycles
    lane.wb_writes = write_buffer.total_writes
    return ring


def flush_write_buffer(write_buffer, lane, ring: "np.ndarray") -> None:
    completions = write_buffer._completions
    completions.clear()
    head, length, cap = lane.wb_head, lane.wb_len, lane.wb_cap
    values = ring.tolist()
    for k in range(length):
        completions.append(values[(head + k) % cap])
    write_buffer._server_free = lane.wb_server_free
    write_buffer.stall_cycles = lane.wb_stall_cycles
    write_buffer.total_writes = lane.wb_writes


# -- PCM backend -----------------------------------------------------------
#: PCMBackend counters, in PcmCtx field order (int counts, float cycles)
_PCM_COUNTERS = (
    "reads",
    "writes",
    "pause_events",
    "queue_full_stalls",
    "read_wait_cycles",
    "write_stall_cycles",
    "write_busy_cycles",
)


def load_pcm(pctx, backend, mlp, writes: int) -> Tuple:
    """Bind a ``PCMBackend``'s state into ``pctx``; returns its arrays.

    ``writes`` is how many writes the walk will issue.  The write-queue
    heap is sized for the most it can then hold: a write pops one
    completion before pushing when the queue is full, so it never grows
    past ``queue_entries`` or by more than ``writes`` entries.  The
    caller checked that the partition horizons match the partition
    count (the kernel indexes them by partition).
    """
    write_free = np.array(backend._write_free, dtype=np.float64)
    read_free = np.array(backend._read_free, dtype=np.float64)
    pending = backend._write_queue
    capacity = max(
        len(pending), min(backend.queue_entries, len(pending) + writes), 1
    )
    queue = np.zeros(capacity, dtype=np.float64)
    queue[: len(pending)] = pending
    pctx.part_mask = backend._part_mask
    pctx.read_latency = backend.read_latency
    pctx.write_latency = backend.write_latency
    pctx.slice_len = backend.write_latency / backend.pause_slices
    pctx.mlp = mlp
    pctx.queue_entries = backend.queue_entries
    pctx.write_free = ptr_double(write_free)
    pctx.read_free = ptr_double(read_free)
    pctx.queue = ptr_double(queue)
    pctx.queue_len = len(pending)
    for name in _PCM_COUNTERS:
        setattr(pctx, name, getattr(backend, name))
    return write_free, read_free, queue


def flush_pcm(backend, pctx, arrays: Tuple) -> None:
    write_free, read_free, queue = arrays
    backend._write_free = write_free.tolist()
    backend._read_free = read_free.tolist()
    backend._write_queue = queue[: pctx.queue_len].tolist()
    for name in _PCM_COUNTERS:
        setattr(backend, name, getattr(pctx, name))


# -- decoded streams -------------------------------------------------------
def blocks_fit(index_bits: int, *tag_arrays) -> bool:
    """True when every ``(tag << index_bits) | set`` fits int64.

    A lane that emits block addresses (a filter stage, an attributed
    LLC replay) builds them from its stream's tags and its resident
    lines' tags; pass both.
    """
    high = ((1 << 63) - 1) >> index_bits
    low = -(1 << (63 - index_bits))
    for tags in tag_arrays:
        if len(tags) and (int(tags.min()) < low or int(tags.max()) > high):
            return False
    return True


#: the element type each kernel stream must have, by stream name
_STREAM_DTYPES = {
    "set": "int64",
    "tag": "int64",
    "write": "uint8",
    "gap": "int64",
    "cycle": "float64",
    "pc": "int64",
    "origin": "int64",
}


def check_streams(
    num_sets: int,
    start: int,
    stop: int,
    origin_limit: Optional[int] = None,
    **streams,
) -> None:
    """Validate the stream arrays a native call will read.

    Each named stream (``set`` first, then any of ``tag``, ``write``,
    ``gap``, ``cycle``, ``pc``, ``origin``; None entries are skipped)
    must be a C-contiguous one-dimensional array of its kernel dtype,
    all of one length, and every set index in ``[start, stop)`` must lie
    in ``[0, num_sets)`` -- and every origin in ``[0, origin_limit)``,
    when the origins index per-access attribution arrays: the kernel
    does no bounds checks of its own.  Raises ``ValueError`` naming the
    first offending array.
    """
    length = None
    for name, array in streams.items():
        if array is None:
            continue
        want = _STREAM_DTYPES[name]
        if getattr(array, "dtype", None) != want:
            raise ValueError(
                f"{name} stream has dtype {getattr(array, 'dtype', None)}, "
                f"the kernel reads {want}"
            )
        if array.ndim != 1 or not array.flags.c_contiguous:
            raise ValueError(
                f"{name} stream is not a C-contiguous one-dimensional array"
            )
        if length is None:
            length = len(array)
        elif len(array) != length:
            raise ValueError(
                f"{name} stream has {len(array)} entries, the set stream "
                f"{length}"
            )
    if not 0 <= start <= stop <= (length or 0):
        raise ValueError(
            f"access range [{start}, {stop}) exceeds the {length}-entry streams"
        )
    if start < stop:
        _check_range(streams["set"][start:stop], "set", num_sets)
        if origin_limit is not None:
            _check_range(streams["origin"][start:stop], "origin", origin_limit)


def _check_range(window, name: str, limit: int) -> None:
    low, high = int(window.min()), int(window.max())
    if low < 0 or high >= limit:
        raise ValueError(
            f"{name} stream holds index {low if low < 0 else high}, "
            f"outside [0, {limit})"
        )
