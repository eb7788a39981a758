"""Kernel runtime: gate, gather, run the native kernel, scatter back.

A :class:`KernelRuntime` is attached to a
:class:`~repro.cache.cache.SetAssociativeCache` as its ``kernel``
attribute (see :func:`repro.kernels.attach_kernel`); the batch drivers
then offer it every eligible replay, through one entry point per system
shape: :meth:`~KernelRuntime.try_run_trace` (one cache),
:meth:`~KernelRuntime.try_hierarchy_stages` (the L1/L2/LLC stack) and
:meth:`~KernelRuntime.try_run_multicore` (the shared LLC).  Each returns
``None`` when the configuration is outside the kernel's supported
matrix -- the caller falls through to its Python driver (the dict-driven
batch loops, or ``SharedLLCSystem.run_scalar`` for the shared LLC),
which is always correct.  When a kernel does run, the result is
bit-identical to the reference driver by construction (same operation
order, same IEEE arithmetic); the conformance suite and the verify
fuzzers hold that equivalence.

Supported configurations (the ``native`` backend):

* recency-stamped plans (``plan.stamp_policy``) with no full observer,
  no bypass, no evict training, no prefetches in flight, and no PC
  consumers;
* the paper's comparator policies -- DIP, DRRIP, SHiP and RRP,
  recognized by hook identity like the victim scans below -- on
  ``run_trace``'s single-lane replay only (``LLCRunner`` and the
  hierarchy's untimed LLC residue), with their set-dueling PSEL, coin,
  PC-indexed counter table and RRP's write bypass in C.  The hierarchy
  stage replay and the multicore interleave decline them, naming why:
  their lanes carry no PC stream and no bypass attribution;
* a hierarchy whose LLC the kernel declines (a comparator, SRRIP, UCP,
  ...) still filters its private L1 and L2 in C and hands the L2
  residue to the hierarchy's Python LLC stage;
* no access/eviction listeners, except the
  :class:`~repro.multicore.shared.SharerDirectory` pair a data-sharing
  ``SharedLLCSystem`` run installs: the directory then travels as two
  per-line columns (sharer mask, last writer) and the kernel updates it
  inline, so shared-LLC replays run entirely in ``rw_multicore``;
* victim selection: plain min-stamp (LRU), the RWP partitioned
  min-stamp, or the core-aware RWP scan (``<= 64`` policy cores), with
  or without the shared-line group (blend arbitration has no kernel
  counterpart);
* sampling via ``ReadWriteSampler`` / ``CoreReadWriteSampler`` or
  rwp-core's shared-claimant router, epochs via the RWP repartition
  hooks (the repartition itself still runs in Python through a
  callback at every epoch boundary);
* timing via the flat :class:`~repro.cpu.timing.TimingModel` (no
  request-level memory backend) in the replay itself; the hierarchy's
  measured timing walk (``HierarchyRunner``) also runs natively over the
  stage replay's arrays, for the flat model and for a
  :class:`~repro.mem.pcm.PCMBackend`.  Other backends (banked DRAM, the
  ``DRAMBackend`` adapter, NVM) keep the Python walk and say so in
  ``fallback_reason``.
"""

from __future__ import annotations

import ctypes
from typing import List, Optional

import numpy as np

from repro.cache.dip import DIPPolicy
from repro.cache.rrip import DRRIPPolicy
from repro.cache.ship import SHiPPolicy
from repro.core import rrp
from repro.core.rrp import RRPPolicy
from repro.core.rwp import CoreAwareRWPPolicy, RWPPolicy
from repro.core.sampler import CoreReadWriteSampler, ReadWriteSampler
from repro.kernels import soa
from repro.kernels.build import (
    EPOCH_CB,
    CacheCtx,
    FilterCtx,
    LaneCtx,
    MultiCtx,
    PcmCtx,
    load_native,
)
from repro.kernels.spec import KernelSpec
from repro.mem.pcm import PCMBackend
from repro.multicore.shared import SharerDirectory

#: victim kinds, matching the defines in native_src.c
_VICTIM_MIN_STAMP = 0
_VICTIM_RWP = 1
_VICTIM_CORE_RWP = 2
_VICTIM_CORE_RWP_SHARED = 3

#: comparator policy kinds, matching the POLICY_* defines in native_src.c
_POLICY_STAMPED = 0
_POLICY_DIP = 1
_POLICY_DRRIP = 2
_POLICY_SHIP = 3
_POLICY_RRP = 4

_STATUS_CALLBACK_ABORT = 2

#: the decline when a decoded stream does not fit int64 (set indices are
#: below the set count and writes are bits, so it is a tag or a gap)
_STREAM_OVERFLOW = "a tag or instruction gap overflows the int64 kernel ABI"

#: the decline when a lane that emits block addresses (a filter stage,
#: the attributed LLC stage) would build one beyond int64
_BLOCK_OVERFLOW = "a block address overflows the int64 kernel ABI"

#: a lane's retired-instruction count is a signed 128-bit integer, held
#: as an unsigned low word and a signed high word
_INT128_MIN = -(1 << 127)
_INT128_MAX = (1 << 127) - 1
_LOW_WORD = (1 << 64) - 1

#: rwp-core's occupancy counts in the C victim scan are a fixed-size
#: stack array, and a sharer mask is one uint64
_MAX_POLICY_CORES = 64

#: epoch hooks the native kernel may drive through the callback: they
#: read only sampler histograms and write only partition targets, both
#: of which the callback resynchronizes.
_SAFE_EPOCH_HOOKS = (RWPPolicy.on_epoch, CoreAwareRWPPolicy.on_epoch)

#: (cache attribute, hook name) of the plan hooks a comparator binds
_PLAN_HOOKS = (
    ("_on_hit", "on_hit"),
    ("_on_fill", "on_fill"),
    ("_victim", "victim"),
    ("_on_evict", "on_evict"),
    ("_should_bypass", "should_bypass"),
)

#: the comparator policies the kernel ports: (kind, class, the hooks its
#: plan binds, the ones of those it may leave unbound -- RRP without
#: write bypassing binds no ``should_bypass``)
_COMPARATORS = (
    (_POLICY_DIP, DIPPolicy, ("on_hit", "on_fill", "victim"), ()),
    (_POLICY_DRRIP, DRRIPPolicy, ("on_hit", "on_fill", "victim"), ()),
    (
        _POLICY_SHIP,
        SHiPPolicy,
        ("on_hit", "on_fill", "victim", "on_evict"),
        (),
    ),
    (
        _POLICY_RRP,
        RRPPolicy,
        ("on_hit", "on_fill", "victim", "on_evict", "should_bypass"),
        ("should_bypass",),
    ),
)


class _CacheBinding:
    """One cache gathered into a populated ``CacheCtx``, ready to run."""

    __slots__ = (
        "cache",
        "ctx",
        "image",
        "stamp",
        "kind",
        "comparator",
        "pimage",
        "samplers",
        "simage",
        "stride",
        "target_arrays",
        "epoch_cb",
        "directory",
        "dimage",
        "errors",
    )

    def __init__(self) -> None:
        self.comparator = _POLICY_STAMPED
        self.pimage = None
        self.directory = None
        self.dimage = None
        self.samplers = None
        self.simage = None
        self.stride = 0
        self.target_arrays = None
        self.epoch_cb = None
        self.errors: List[BaseException] = []


def _directory_of(cache) -> Optional[SharerDirectory]:
    """The directory whose observe/on_evict pair ``cache`` calls, or None.

    The class methods are looked up at call time, so a wrapper installed
    on the class (a profiler's) still matches.
    """
    observe = cache.access_listener
    on_evict = cache.eviction_listener
    directory = getattr(observe, "__self__", None)
    if (
        getattr(observe, "__func__", None) is SharerDirectory.observe
        and getattr(on_evict, "__func__", None) is SharerDirectory.on_evict
        and on_evict.__self__ is directory
    ):
        return directory
    return None


def _comparator_kind(cache) -> Optional[int]:
    """The comparator policy whose hooks ``cache``'s plan binds, or None.

    Recognized by hook identity, as :func:`_victim_kind` recognizes the
    victim scans: each hook the plan binds must be the class's own
    function, looked up at call time, bound to ``cache.policy``.  A
    subclass that overrides a hook (or RRP's ``predicts_read``) is not
    the policy the kernel ports, so it declines.
    """
    policy = cache.policy
    for kind, cls, hooks, optional in _COMPARATORS:
        if not isinstance(policy, cls):
            continue
        for attr, name in _PLAN_HOOKS:
            bound = getattr(cache, attr)
            if bound is None:
                if name in hooks and name not in optional:
                    return None
            elif (
                name not in hooks
                or getattr(bound, "__func__", None) is not getattr(cls, name)
                or bound.__self__ is not policy
            ):
                return None
        if (
            kind == _POLICY_RRP
            and type(policy).predicts_read is not RRPPolicy.predicts_read
        ):
            return None
        return kind
    return None


def _gather_comparator(cache, kind: int) -> Optional[soa.PolicyImage]:
    """Pack the state ``kind``'s hooks read besides the line columns."""
    policy = cache.policy
    num_sets = cache.config.num_sets
    if kind in (_POLICY_DIP, _POLICY_DRRIP):
        return soa.gather_policy(
            policy,
            num_sets,
            dueling=policy._dueling,
            coin=policy._coin,
            coin_odds=policy._epsilon,
        )
    if kind == _POLICY_SHIP:
        return soa.gather_policy(
            policy,
            num_sets,
            table=policy._shct,
            entries=policy._entries,
            counter_max=policy._max_count,
        )
    return soa.gather_policy(
        policy,
        num_sets,
        coin=policy._coin,
        coin_odds=rrp.RETRAIN_ONE_IN,
        table=policy._table,
        entries=policy._entries,
        counter_max=policy._max_count,
        bypass_writes=(
            cache._should_bypass is not None and bool(policy._bypass_writes)
        ),
    )


def _victim_kind(cache, directory, decline) -> Optional[int]:
    """The kernel's victim scan for ``cache``, or ``decline(why not)``."""
    plan = cache.plan
    if plan.min_stamp_victim:
        return _VICTIM_MIN_STAMP
    if plan.partition_min_stamp_victim:
        return _VICTIM_RWP
    victim_func = getattr(cache._victim, "__func__", None)
    if victim_func is not CoreAwareRWPPolicy.victim:
        return decline(
            f"victim selection of {type(cache.policy).__name__} "
            "has no kernel counterpart"
        )
    policy = cache.policy
    # The C scan enforces plain per-core budgets, plus the shared group
    # when the policy classifies through the directory the kernel
    # maintains; the blend's global-mode delegation dispatches per
    # eviction in Python, so it has no kernel counterpart.
    if getattr(policy, "blend", False):
        return decline("rwp-core blend arbitration has no kernel counterpart")
    if not 1 <= policy.num_cores <= _MAX_POLICY_CORES:
        return decline(f"rwp-core with more than {_MAX_POLICY_CORES} cores")
    if policy.directory is None:
        return _VICTIM_CORE_RWP
    if policy.directory is directory:
        return _VICTIM_CORE_RWP_SHARED
    return decline(
        "rwp-core classifies shared lines through a directory "
        "the cache's listeners do not update"
    )


def _plan_block_reason(cache, directory, comparator) -> Optional[str]:
    """Why the kernel's plan gate declines, or None if it won't.

    ``comparator`` is :func:`_comparator_kind`'s answer: those policies'
    bypass, evict-training and PC hooks are ported.  The sharer
    directory's listener pair (``directory``, None to refuse it) is the
    one listener shape allowed; the strings feed
    :attr:`KernelRuntime.fallback_reason`.
    """
    if cache.plan.stamp_policy is None and comparator is None:
        return f"{type(cache.policy).__name__} has no kernel counterpart"
    if cache._observe is not None:
        return "policy installs a full observe hook"
    if comparator is not None:
        if cache._on_sample is not None or cache._epoch_period:
            return "policy installs a sample or epoch hook"
        # The comparators' loop copy keeps no sharer columns.
        directory = None
    elif cache._should_bypass is not None:
        return "policy installs a bypass hook"
    elif cache._on_evict is not None:
        return "policy trains on evictions"
    if directory is None:
        if cache.access_listener is not None:
            return "an access listener is attached"
        if cache.eviction_listener is not None:
            return "an eviction listener is attached"
    elif directory.num_cores > _MAX_POLICY_CORES:
        return f"sharer directory tracks more than {_MAX_POLICY_CORES} cores"
    if cache._prefetch_active:
        return "prefetching is active"
    if cache._needs_pc and comparator is None:
        return "policy needs per-access PCs"
    return None


def bind_cache(
    cache, reasons: Optional[List[str]] = None, entry: Optional[str] = None
) -> Optional[_CacheBinding]:
    """Gather ``cache`` into a ``CacheCtx``; None when unsupported.

    When ``reasons`` is given, every decline appends one human-readable
    sentence fragment explaining it (the fallback-surfacing channel).
    ``entry`` names a caller whose lanes carry no PC stream and no
    bypass attribution, so it declines the comparator policies; None is
    ``run_trace``'s single-lane replay, which runs them.
    """

    def decline(reason: str) -> None:
        if reasons is not None:
            reasons.append(reason)
        return None

    directory = _directory_of(cache)
    comparator = _comparator_kind(cache)
    if comparator is not None and entry is not None:
        return decline(
            f"{type(cache.policy).__name__} runs natively only through "
            f"run_trace: {entry} carries no PC stream or bypass attribution"
        )
    blocked = _plan_block_reason(cache, directory, comparator)
    if blocked is not None:
        return decline(blocked)
    if comparator is not None:
        return _bind_comparator(cache, comparator, decline)
    kind = _victim_kind(cache, directory, decline)
    if kind is None:
        return None
    plan = cache.plan
    policy = cache.policy
    stamp = plan.stamp_policy

    binding = _CacheBinding()
    binding.cache = cache
    binding.stamp = stamp
    binding.kind = kind

    # -- sampler ----------------------------------------------------------
    on_sample = cache._on_sample
    stride = cache._sample_stride
    route_mod = 0
    shared_sampler = 0
    if on_sample is not None:
        if stride <= 0:
            return decline("sample hook installed without a stride")
        observe_func = getattr(on_sample, "__func__", None)
        owner = getattr(on_sample, "__self__", None)
        if observe_func is ReadWriteSampler.observe:
            samplers = [owner]
        elif observe_func is CoreReadWriteSampler.observe:
            samplers = list(owner.samplers)
            route_mod = owner.num_cores
        elif (
            observe_func is CoreAwareRWPPolicy._sample
            and owner is policy
            and not policy.blend
        ):
            # The shared-claimant router: by core, except that lines the
            # kernel's directory columns mark shared go to the extra
            # claimant's sampler (index num_cores).
            samplers = list(policy.sampler.samplers)
            route_mod = policy.sampler.num_cores
            if policy.directory is not None:
                if policy.directory is not directory:
                    return decline(
                        "rwp-core samples through a directory the cache's "
                        "listeners do not update"
                    )
                shared_sampler = policy.num_cores
        else:
            return decline("sample hook is not a recognized shadow sampler")
        simage = soa.gather_sampler(
            samplers, stride, cache.config.num_sets, cache.ways
        )
        if simage is None:
            return decline("shadow-sampler state not SoA-representable")
        binding.samplers = samplers
        binding.simage = simage
        binding.stride = stride
    else:
        stride = 0

    # -- epoch hook -------------------------------------------------------
    on_epoch = cache._on_epoch
    period = cache._epoch_period
    if period:
        if getattr(on_epoch, "__func__", None) not in _SAFE_EPOCH_HOOKS:
            return decline("epoch hook is not on the kernel-safe list")
    else:
        period = 0

    image = soa.gather_lines(cache)
    if image is None:
        return decline("cache line state not SoA-representable")
    soa.check_image(image, cache.config.num_sets, cache.ways)
    binding.image = image

    # -- sharer directory -------------------------------------------------
    if directory is not None:
        if (
            directory.index_bits != cache._index_bits
            or directory.offset_bits != cache._offset_bits
        ):
            return decline("sharer directory geometry differs from the cache's")
        dimage = soa.gather_directory(image, cache.ways, directory)
        if dimage is None:
            return decline("sharer directory state not SoA-representable")
        stray = len(directory.table) - dimage.tracked
        if stray:
            return decline(
                f"sharer directory tracks {stray} line(s) not resident in "
                "the cache"
            )
        binding.directory = directory
        binding.dimage = dimage

    ctx = CacheCtx()
    try:
        _load_lines(ctx, cache, image)
        ctx.victim_kind = kind
        if kind == _VICTIM_RWP:
            ctx.target_clean = stamp.target_clean
        elif kind in (_VICTIM_CORE_RWP, _VICTIM_CORE_RWP_SHARED):
            groups = policy.num_cores + (kind == _VICTIM_CORE_RWP_SHARED)
            clean_arr = np.array(policy.clean_targets, dtype=np.int64)
            dirty_arr = np.array(policy.dirty_targets, dtype=np.int64)
            if min(len(clean_arr), len(dirty_arr)) < groups:
                return decline("rwp-core way budgets miss a claimant group")
            binding.target_arrays = (clean_arr, dirty_arr)
            ctx.policy_cores = policy.num_cores
            ctx.clean_targets = soa.ptr_int64(clean_arr)
            ctx.dirty_targets = soa.ptr_int64(dirty_arr)
        ctx.clock = stamp._clock
        if binding.samplers is not None:
            simage = binding.simage
            ctx.sample_stride = stride
            ctx.sampler_route_mod = route_mod
            ctx.shared_sampler = shared_sampler
            ctx.shadow_slots = simage.slots
            ctx.sh_tags = soa.ptr_int64(simage.sh_tags)
            ctx.sh_len = soa.ptr_int64(simage.sh_len)
            ctx.sh_touched = soa.ptr_uint8(simage.sh_touched)
            ctx.hist = soa.ptr_int64(simage.hist)
        if binding.directory is not None:
            ctx.sharers = soa.ptr_uint64(binding.dimage.sharers)
            ctx.last_writer = soa.ptr_int64(binding.dimage.last_writer)
            soa.load_directory_counters(ctx, directory)
        ctx.epoch_period = period
        ctx.epoch_left = cache._epoch_left
        soa.load_stats(ctx, cache)
    except OverflowError:
        return decline("cache state overflows the int64 kernel ABI")
    binding.ctx = ctx

    if period:
        binding.epoch_cb = EPOCH_CB(_make_epoch_cb(binding, on_epoch))
        ctx.epoch_cb = binding.epoch_cb
    return binding


def _bind_comparator(cache, comparator: int, decline) -> Optional[_CacheBinding]:
    """``bind_cache`` for DIP, DRRIP, SHiP and RRP."""
    policy = cache.policy
    pimage = _gather_comparator(cache, comparator)
    if pimage is None:
        return decline(
            f"{type(policy).__name__} state is not SoA-representable"
        )
    image = soa.gather_lines(cache, comparator=True)
    if image is None:
        return decline("cache line state not SoA-representable")
    soa.check_image(image, cache.config.num_sets, cache.ways)
    if pimage.counters is not None and (
        int(image.signature.min()) < 0
        or int(image.signature.max()) >= len(pimage.counters)
    ):
        return decline("a line signature indexes outside the counter table")

    binding = _CacheBinding()
    binding.cache = cache
    binding.image = image
    binding.comparator = comparator
    binding.pimage = pimage
    # DIP and RRP order lines by the LRUPolicy clock; the RRIP pair
    # never stamps.
    binding.stamp = policy if hasattr(policy, "_clock") else None
    ctx = CacheCtx()
    try:
        _load_lines(ctx, cache, image)
        ctx.policy_kind = comparator
        ctx.rrpv = soa.ptr_int64(image.rrpv)
        ctx.signature = soa.ptr_int64(image.signature)
        ctx.outcome = soa.ptr_int64(image.outcome)
        soa.load_policy(ctx, pimage)
        if binding.stamp is not None:
            ctx.clock = policy._clock
        soa.load_stats(ctx, cache)
    except OverflowError:
        return decline("cache state overflows the int64 kernel ABI")
    binding.ctx = ctx
    return binding


def _load_lines(ctx, cache, image) -> None:
    """Geometry and the stamped line columns into ``ctx``."""
    ctx.num_sets = cache.config.num_sets
    ctx.ways = cache.ways
    ctx.index_bits = cache._index_bits
    ctx.offset_bits = cache._offset_bits
    ctx.tag = soa.ptr_int64(image.tag)
    ctx.stamp = soa.ptr_int64(image.stamp)
    ctx.owner = soa.ptr_int64(image.owner)
    ctx.valid = soa.ptr_uint8(image.valid)
    ctx.dirty = soa.ptr_uint8(image.dirty)
    ctx.read_seen = soa.ptr_uint8(image.read_seen)
    ctx.write_seen = soa.ptr_uint8(image.write_seen)
    ctx.filled = soa.ptr_int64(image.filled)
    ctx.dirty_lines = soa.ptr_int64(image.dirty_lines)


def _make_epoch_cb(binding: _CacheBinding, on_epoch):
    """The C->Python epoch trampoline: resync, repartition, resync."""

    def fire() -> int:
        try:
            samplers = binding.samplers
            if samplers is not None:
                # The kernel's histograms are authoritative mid-run;
                # push them into the sampler objects the hook reads.
                soa.sync_hist_to_python(samplers, binding.simage)
            on_epoch()
            # Pull the (possibly re-partitioned) targets back into the
            # context the victim scan reads ...
            ctx = binding.ctx
            if binding.kind == _VICTIM_RWP:
                ctx.target_clean = binding.stamp.target_clean
            elif binding.kind in (_VICTIM_CORE_RWP, _VICTIM_CORE_RWP_SHARED):
                policy = binding.cache.policy
                clean_arr, dirty_arr = binding.target_arrays
                clean_arr[:] = policy.clean_targets
                dirty_arr[:] = policy.dirty_targets
            # ... and the (decayed) histograms back into the kernel.
            # decay() replaces the list objects, so re-read attributes.
            if samplers is not None:
                soa.sync_hist_to_image(samplers, binding.simage)
            return 0
        except BaseException as exc:  # noqa: BLE001 - re-raised after scatter
            binding.errors.append(exc)
            return 1

    return fire


def scatter_cache(binding: _CacheBinding) -> None:
    """Write the (mutated) context back into the cache objects."""
    cache = binding.cache
    ctx = binding.ctx
    soa.scatter_lines(cache, binding.image)
    soa.flush_stats(cache, ctx)
    if binding.stamp is not None:
        binding.stamp._clock = ctx.clock
    cache._epoch_left = ctx.epoch_left
    if binding.pimage is not None:
        soa.scatter_policy(binding.pimage, ctx)
    if binding.samplers is not None:
        soa.scatter_sampler(binding.samplers, binding.simage, binding.stride)
    if binding.directory is not None:
        soa.scatter_directory(
            binding.directory, binding.dimage, binding.image, cache.ways, ctx
        )


def _finish(binding: _CacheBinding) -> None:
    """Scatter and re-raise a trapped epoch-callback exception, if any."""
    scatter_cache(binding)
    if binding.ctx.status == _STATUS_CALLBACK_ABORT and binding.errors:
        raise binding.errors[0]


def _join_instructions(low: int, high: int) -> int:
    """The retired-instruction count held as a (low, high) word pair."""
    return (int(high) << 64) + int(low)


def _fill_lane_timing(lane: LaneCtx, timing, cycles):
    """Hoist the TimingModel state into ``lane``; returns the wb ring.

    ``cycles`` is the per-access cycle-cost array of the lane's trace at
    ``timing``'s CPI (``decoded.kernel_cycles``).  Raises
    ``OverflowError`` when the model's state does not fit the lane:
    ctypes integer fields wrap silently, so the count is checked here.
    """
    instructions = timing.instructions
    if not _INT128_MIN <= instructions <= _INT128_MAX:
        raise OverflowError("retired instructions exceed the 128-bit lane count")
    lane.timed = 1
    lane.cycle_stream = soa.ptr_double(cycles)
    mlp = timing.core.mlp
    lane.hit_stall = timing.llc_hit_latency / mlp
    lane.miss_stall = timing.memory.latency / mlp
    lane.cycles = timing.cycles
    lane.read_stall = timing.read_stall_cycles
    lane.write_stall = timing.write_stall_cycles
    lane.instructions = instructions & _LOW_WORD
    lane.instructions_hi = instructions >> 64
    return soa.load_write_buffer(lane, timing.write_buffer)


def _flush_lane_timing(timing, lane: LaneCtx, ring) -> None:
    timing.cycles = lane.cycles
    timing.instructions = _join_instructions(
        lane.instructions, lane.instructions_hi
    )
    timing.read_stall_cycles = lane.read_stall
    timing.write_stall_cycles = lane.write_stall
    soa.flush_write_buffer(timing.write_buffer, lane, ring)


class _TimingWalk:
    """``HierarchyRunner``'s measured walk, bound for ``rw_timing_walk``.

    :meth:`bind` checks the memory model and loads the timing model
    before the stage replay runs, so a decline leaves nothing to undo;
    :meth:`run` loads a PCM backend's state once the replay has counted
    the writes the walk will issue.
    """

    #: ``streams`` and ``cycles`` keep the arrays the lane points into
    __slots__ = (
        "timing", "lane", "ring", "streams", "cycles", "shift", "index_bits"
    )

    @classmethod
    def bind(cls, timing, decoded, streams, offset_bits: int):
        """A ready walk, or why it stays in Python."""
        backend = timing.backend
        shift = 0
        if backend is not None:
            if type(backend) is not PCMBackend:
                return f"the {type(backend).__name__} timing walk runs in Python"
            shift = backend._line_shift - offset_bits
            if not 0 <= shift < 64:
                return "PCM line size is below the cache line size"
            partitions = backend._part_mask + 1
            if not (
                len(backend._write_free) == len(backend._read_free)
                == partitions
            ):
                return "PCM partition state does not match its partitions"
        walk = cls()
        walk.timing = timing
        walk.shift = shift
        walk.index_bits = decoded.index_bits
        walk.streams = streams
        set_arr, tag_arr, write_arr, gap_arr = streams
        lane = walk.lane = LaneCtx()
        lane.set_stream = soa.ptr_int64(set_arr)
        lane.tag_stream = soa.ptr_int64(tag_arr)
        lane.write_stream = soa.ptr_uint8(write_arr)
        lane.gap_stream = soa.ptr_int64(gap_arr)
        walk.cycles = decoded.kernel_cycles(timing.core.base_cpi)
        try:
            walk.ring = _fill_lane_timing(lane, timing, walk.cycles)
        except OverflowError:
            return "timing state overflows the lane image"
        return walk

    def run(self, lib, levels, mem, blocks, count: int, start: int, stop: int):
        """Walk ``[start, stop)`` and flush the timing (and PCM) state.

        ``blocks[:count]`` are the written-back LLC blocks in issue
        order; ``levels``/``mem`` the per-access attribution.
        """
        timing = self.timing
        backend = timing.backend
        lane = self.lane
        lane.levels = soa.ptr_int64(levels)
        lane.mem = soa.ptr_int64(mem)
        lane.wb_out = soa.ptr_int64(blocks)
        lane.wb_out_count = count
        pctx = arrays = None
        if backend is not None:
            pctx = PcmCtx()
            pctx.read_index_bits = self.index_bits
            pctx.block_shift = self.shift
            arrays = soa.load_pcm(pctx, backend, timing.core.mlp, count)
        pcm = None if pctx is None else ctypes.byref(pctx)
        if lib.timing_walk(ctypes.byref(lane), pcm, start, stop) < 0:
            raise RuntimeError("timing walk ran out of writeback blocks")
        _flush_lane_timing(timing, lane, self.ring)
        if pctx is not None:
            soa.flush_pcm(backend, pctx, arrays)


class KernelRuntime:
    """Dispatches eligible batch replays to the native kernel."""

    def __init__(self) -> None:
        #: why the most recent ``try_*`` dispatch fell back to a Python
        #: driver (None while every dispatch ran on a kernel).  Surfaced
        #: by ``repro run`` and logged by the bench harness, so a
        #: requested kernel never degrades silently.
        self.fallback_reason: Optional[str] = None

    def _fallback(self, reason: str) -> None:
        """Record why this dispatch runs in Python; returns None."""
        self.fallback_reason = reason
        return None

    def _bind(self, cache, entry: Optional[str] = None) -> Optional[_CacheBinding]:
        """``bind_cache`` with the decline reason routed to the runtime."""
        reasons: List[str] = []
        binding = bind_cache(cache, reasons, entry)
        if binding is None:
            self._fallback(reasons[0] if reasons else "kernel binding declined")
        return binding

    @property
    def active_backend(self) -> Optional[str]:
        """Which backend actually runs: 'native', or None."""
        return "native" if load_native() is not None else None

    # -- single-cache replay ----------------------------------------------
    def try_run_trace(
        self, cache, decoded, start, stop, timing, core, warmup=None
    ) -> Optional[int]:
        """Kernel counterpart of ``run_trace``; None -> dict fallback.

        With ``warmup``, the one binding replays ``[start, warmup)`` and
        ``[warmup, stop)`` as two kernel windows; between them the
        statistics (cache and context) and ``timing`` are zeroed and the
        lane's timing reloaded, unless the first window's epoch callback
        aborted (the exception then propagates with nothing zeroed).
        """
        if start >= stop:
            return None
        lib = load_native()
        if lib is None:
            return self._fallback("no native kernel library available")
        if timing is not None and getattr(timing, "backend", None) is not None:
            return self._fallback("memory timing backend is active")
        # Bind before asking for the stream arrays: a declined dispatch
        # must not convert a list-built decode's streams.
        binding = self._bind(cache)
        if binding is None:
            return None
        if binding.directory is not None and not 0 <= core < _MAX_POLICY_CORES:
            return self._fallback(f"core {core} does not fit a sharer mask")
        streams = decoded.kernel_streams()
        if streams is None:
            return self._fallback(_STREAM_OVERFLOW)
        set_arr, tag_arr, write_arr, gap_arr = streams
        pcs = None
        if binding.comparator in (_POLICY_SHIP, _POLICY_RRP):
            pcs = decoded.kernel_pcs()
            if pcs is None:
                return self._fallback("PC stream overflows the int64 kernel ABI")
        cycles = None
        if timing is not None:
            cycles = decoded.kernel_cycles(timing.core.base_cpi)
        soa.check_streams(
            cache.config.num_sets, start, stop,
            set=set_arr, tag=tag_arr, write=write_arr, gap=gap_arr,
            cycle=cycles, pc=pcs,
        )

        lane = LaneCtx()
        lane.set_stream = soa.ptr_int64(set_arr)
        lane.tag_stream = soa.ptr_int64(tag_arr)
        lane.write_stream = soa.ptr_uint8(write_arr)
        if pcs is not None:
            lane.pc_stream = soa.ptr_int64(pcs)
        lane.core = core
        ring = None
        if timing is not None:
            try:
                ring = _fill_lane_timing(lane, timing, cycles)
            except OverflowError:
                return self._fallback("timing state overflows the lane image")
            lane.gap_stream = soa.ptr_int64(gap_arr)

        ctx = binding.ctx
        ran = 0
        if warmup is not None:
            ran = lib.run_trace(
                ctypes.byref(ctx), ctypes.byref(lane), start, warmup
            )
            start = warmup
        if ctx.status != _STATUS_CALLBACK_ABORT:
            if warmup is not None:
                cache.reset_stats()
                soa.load_stats(ctx, cache)
                if timing is not None:
                    timing.reset()
                    ring = _fill_lane_timing(lane, timing, cycles)
            ran += lib.run_trace(
                ctypes.byref(ctx), ctypes.byref(lane), start, stop
            )
        cache.tick += ran
        if timing is not None:
            _flush_lane_timing(timing, lane, ring)
        _finish(binding)
        return ran

    # -- hierarchy stages --------------------------------------------------
    def try_hierarchy_stages(
        self,
        hierarchy,
        l1,
        l2,
        llc,
        decoded,
        start,
        stop,
        collect,
        core,
        timing=None,
    ) -> Optional[tuple]:
        """Array-native staged replay of the L1/L2/LLC stack.

        Kernel counterpart of ``MemoryHierarchy.run_trace``'s staged
        path (the caller has checked ``lru_filter_eligible()`` on L1 and
        L2).  The inter-stage op streams stay int64 arrays: the L1
        filter writes the L2's input directly into the buffer the L2
        filter reads, and block decoding is two vector ops.  Returns the
        staged path's ``counts`` / ``(counts, levels, mem)``, or None --
        naming why in ``fallback_reason`` -- when no library loads, L1
        or L2 declines, or the demand stream or a private level's blocks
        overflow int64; the dict filters then run.

        When the LLC binds too, it replays the residue here and nothing
        round-trips through lists until the collect-mode ``levels``/
        ``mem``.  When it declines, the residue goes to the hierarchy's
        Python LLC stage as lists: an untimed run replays it through
        ``llc.run_trace`` (which serves the comparators, or records its
        own decline); a collect-mode run records the LLC's decline here.

        ``timing`` (collect mode only) is the measured run's
        :class:`~repro.cpu.timing.TimingModel`.  When the LLC binds and
        the walk has a kernel counterpart -- the flat model, or a
        ``PCMBackend`` -- ``rw_timing_walk`` advances it (and the
        backend) straight from the stage arrays, and the result carries
        None for ``levels`` and ``mem``.  Otherwise ``fallback_reason``
        names the backend and the caller walks the lists.
        """
        if start >= stop:
            return None
        lib = load_native()
        if lib is None:
            return self._fallback("no native kernel library available")
        # Bind every level up front: binding only reads, so a decline
        # here leaves every cache untouched for the fallback (and builds
        # no stream arrays).
        entry = "the hierarchy stage replay"
        b1 = self._bind(l1, entry)
        if b1 is None:
            return None
        b2 = self._bind(l2, entry)
        if b2 is None:
            return None
        llc_declined: List[str] = []
        b3 = bind_cache(llc, llc_declined, entry)
        streams = decoded.kernel_streams()
        if streams is None:
            return self._fallback(_STREAM_OVERFLOW)
        set_arr, tag_arr, write_arr, gap_arr = streams
        # The L2 and LLC stages decode the blocks the stage above
        # emitted, which rebuild to the same blocks; only the demand
        # tags and resident lines can emit one past int64.
        if not (
            soa.blocks_fit(l1._index_bits, tag_arr[start:stop], b1.image.tag)
            and soa.blocks_fit(l2._index_bits, b2.image.tag)
        ):
            return self._fallback(_BLOCK_OVERFLOW)
        if (
            b3 is not None
            and collect
            and not soa.blocks_fit(llc._index_bits, b3.image.tag)
        ):
            # The attributed LLC lane emits its writeback blocks; the
            # Python LLC stage builds them exactly instead.
            b3 = None
            llc_declined.append(_BLOCK_OVERFLOW)
        walk = None
        if b3 is not None and timing is not None:
            walk = _TimingWalk.bind(timing, decoded, streams, llc._offset_bits)
            if isinstance(walk, str):
                self._fallback(walk)
                walk = None
        # Stages 2 and 3 decode their input by masking, so only the
        # demand stream can hold a set index outside its cache.
        soa.check_streams(
            l1.config.num_sets, start, stop,
            set=set_arr, tag=tag_arr, write=write_arr,
            gap=None if walk is None else gap_arr,
            cycle=None if walk is None else walk.cycles,
        )
        span = stop - start
        level_arr = np.zeros(stop, dtype=np.int64) if collect else None

        # Stage 1: L1 over the demand stream (demand mode: origin = i).
        blocks1 = np.empty(2 * span, dtype=np.int64)
        write1 = np.empty(2 * span, dtype=np.uint8)
        origin1 = np.empty(2 * span, dtype=np.int64)
        f1 = FilterCtx()
        f1.set_stream = soa.ptr_int64(set_arr)
        f1.tag_stream = soa.ptr_int64(tag_arr)
        f1.write_stream = soa.ptr_uint8(write_arr)
        f1.core = core
        f1.out_blocks = soa.ptr_int64(blocks1)
        f1.out_write = soa.ptr_uint8(write1)
        f1.out_origin = soa.ptr_int64(origin1)
        fwd1 = lib.lru_filter(
            ctypes.byref(b1.ctx), ctypes.byref(f1), start, stop
        )
        l1.tick += span
        count1 = f1.out_count
        l1_hits = span - fwd1

        # Stage 2: L2 over the L1 residue, attributing L2 hits.
        set2 = blocks1[:count1] & (l2.config.num_sets - 1)
        tag2 = blocks1[:count1] >> l2.config.index_bits
        blocks2 = np.empty(2 * count1, dtype=np.int64)
        write2 = np.empty(2 * count1, dtype=np.uint8)
        origin2 = np.empty(2 * count1, dtype=np.int64)
        f2 = FilterCtx()
        f2.set_stream = soa.ptr_int64(set2)
        f2.tag_stream = soa.ptr_int64(tag2)
        f2.write_stream = soa.ptr_uint8(write1)
        f2.origins = soa.ptr_int64(origin1)
        if level_arr is not None:
            f2.levels = soa.ptr_int64(level_arr)
        f2.level = 1
        f2.core = core
        f2.out_blocks = soa.ptr_int64(blocks2)
        f2.out_write = soa.ptr_uint8(write2)
        f2.out_origin = soa.ptr_int64(origin2)
        fwd2 = lib.lru_filter(
            ctypes.byref(b2.ctx), ctypes.byref(f2), 0, count1
        )
        l2.tick += count1
        count2 = f2.out_count
        l2_hits = fwd1 - fwd2
        _finish(b1)
        _finish(b2)

        if b3 is None:
            levels = None
            if collect:
                self._fallback(llc_declined[0])
                levels = level_arr.tolist()
            return hierarchy._llc_stage(
                decoded, l1_hits, l2_hits, blocks2[:count2].tolist(),
                write2[:count2].view(bool).tolist(),
                origin2[:count2].tolist(), levels, core,
            )

        # Stage 3: the LLC over the L2 residue.
        set3 = blocks2[:count2] & (llc.config.num_sets - 1)
        tag3 = blocks2[:count2] >> llc.config.index_bits
        lane = LaneCtx()
        lane.set_stream = soa.ptr_int64(set3)
        lane.tag_stream = soa.ptr_int64(tag3)
        lane.write_stream = soa.ptr_uint8(write2)
        lane.core = core
        ctx3 = b3.ctx
        memory = hierarchy.memory
        if collect:
            mem_arr = np.zeros(stop, dtype=np.int64)
            wb_out = np.empty(count2 if count2 else 1, dtype=np.int64)
            lane.origin_stream = soa.ptr_int64(origin2)
            lane.levels = soa.ptr_int64(level_arr)
            lane.mem = soa.ptr_int64(mem_arr)
            lane.wb_out = soa.ptr_int64(wb_out)
            ran = lib.run_trace(
                ctypes.byref(ctx3), ctypes.byref(lane), 0, count2
            )
            llc.tick += ran
            llc_hits, memory_reads = lane.rh, lane.rm
            wb_count = lane.wb_out_count
            memory.reads += memory_reads
            memory.writes += wb_count
            if walk is None and memory.write_log is not None and wb_count:
                offset_bits = llc._offset_bits
                memory.write_log.extend(
                    (block << offset_bits)
                    for block in wb_out[:wb_count].tolist()
                )
        else:
            base_rh = ctx3.read_hits
            base_rm = ctx3.read_misses
            base_wb = ctx3.writebacks
            ran = lib.run_trace(
                ctypes.byref(ctx3), ctypes.byref(lane), 0, count2
            )
            llc.tick += ran
            llc_hits = ctx3.read_hits - base_rh
            memory_reads = ctx3.read_misses - base_rm
            memory.reads += memory_reads
            memory.writes += ctx3.writebacks - base_wb
        _finish(b3)
        counts = {
            "l1": l1_hits,
            "l2": l2_hits,
            "llc": llc_hits,
            "memory": memory_reads,
        }
        if walk is not None:
            walk.run(lib, level_arr, mem_arr, wb_out, wb_count, start, stop)
            return counts, None, None
        if collect:
            return counts, level_arr.tolist(), mem_arr.tolist()
        return counts

    # -- multicore ---------------------------------------------------------
    def try_run_multicore(self, system, traces, views, warmup):
        """Kernel counterpart of ``SharedLLCSystem.run_scalar``.

        Runs the whole progress-driven interleave in C over one gathered
        LLC image; returns a :class:`SharedRunResult`, or None (naming
        why in ``fallback_reason``) and the caller runs ``run_scalar``.
        """
        lib = load_native()
        if lib is None:
            return self._fallback("no native kernel library available")
        llc = system.llc
        timings = system.timings
        num_cores = system.num_cores
        for timing in timings:
            if getattr(timing, "backend", None) is not None:
                return self._fallback("memory timing backend is active")
        binding = self._bind(llc, "the multicore interleave")
        if binding is None:
            return None
        stream_sets = [view.kernel_streams() for view in views]
        if any(streams is None for streams in stream_sets):
            return self._fallback(_STREAM_OVERFLOW)
        cycle_sets = [
            view.kernel_cycles(timing.core.base_cpi)
            for view, timing in zip(views, timings)
        ]
        for trace, (set_arr, tag_arr, write_arr, gap_arr), cycles in zip(
            traces, stream_sets, cycle_sets
        ):
            # Lanes wrap around their whole trace.
            soa.check_streams(
                llc.config.num_sets, 0, len(trace),
                set=set_arr, tag=tag_arr, write=write_arr, gap=gap_arr,
                cycle=cycles,
            )

        lanes = (LaneCtx * num_cores)()
        rings = []
        try:
            for core in range(num_cores):
                lane = lanes[core]
                set_arr, tag_arr, write_arr, gap_arr = stream_sets[core]
                lane.set_stream = soa.ptr_int64(set_arr)
                lane.tag_stream = soa.ptr_int64(tag_arr)
                lane.write_stream = soa.ptr_uint8(write_arr)
                lane.gap_stream = soa.ptr_int64(gap_arr)
                lane.core = core
                rings.append(
                    _fill_lane_timing(lane, timings[core], cycle_sets[core])
                )
        except OverflowError:
            return self._fallback("timing state overflows the lane image")

        lengths = np.array([len(trace) for trace in traces], dtype=np.int64)
        # each core's next access, wrapped to its trace (the kernel has
        # no per-core array of its own: untracked runs take any count)
        position = np.zeros(num_cores, dtype=np.int64)
        done = np.zeros(num_cores, dtype=np.uint8)
        effective = np.zeros(num_cores, dtype=np.float64)
        base = [np.zeros(num_cores, dtype=np.int64) for _ in range(4)]
        frozen_tallies = [np.zeros(num_cores, dtype=np.int64) for _ in range(4)]
        frozen_instr = np.zeros(num_cores, dtype=np.uint64)
        frozen_instr_hi = np.zeros(num_cores, dtype=np.int64)
        frozen_cycles = np.zeros(num_cores, dtype=np.float64)
        ticks = np.zeros(num_cores, dtype=np.int64)

        mctx = MultiCtx()
        mctx.num_cores = num_cores
        mctx.lanes = lanes
        mctx.lengths = soa.ptr_int64(lengths)
        mctx.warmup = warmup
        mctx.position = soa.ptr_int64(position)
        mctx.done = soa.ptr_uint8(done)
        mctx.effective = soa.ptr_double(effective)
        mctx.base_rh = soa.ptr_int64(base[0])
        mctx.base_rm = soa.ptr_int64(base[1])
        mctx.base_wh = soa.ptr_int64(base[2])
        mctx.base_wm = soa.ptr_int64(base[3])
        mctx.frozen_rh = soa.ptr_int64(frozen_tallies[0])
        mctx.frozen_rm = soa.ptr_int64(frozen_tallies[1])
        mctx.frozen_wh = soa.ptr_int64(frozen_tallies[2])
        mctx.frozen_wm = soa.ptr_int64(frozen_tallies[3])
        mctx.frozen_instr = soa.ptr_uint64(frozen_instr)
        mctx.frozen_instr_hi = soa.ptr_int64(frozen_instr_hi)
        mctx.frozen_cycles = soa.ptr_double(frozen_cycles)
        mctx.ticks = soa.ptr_int64(ticks)
        mctx.remaining = num_cores

        lib.multicore(ctypes.byref(binding.ctx), ctypes.byref(mctx))

        llc.tick += int(ticks.sum())
        for core in range(num_cores):
            _flush_lane_timing(timings[core], lanes[core], rings[core])
        _finish(binding)

        counts = [
            [
                int(frozen_tallies[k][core]) - int(base[k][core])
                for k in range(4)
            ]
            for core in range(num_cores)
        ]
        frozen = [
            (
                _join_instructions(frozen_instr[core], frozen_instr_hi[core]),
                float(frozen_cycles[core]),
            )
            for core in range(num_cores)
        ]
        return system._collect(traces, counts, frozen)


def attach_kernel(target, spec: "KernelSpec | str") -> None:
    """Install a :class:`KernelRuntime` on every cache ``target`` owns.

    Accepts a bare :class:`SetAssociativeCache`, a ``MemoryHierarchy``
    (every private level plus the LLC gets the one runtime its stage
    replay dispatches to), or a ``SharedLLCSystem``.  ``spec``
    may be a :class:`KernelSpec` or its string form.  The ``dict`` spec
    detaches instead, restoring the dict-driven batch drivers.
    """
    spec = KernelSpec.coerce(spec)
    runtime = None if spec.name == "dict" else KernelRuntime()
    for cache in _owned_caches(target):
        cache.kernel = runtime


def _owned_caches(target):
    if hasattr(target, "all_caches"):  # MemoryHierarchy
        yield from target.all_caches()
    elif hasattr(target, "llc"):  # SharedLLCSystem
        yield target.llc
    else:  # a bare cache
        yield target
