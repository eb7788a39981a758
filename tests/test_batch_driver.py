"""Batch driver equivalence: ``run_trace`` == a scalar ``access`` loop.

The dict-driven batched replay promises bit-identical statistics,
line state, and timing to calling
:meth:`~repro.cache.cache.SetAssociativeCache.access` once per record.
These property tests hold that promise across every oracle-backed
policy and several geometries, plus directed tests for the decode
layer's caching.
"""

from __future__ import annotations

import pytest

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is a dev extra
    HAVE_HYPOTHESIS = False

from repro.cache import _ensure_policies_loaded
from repro.cache.basic import LRUPolicy
from repro.cache.cache import SetAssociativeCache
from repro.cache.policy import make_policy
from repro.common.config import CacheConfig, CoreConfig, MemoryConfig
from repro.cpu.timing import TimingModel
from repro.trace.access import Trace
from repro.verify.jobs import VERIFY_POLICIES

_ensure_policies_loaded()

GEOMETRIES = (
    CacheConfig(size=16 * 4 * 64, ways=4, name="g16x4"),
    CacheConfig(size=64 * 8 * 64, ways=8, name="g64x8"),
    CacheConfig(size=32 * 16 * 64, ways=16, name="g32x16"),
)

#: a small, colliding PC pool so PC-indexed policies (rrp, ship) see
#: both recurring and fresh signatures.
PC_POOL = (0, 4, 8, 12, 40, 44, 400, 404)


def make_timing(config: CacheConfig) -> TimingModel:
    return TimingModel(CoreConfig(), MemoryConfig(), config.hit_latency)


def scalar_replay(cache, trace, timing=None) -> None:
    """The reference semantics: per-access calls, LLCRunner event order."""
    for address, is_write, pc, gap in trace:
        if timing is not None:
            timing.advance(gap)
        hit, bypassed, wb = cache.access(address, is_write, pc)
        if timing is not None:
            if is_write:
                if bypassed:
                    timing.memory_write()
            elif hit:
                timing.read_hit()
            else:
                timing.read_miss()
            if wb >= 0:
                timing.memory_write()


def full_state(cache):
    """Every externally meaningful field: stats, tick, per-set lines."""
    per_set = []
    for cache_set in cache.sets:
        assert cache_set.dirty_lines == cache_set.dirty_count()
        assert cache_set.filled == sum(1 for l in cache_set.lines if l.valid)
        per_set.append(
            sorted(
                (
                    line.tag,
                    line.stamp,
                    line.dirty,
                    line.rrpv,
                    line.signature,
                    line.outcome,
                    line.read_seen,
                    line.write_seen,
                    line.prefetched,
                )
                for line in cache_set.lines
                if line.valid
            )
        )
    return cache.stats.snapshot("llc"), cache.tick, per_set


def timing_state(timing):
    return (
        timing.cycles,
        timing.instructions,
        timing.read_stall_cycles,
        timing.write_stall_cycles,
        timing.write_buffer.total_writes,
        timing.write_buffer.stall_cycles,
    )


if HAVE_HYPOTHESIS:

    @st.composite
    def trace_inputs(draw):
        config = draw(st.sampled_from(GEOMETRIES))
        # Twice the cache's line capacity keeps every set under
        # replacement pressure without making examples huge.
        span = config.num_sets * config.ways * 2
        n = draw(st.integers(min_value=1, max_value=250))
        lines = draw(st.lists(st.integers(0, span), min_size=n, max_size=n))
        writes = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        pcs = draw(st.lists(st.sampled_from(PC_POOL), min_size=n, max_size=n))
        gaps = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        timed = draw(st.booleans())
        trace = Trace([line * 64 for line in lines], writes, pcs, gaps)
        return config, trace, timed

    @pytest.mark.parametrize("policy_name", VERIFY_POLICIES)
    @settings(max_examples=25)
    @given(data=st.data())
    def test_run_trace_matches_scalar_loop(policy_name, data):
        """Batched replay is field-for-field identical to scalar access,
        timed (fused timing) and untimed."""
        config, trace, timed = data.draw(trace_inputs())
        scalar = SetAssociativeCache(config, make_policy(policy_name))
        batched = SetAssociativeCache(config, make_policy(policy_name))
        scalar_timing = make_timing(config) if timed else None
        batched_timing = make_timing(config) if timed else None

        scalar_replay(scalar, trace, scalar_timing)
        ran = batched.run_trace(trace.decoded(config), timing=batched_timing)

        assert ran == len(trace)
        assert full_state(batched) == full_state(scalar)
        if timed:
            assert timing_state(batched_timing) == timing_state(scalar_timing)

    @pytest.mark.parametrize("policy_name", ("lru", "rwp"))
    @settings(max_examples=15)
    @given(data=st.data())
    def test_run_trace_split_matches_one_shot(policy_name, data):
        """Replaying [0, k) then [k, n) equals one [0, n) replay.

        Statistics and timing live in loop locals during a replay, so
        re-entering mid-trace (warmup splits do this) must land in
        exactly the same state.
        """
        config, trace, _ = data.draw(trace_inputs())
        k = data.draw(st.integers(0, len(trace)))
        whole = SetAssociativeCache(config, make_policy(policy_name))
        split = SetAssociativeCache(config, make_policy(policy_name))
        whole_timing = make_timing(config)
        split_timing = make_timing(config)

        decoded = trace.decoded(config)
        whole.run_trace(decoded, timing=whole_timing)
        split.run_trace(decoded, 0, k, timing=split_timing)
        split.run_trace(decoded, k, timing=split_timing)

        assert full_state(split) == full_state(whole)
        assert timing_state(split_timing) == timing_state(whole_timing)


class TestDecodeLayer:
    def test_decode_is_cached_per_geometry(self):
        trace = Trace([0, 64, 128], [False, True, False])
        small, big = GEOMETRIES[0], GEOMETRIES[1]
        first = trace.decoded(small)
        assert trace.decoded(small) is first
        other = trace.decoded(big)
        assert other is not first
        assert trace.decoded(big) is other

    def test_decode_matches_scalar_arithmetic(self):
        config = GEOMETRIES[1]
        addresses = [0, 64, 4096, 64 * config.num_sets * 7 + 64 * 3, 2**40]
        trace = Trace(addresses, [False] * len(addresses))
        decoded = trace.decoded(config)
        mask = config.num_sets - 1
        for i, address in enumerate(addresses):
            assert decoded.set_indices[i] == (address >> config.offset_bits) & mask
            assert decoded.tags[i] == address >> (
                config.offset_bits + config.index_bits
            )

    def test_cycle_gaps_memoized_per_cpi(self):
        trace = Trace([0, 64, 128], [False] * 3, instr_gaps=[1, 5, 2])
        decoded = trace.decoded(GEOMETRIES[0])
        cycles = decoded.kernel_cycles(0.5)
        assert decoded.kernel_cycles(0.5) is cycles
        # The float list is unboxed from the memoized array per call.
        assert decoded.cycle_gaps(0.5) == cycles.tolist() == [0.5, 2.5, 1.0]
        assert decoded.cycle_gaps(1.0) == [1.0, 5.0, 2.0]

    def test_gap_total_matches_slice_sums(self):
        gaps = [3, 0, 7, 1, 4, 2]
        trace = Trace([i * 64 for i in range(6)], [False] * 6, instr_gaps=gaps)
        decoded = trace.decoded(GEOMETRIES[0])
        for start in range(len(gaps) + 1):
            for stop in range(start, len(gaps) + 1):
                assert decoded.gap_total(start, stop) == sum(gaps[start:stop])

    def test_run_trace_rejects_geometry_mismatch(self):
        trace = Trace([0, 64], [False, False])
        cache = SetAssociativeCache(GEOMETRIES[0], make_policy("lru"))
        with pytest.raises(ValueError, match="geometry"):
            cache.run_trace(trace.decoded(GEOMETRIES[1]))

    def test_run_trace_rejects_bad_range(self):
        trace = Trace([0, 64], [False, False])
        cache = SetAssociativeCache(GEOMETRIES[0], make_policy("lru"))
        with pytest.raises(ValueError, match="range"):
            cache.run_trace(trace.decoded(GEOMETRIES[0]), 1, 5)


class _RecordingLRU(LRUPolicy):
    """LRU that records every line the cache reports as leaving."""

    trains_on_evict = True

    def __init__(self) -> None:
        super().__init__()
        self.departed = []

    def on_evict(self, line, set_index) -> None:
        self.departed.append((set_index, line.tag))


class TestInvalidate:
    """Invalidations must train the policy and keep set state honest."""

    def test_invalidate_notifies_policy_and_counts(self):
        config = GEOMETRIES[0]
        policy = _RecordingLRU()
        cache = SetAssociativeCache(config, policy)
        address = 3 * 64
        cache.access(address, True)
        assert cache.sets[3].dirty_lines == 1

        assert cache.invalidate(address)
        assert policy.departed == [(3, 0)]
        assert cache.stats.invalidations == 1
        assert cache.stats.evictions == 0
        assert cache.sets[3].dirty_lines == 0
        assert cache.sets[3].filled == 0
        # The line is really gone: the next access misses again.
        hit, _, _ = cache.access(address, False)
        assert not hit

    def test_invalidate_absent_line_is_a_noop(self):
        cache = SetAssociativeCache(GEOMETRIES[0], _RecordingLRU())
        assert not cache.invalidate(64)
        assert cache.stats.invalidations == 0


class TestPrefetchEvictions:
    """A prefetch fill that evicts must fire the eviction listener."""

    def test_fill_prefetch_fires_listener_on_eviction(self):
        config = GEOMETRIES[0]
        cache = SetAssociativeCache(config, make_policy("lru"))
        events = []
        cache.eviction_listener = lambda addr, dirty: events.append((addr, dirty))

        set_span = config.num_sets * 64
        for tag in range(config.ways):
            cache.access(tag * set_span, True)  # fill set 0 with dirty lines
        assert not events

        wb = cache.fill_prefetch(config.ways * set_span)
        assert events == [(0, True)]  # victim: tag 0, dirty
        assert wb == 0
        assert cache.stats.writebacks == 1
        assert cache.stats.prefetch_fills == 1

    def test_resident_prefetch_does_not_evict(self):
        config = GEOMETRIES[0]
        cache = SetAssociativeCache(config, make_policy("lru"))
        events = []
        cache.eviction_listener = lambda addr, dirty: events.append((addr, dirty))
        cache.access(0, False)
        assert cache.fill_prefetch(0) == -1
        assert not events
