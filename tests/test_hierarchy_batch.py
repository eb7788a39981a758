"""The staged hierarchy replay against its scalar specification."""

from __future__ import annotations

import pytest

from repro.cache.cache import SetAssociativeCache
from repro.cache.policy import make_policy
from repro.common.config import CacheConfig
from repro.cpu.core import HierarchyRunner, LLCRunner
from repro.hierarchy.prefetch import NoPrefetcher
from repro.hierarchy.system import MemoryHierarchy
from repro.mem import make_backend
from repro.trace.access import Trace
from repro.verify.fuzzer import SCENARIOS, fuzz_trace
from repro.verify.system import (
    HIERARCHY_GEOMETRIES,
    _hierarchy_snapshot,
    small_hierarchy as fuzz_hierarchy_config,
)

try:
    from hypothesis import given, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is a dev extra
    HAVE_HYPOTHESIS = False

LENGTH = 768
GEOMETRY = HIERARCHY_GEOMETRIES[0]
CONFIG = fuzz_hierarchy_config(GEOMETRY)
LLC_SETS, LLC_WAYS = GEOMETRY[2]


def replay_both_ways(policy, trace, config=CONFIG, collect=False):
    batched = MemoryHierarchy(config, make_policy(policy))
    scalar = MemoryHierarchy(config, make_policy(policy))
    assert batched._batch_supported(0), "fixture must hit the staged path"
    got = batched.run_trace(trace, collect=collect)
    want = scalar._run_trace_scalar(
        trace, core=0, start=0, stop=len(trace), collect=collect
    )
    return batched, scalar, got, want


@pytest.mark.parametrize("policy", ["lru", "drrip", "ship", "rwp"])
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_batched_equals_scalar(policy, scenario):
    trace = fuzz_trace(scenario, 1301, LLC_SETS, LLC_WAYS, LENGTH)
    batched, scalar, got, want = replay_both_ways(policy, trace)
    assert got == want
    assert _hierarchy_snapshot(batched) == _hierarchy_snapshot(scalar)


def test_collect_mode_equals_scalar():
    trace = fuzz_trace("dirty_storm", 1302, LLC_SETS, LLC_WAYS, LENGTH)
    batched, scalar, got, want = replay_both_ways("rwp", trace, collect=True)
    got_counts, got_levels, got_mem = got
    want_counts, want_levels, want_mem = want
    assert got_counts == want_counts
    assert got_levels == want_levels
    assert got_mem == want_mem
    assert _hierarchy_snapshot(batched) == _hierarchy_snapshot(scalar)


def test_partial_window_equals_scalar():
    trace = fuzz_trace("mixed", 1303, LLC_SETS, LLC_WAYS, LENGTH)
    batched = MemoryHierarchy(CONFIG, make_policy("lru"))
    scalar = MemoryHierarchy(CONFIG, make_policy("lru"))
    start, stop = LENGTH // 3, 2 * LENGTH // 3
    got = batched.run_trace(trace, start=start, stop=stop)
    want = scalar._run_trace_scalar(trace, 0, start, stop, collect=False)
    assert got == want
    assert _hierarchy_snapshot(batched) == _hierarchy_snapshot(scalar)


def test_hierarchy_runner_timing_equals_scalar_replay(small_hierarchy):
    trace = fuzz_trace("mixed", 1304, 64, 16, LENGTH)
    runner = HierarchyRunner(small_hierarchy, make_policy("rwp"))
    result = runner.run(trace, warmup=LENGTH // 4)
    # An independent scalar pass over the same window must see the same
    # service levels the timing replay consumed.
    scalar = MemoryHierarchy(small_hierarchy, make_policy("rwp"))
    scalar._run_trace_scalar(trace, 0, 0, LENGTH // 4, collect=False)
    scalar.reset_stats()
    counts, levels, _ = scalar._run_trace_scalar(
        trace, 0, LENGTH // 4, LENGTH, collect=True
    )
    assert result.extra["hierarchy"] == scalar.snapshot()
    assert result.llc_read_misses == scalar.llc.read_misses
    assert result.llc_read_misses + result.llc_read_hits <= sum(counts.values())


def test_inclusion_invariant_and_back_invalidation():
    """No L1/L2 line survives the eviction of its LLC copy."""
    # A conflict-heavy trace on a tiny LLC forces steady evictions.
    trace = fuzz_trace("conflict", 1305, LLC_SETS, LLC_WAYS, 2 * LENGTH)
    hierarchy = MemoryHierarchy(CONFIG, make_policy("lru"), inclusive=True)
    assert not hierarchy._batch_supported(0)  # falls back, same results
    counts = hierarchy.run_trace(trace)
    assert hierarchy.back_invalidations > 0
    llc_resident = {
        line.tag for s in hierarchy.llc.sets for line in s.lines if line.valid
    }

    def addresses(cache):
        shift = cache._tag_shift
        index_bits = cache._index_bits
        offset = cache._offset_bits
        for set_index, cache_set in enumerate(cache.sets):
            for line in cache_set.lines:
                if line.valid:
                    yield (line.tag << shift) | (set_index << offset)

    llc = hierarchy.llc
    llc_addresses = set(addresses(llc))
    for upper in (hierarchy.l1s[0], hierarchy.l2s[0]):
        for address in addresses(upper):
            assert address in llc_addresses, (
                f"{upper.config.name} holds {address:#x} "
                "with no LLC copy (inclusion violated)"
            )
    # The fallback is bit-identical to the explicit scalar walk.
    scalar = MemoryHierarchy(CONFIG, make_policy("lru"), inclusive=True)
    want = scalar._run_trace_scalar(trace, 0, 0, len(trace), collect=False)
    assert counts == want
    assert hierarchy.back_invalidations == scalar.back_invalidations


def test_eviction_listener_fires_in_batch_mode(tiny_config):
    """The cache-level batch driver must drive eviction listeners."""
    trace = fuzz_trace("conflict", 1306, 16, 4, LENGTH)
    events_batched, events_scalar = [], []

    batched = SetAssociativeCache(tiny_config, make_policy("lru"))
    batched.eviction_listener = lambda a, d: events_batched.append((a, d))
    batched.run_trace(trace.decoded(tiny_config))

    scalar = SetAssociativeCache(tiny_config, make_policy("lru"))
    scalar.eviction_listener = lambda a, d: events_scalar.append((a, d))
    for address, is_write, pc, _gap in trace:
        scalar.access(address, is_write, pc)

    assert events_batched, "conflict trace must evict"
    assert events_batched == events_scalar
    assert batched.read_misses == scalar.read_misses


def test_prefetch_fills_survive_batch_replay(tiny_config):
    """A cache holding prefetched lines replays identically batched."""
    trace = fuzz_trace("mixed", 1307, 16, 4, LENGTH)
    prefetched = [line * 64 for line in range(0, 48, 3)]

    batched = SetAssociativeCache(tiny_config, make_policy("lru"))
    scalar = SetAssociativeCache(tiny_config, make_policy("lru"))
    for address in prefetched:
        batched.fill_prefetch(address)
        scalar.fill_prefetch(address)
    assert batched._prefetch_active and scalar._prefetch_active

    batched.run_trace(trace.decoded(tiny_config))
    for address, is_write, pc, _gap in trace:
        scalar.access(address, is_write, pc)

    for name in (
        "read_hits",
        "read_misses",
        "write_hits",
        "write_misses",
        "prefetch_fills",
        "prefetch_useful",
        "prefetch_unused_evictions",
    ):
        assert getattr(batched, name) == getattr(scalar, name), name
    assert batched.prefetch_useful > 0


def test_llc_runner_batched_equals_prefetcherless_scalar(small_hierarchy):
    """Write buffer + timing interplay: batched == scalar interleave.

    ``NoPrefetcher`` forces the per-access scalar loop while issuing no
    prefetches, so it must reproduce the batched run bit for bit --
    including the write-buffer stall accounting inside the timing model.
    """
    trace = fuzz_trace("dirty_storm", 1308, 64, 16, LENGTH)
    batched = LLCRunner(small_hierarchy, make_policy("rwp"))
    scalar = LLCRunner(small_hierarchy, make_policy("rwp"), prefetcher=NoPrefetcher())
    got = batched.run(trace, warmup=LENGTH // 4)
    want = scalar.run(trace, warmup=LENGTH // 4)
    assert got.to_dict() == want.to_dict()
    assert got.write_stall_cycles == want.write_stall_cycles


def test_dram_backend_preserves_cache_behavior(small_hierarchy):
    """The DRAM timing backend changes cycles, never cache contents."""
    trace = fuzz_trace("mixed", 1309, 64, 16, LENGTH)
    runners = [LLCRunner(small_hierarchy, make_policy("rwp"))] + [
        LLCRunner(
            small_hierarchy,
            make_policy("rwp"),
            backend=make_backend(spec, small_hierarchy),
        )
        for spec in ("dram:banked=true", "dram:banked=true:scheduler=true")
    ]
    results = [r.run(trace, warmup=LENGTH // 4) for r in runners]
    for name in (
        "llc_read_hits",
        "llc_read_misses",
        "llc_write_hits",
        "llc_write_misses",
        "llc_writebacks",
        "llc_bypasses",
    ):
        values = {getattr(result, name) for result in results}
        assert len(values) == 1, name


if HAVE_HYPOTHESIS:

    @given(
        data=st.lists(
            st.tuples(st.integers(0, 127), st.booleans()),
            min_size=1,
            max_size=300,
        ),
        policy=st.sampled_from(["lru", "drrip", "rwp"]),
    )
    def test_property_batched_equals_scalar(data, policy):
        trace = Trace(
            [line * 64 for line, _ in data],
            [w for _, w in data],
            pcs=[(line * 2654435761) & 0xFFFF for line, _ in data],
            name="hyp",
        )
        batched, scalar, got, want = replay_both_ways(policy, trace)
        assert got == want
        assert _hierarchy_snapshot(batched) == _hierarchy_snapshot(scalar)
