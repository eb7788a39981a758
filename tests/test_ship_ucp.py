"""Unit tests for SHiP-PC and UCP (UMON + lookahead partitioning)."""

import pytest

from repro.cache.cache import SetAssociativeCache
from repro.cache.policy import make_policy
from repro.cache.rrip import RRPV_LONG, RRPV_MAX
from repro.cache.ship import SHiPPolicy, pc_signature
from repro.cache.ucp import UCPPolicy, UtilityMonitor, lookahead_partition
from repro.common.config import CacheConfig


def addr(line: int) -> int:
    return line * 64


class TestSHiP:
    def test_signature_stable_and_bounded(self):
        assert pc_signature(0x401000) == pc_signature(0x401000)
        assert 0 <= pc_signature(0xDEADBEEF, 1024) < 1024

    def test_rejects_non_pow2_table(self):
        with pytest.raises(ValueError):
            SHiPPolicy(entries=1000)
        with pytest.raises(ValueError):
            SHiPPolicy(entries=0)

    def test_counters_must_fit_int64(self):
        # The SHCT is an int64 buffer; a spec asking for wider counters
        # is a bad parameter, not an OverflowError.
        with pytest.raises(ValueError, match="below 64"):
            make_policy("ship:counter_bits=64")
        assert SHiPPolicy(entries=64, counter_bits=63)._shct[0] == 1 << 62

    def test_cold_signature_inserted_long(self, tiny_config):
        cache = SetAssociativeCache(tiny_config, SHiPPolicy())
        cache.access(addr(0), False, pc=0x400)
        assert cache.probe(addr(0)).rrpv == RRPV_LONG

    def test_dead_signature_learned_and_inserted_distant(self, tiny_config):
        policy = SHiPPolicy(entries=64)
        cache = SetAssociativeCache(tiny_config, policy)
        dead_pc = 0x400
        # Fill lines from dead_pc and evict them without reuse until the
        # SHCT counter for the signature reaches zero.
        for k in range(64):
            cache.access(addr(k * 16), False, pc=dead_pc)  # set 0 each time
        cache.access(addr(999 * 16), False, pc=dead_pc)
        assert cache.probe(addr(999 * 16)).rrpv == RRPV_MAX

    def test_reused_signature_trained_up(self, tiny_config):
        policy = SHiPPolicy(entries=64)
        cache = SetAssociativeCache(tiny_config, policy)
        hot_pc = 0x500
        for k in range(20):
            cache.access(addr(k), False, pc=hot_pc)
            cache.access(addr(k), False, pc=hot_pc)  # immediate reuse
        fraction = policy.describe()["shct_nonzero_fraction"]
        assert fraction > 0
        cache.access(addr(4000), False, pc=hot_pc)
        assert cache.probe(addr(4000)).rrpv == RRPV_LONG

    def test_outcome_flag_set_once(self, tiny_config):
        policy = SHiPPolicy()
        cache = SetAssociativeCache(tiny_config, policy)
        cache.access(addr(0), False, pc=4)
        cache.access(addr(0), False, pc=4)
        line = cache.probe(addr(0))
        assert line.outcome == 1


class TestUtilityMonitor:
    def test_counts_hit_at_stack_depth(self):
        monitor = UtilityMonitor(ways=4)
        monitor.observe(0, tag=1)
        monitor.observe(0, tag=2)
        monitor.observe(0, tag=1)  # depth 1 hit
        assert monitor.position_hits == [0, 1, 0, 0]

    def test_mru_promotion(self):
        monitor = UtilityMonitor(ways=4)
        for tag in (1, 2, 3):
            monitor.observe(0, tag)
        monitor.observe(0, 1)  # depth 2, promoted to MRU
        monitor.observe(0, 1)  # now depth 0
        assert monitor.position_hits[0] == 1
        assert monitor.position_hits[2] == 1

    def test_stack_bounded_by_ways(self):
        monitor = UtilityMonitor(ways=2)
        for tag in (1, 2, 3):
            monitor.observe(0, tag)
        monitor.observe(0, 1)  # fell off the 2-deep stack: miss again
        assert sum(monitor.position_hits) == 0

    def test_utility_prefix(self):
        monitor = UtilityMonitor(ways=4)
        monitor.position_hits = [5, 3, 2, 1]
        assert monitor.utility(0) == 0
        assert monitor.utility(2) == 8
        assert monitor.utility(4) == 11

    def test_decay_halves(self):
        monitor = UtilityMonitor(ways=2)
        monitor.position_hits = [9, 4]
        monitor.decay()
        assert monitor.position_hits == [4, 2]


class TestLookahead:
    def _monitor_with(self, hits):
        monitor = UtilityMonitor(ways=len(hits))
        monitor.position_hits = list(hits)
        return monitor

    def test_allocation_sums_to_ways(self):
        monitors = [
            self._monitor_with([10, 5, 2, 0, 0, 0, 0, 0]),
            self._monitor_with([8, 8, 8, 8, 8, 8, 8, 8]),
        ]
        allocation = lookahead_partition(monitors, total_ways=8)
        assert sum(allocation) == 8
        assert all(ways >= 1 for ways in allocation)

    def test_greedy_prefers_high_utility_core(self):
        monitors = [
            self._monitor_with([100, 100, 100, 100]),
            self._monitor_with([1, 0, 0, 0]),
        ]
        allocation = lookahead_partition(monitors, total_ways=4)
        assert allocation[0] == 3
        assert allocation[1] == 1

    def test_lookahead_sees_past_plateau(self):
        # Core 0's utility is flat then jumps at way 3 (a knee); plain
        # greedy (span 1) would starve it, lookahead must not.
        monitors = [
            self._monitor_with([0, 0, 90, 0]),
            self._monitor_with([10, 10, 10, 10]),
        ]
        allocation = lookahead_partition(monitors, total_ways=4)
        assert allocation[0] == 3

    def test_too_few_ways_rejected(self):
        with pytest.raises(ValueError):
            lookahead_partition([self._monitor_with([1])], total_ways=0)


class TestUCPPolicy:
    def test_needs_ways_at_least_cores(self):
        config = CacheConfig(size=16 * 2 * 64, ways=2, name="t")
        with pytest.raises(ValueError, match="ways >= cores"):
            SetAssociativeCache(config, UCPPolicy(num_cores=4))

    def test_initial_allocation_even(self, small_config):
        policy = UCPPolicy(num_cores=4)
        SetAssociativeCache(small_config, policy)
        assert sum(policy.allocation) == small_config.ways
        assert max(policy.allocation) - min(policy.allocation) <= 1

    def test_under_quota_core_protected(self):
        config = CacheConfig(size=1 * 4 * 64, ways=4, name="t")
        policy = UCPPolicy(num_cores=2, epoch=1 << 30)
        cache = SetAssociativeCache(config, policy)
        policy.allocation = [2, 2]
        # Core 0 floods the set; core 1 holds one line.
        cache.access(addr(100), False, core=1)
        for k in range(8):
            cache.access(addr(k), False, core=0)
        # Core 1 is under quota (1 < 2): its line must never be evicted.
        assert cache.probe(addr(100)) is not None

    def test_repartition_shifts_toward_reuser(self):
        config = CacheConfig(size=64 * 8 * 64, ways=8, name="t")
        policy = UCPPolicy(num_cores=2, sampling=1, epoch=4000)
        cache = SetAssociativeCache(config, policy)
        # Core 0 re-uses a big working set; core 1 streams (no reuse).
        stream = 10_000
        for round_ in range(30):
            for line in range(320):
                cache.access(addr(line), False, core=0)
            for _ in range(64):
                stream += 1
                cache.access(addr(stream), False, core=1)
        assert policy.allocation[0] > policy.allocation[1]
