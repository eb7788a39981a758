"""Unit tests for the RRP predictor and the state-overhead accounting."""

import pytest

from repro.cache.cache import SetAssociativeCache
from repro.cache.policy import make_policy
from repro.common.config import CacheConfig, paper_system_config
from repro.core.overhead import overhead_ratio, overhead_report, rrp_state, rwp_state
from repro.core.rrp import RRPPolicy, pc_signature


def addr(line: int) -> int:
    return line * 64


def tiny():
    return CacheConfig(size=4 * 4 * 64, ways=4, name="t")


class TestRRPPrediction:
    def test_cold_pc_predicts_read(self):
        policy = RRPPolicy()
        assert policy.predicts_read(0x1234)

    def test_rejects_non_pow2_table(self):
        with pytest.raises(ValueError):
            RRPPolicy(entries=1000)
        with pytest.raises(ValueError):
            RRPPolicy(entries=0)

    def test_counters_must_fit_int64(self):
        with pytest.raises(ValueError, match="below 64"):
            make_policy("rrp:counter_bits=64")
        assert RRPPolicy(entries=64, counter_bits=63)._table[0] == 1 << 62

    def test_signature_bounded(self):
        assert 0 <= pc_signature(0xFFFFFFFF, 256) < 256

    def _train_dead(self, policy, cache, pc, sets=16):
        # Fill from `pc`, never read, force eviction: trains the counter
        # down to zero.
        for k in range(40):
            cache.access(addr(k * 4), True, pc=pc)  # 4 sets: k*4 -> set 0
        return policy

    def test_dead_write_pc_learned_then_bypassed(self):
        policy = RRPPolicy()
        cache = SetAssociativeCache(tiny(), policy)
        dead_pc = 0x400
        self._train_dead(policy, cache, dead_pc)
        assert not policy.predicts_read(dead_pc)
        before = cache.bypasses
        for k in range(100, 130):
            cache.access(addr(k * 4), True, pc=dead_pc)
        assert cache.bypasses > before

    def test_read_serving_pc_stays_cached(self):
        policy = RRPPolicy()
        cache = SetAssociativeCache(tiny(), policy)
        pc = 0x500
        for k in range(30):
            cache.access(addr(k * 4), True, pc=pc)
            cache.access(addr(k * 4), False, pc=pc)  # read after write
        assert policy.predicts_read(pc)
        assert cache.bypasses == 0

    def test_sacrificial_fills_allow_retraining(self):
        policy = RRPPolicy(seed=7)
        cache = SetAssociativeCache(tiny(), policy)
        dead_pc = 0x600
        self._train_dead(policy, cache, dead_pc)
        # Behavior changes: lines from this PC now get read.  Sacrificial
        # (1/64) fills plus read hits must revive the signature.
        for k in range(3000):
            cache.access(addr((200 + k % 8) * 4), True, pc=dead_pc)
            cache.access(addr((200 + k % 8) * 4), False, pc=dead_pc)
        assert policy.predicts_read(dead_pc)

    def test_write_hits_do_not_promote_unread_lines(self):
        policy = RRPPolicy()
        cache = SetAssociativeCache(tiny(), policy)
        cache.access(addr(0), True, pc=1)  # fill dirty, stamp s0
        cache.access(addr(4), False, pc=2)
        cache.access(addr(0), True, pc=1)  # write hit: must NOT renew
        cache.access(addr(8), False, pc=2)
        cache.access(addr(12), False, pc=2)
        cache.access(addr(16), False, pc=2)  # eviction: line 0 is LRU
        assert cache.probe(addr(0)) is None

    def test_read_hits_do_promote(self):
        policy = RRPPolicy()
        cache = SetAssociativeCache(tiny(), policy)
        cache.access(addr(0), False, pc=1)
        cache.access(addr(4), False, pc=2)
        cache.access(addr(0), False, pc=1)  # read hit renews recency
        cache.access(addr(8), False, pc=2)
        cache.access(addr(12), False, pc=2)
        cache.access(addr(16), False, pc=2)  # evicts line 4, not 0
        assert cache.probe(addr(0)) is not None
        assert cache.probe(addr(4)) is None

    def test_dead_read_pc_inserted_at_lru(self):
        policy = RRPPolicy()
        cache = SetAssociativeCache(tiny(), policy)
        dead_pc = 0x700
        # Train dead with read-only streaming (filled by reads, never
        # re-read).
        for k in range(40):
            cache.access(addr(k * 4), False, pc=dead_pc)
        assert not policy.predicts_read(dead_pc)
        # Now a fill from the dead PC becomes the set's next victim.
        live_pc = 0x800
        cache2 = cache
        cache2.access(addr(500 * 4), False, pc=dead_pc)
        cache2.access(addr(501 * 4), False, pc=live_pc)
        assert cache2.probe(addr(500 * 4)) is None

    def test_describe(self):
        policy = RRPPolicy()
        cache = SetAssociativeCache(tiny(), policy)
        cache.access(addr(0), True, pc=3)
        info = policy.describe()
        assert 0 <= info["predict_read_fraction"] <= 1
        assert info["bypassed_writes"] == 0


class TestOverhead:
    def test_ratio_matches_paper_ballpark(self):
        llc = paper_system_config().hierarchy.llc
        ratio = overhead_ratio(llc)
        # Paper reports 5.4%; our parameterization lands near it.
        assert 0.03 < ratio < 0.10

    def test_rwp_budget_components(self):
        llc = paper_system_config().hierarchy.llc
        budget = rwp_state(llc)
        names = [name for name, _ in budget.components]
        assert any("sampler" in n for n in names)
        assert budget.total_bits > 0
        assert budget.total_kib < 16  # a few KiB, as the paper argues

    def test_rrp_dominated_by_per_line_state(self):
        llc = paper_system_config().hierarchy.llc
        budget = rrp_state(llc)
        per_line = dict(budget.components)
        biggest = max(budget.components, key=lambda c: c[1])
        assert "per-line" in biggest[0]

    def test_rwp_sampler_scales_with_ways_not_lines(self):
        small = CacheConfig(size=1 * 1024 * 1024, ways=16, name="llc")
        large = CacheConfig(size=4 * 1024 * 1024, ways=16, name="llc")
        # Same sampled-set budget -> identical sampler cost.
        assert rwp_state(small).total_bits == rwp_state(large).total_bits
        # RRP's per-line state grows 4x instead.
        assert rrp_state(large).total_bits > 3 * rrp_state(small).total_bits

    def test_report_renders(self):
        llc = paper_system_config().hierarchy.llc
        report = overhead_report(llc)
        assert "RWP / RRP state ratio" in report
        assert "KiB" in report
