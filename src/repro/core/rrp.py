"""Read Reference Predictor (RRP) -- the paper's high-state comparator.

RRP predicts, per filling instruction (PC), whether a line will receive
any future read.  Fills predicted read-dead are handled aggressively:

* a *write* miss predicted read-dead is **bypassed** entirely
  (write-no-allocate: the data goes straight down to memory), and
* a *read* miss predicted read-dead is inserted at the LRU position so it
  is the set's next victim.

Training happens in the main cache: each fill records its PC signature;
the first read hit on a line trains its signature up, and eviction of a
line that never served a read after fill trains it down.  A small
anti-starvation throttle lets one in :data:`RETRAIN_ONE_IN` predicted-dead
write fills through, so a signature whose behavior changes can recover
(otherwise a fully saturated "dead" signature would bypass forever and
never be observed again).

The price of this precision is state: a large PC-indexed counter table
plus a per-line signature field so evictions can train -- the overhead
:mod:`repro.core.overhead` quantifies against RWP's tiny sampler.
"""

from __future__ import annotations

from array import array

import numpy as np

from repro.cache.basic import LRUPolicy
from repro.cache.line import CacheLine
from repro.cache.policy import register_policy
from repro.common.rng import CheapLCG

TABLE_ENTRIES = 16 * 1024
COUNTER_BITS = 3
RETRAIN_ONE_IN = 64


def pc_signature(pc: int, entries: int = TABLE_ENTRIES) -> int:
    """Fold a PC into a predictor index (Fibonacci hashing)."""
    return ((pc >> 2) * 2654435761) & (entries - 1)


class RRPPolicy(LRUPolicy):
    """PC-indexed read-reference prediction over an LRU backbone."""

    # ABI v2: the predictor is PC-indexed and trains on evictions;
    # whether write misses may bypass is an instance decision (set in
    # __init__ from ``bypass_writes``).
    needs_pc = True
    trains_on_evict = True

    def __init__(
        self,
        entries: int = TABLE_ENTRIES,
        counter_bits: int = COUNTER_BITS,
        bypass_writes: bool = True,
        seed: int = 2014,
    ) -> None:
        super().__init__()
        if entries < 1 or entries & (entries - 1):
            raise ValueError("predictor entries must be a power of two")
        if counter_bits >= 64:
            raise ValueError("counter_bits must be below 64")
        self._entries = entries
        self._max_count = (1 << counter_bits) - 1
        # Start weakly "will be read" so cold signatures are cached.  An
        # int64 buffer: the native kernel trains it in place.
        self._table = array("q", [self._max_count // 2 + 1]) * entries
        self._bypass_writes = bypass_writes
        self.bypasses = bypass_writes
        self._coin = CheapLCG(seed)
        self.bypassed_writes = 0

    # -- prediction --------------------------------------------------------
    def predicts_read(self, pc: int) -> bool:
        return self._table[pc_signature(pc, self._entries)] > 0

    def should_bypass(self, set_index, tag, is_write, pc, core) -> bool:
        if not (self._bypass_writes and is_write):
            return False
        if self.predicts_read(pc):
            return False
        if self._coin.chance(RETRAIN_ONE_IN):
            return False  # sacrificial fill keeps the signature trainable
        self.bypassed_writes += 1
        return True

    # -- insertion & training ----------------------------------------------
    def on_fill(self, cache_set, line, set_index, is_write, pc, core) -> None:
        line.signature = pc_signature(pc, self._entries)
        line.outcome = 0  # no read served since fill yet
        self._clock += 1
        if not is_write and not self.predicts_read(pc):
            # Read-dead read fill: park at LRU so it leaves quickly.
            line.stamp = min(other.stamp for other in cache_set.lines) - 1
        else:
            line.stamp = self._clock

    def on_hit(self, cache_set, line, set_index, is_write, pc, core) -> None:
        self._clock += 1
        if is_write and line.outcome == 0:
            # A write to a line that has served no read must not renew the
            # line's recency: read criticality is earned by reads.  This
            # also guarantees dead dirty lines age to LRU and get evicted,
            # which is what produces the predictor's negative samples --
            # otherwise an actively re-written dead line would be immortal
            # and its signature untrainable.
            return
        line.stamp = self._clock
        if not is_write and line.outcome == 0:
            line.outcome = 1
            signature = line.signature
            if self._table[signature] < self._max_count:
                self._table[signature] += 1

    def on_evict(self, line: CacheLine, set_index: int) -> None:
        if line.outcome == 0:
            signature = line.signature
            if self._table[signature] > 0:
                self._table[signature] -= 1

    def describe(self):
        info = super().describe()
        counters = np.asarray(self._table)
        live = int(np.count_nonzero(counters > 0))
        info["predict_read_fraction"] = live / len(counters)
        info["bypassed_writes"] = self.bypassed_writes
        return info


register_policy("rrp", RRPPolicy)
