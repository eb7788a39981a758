"""SHiP-PC: signature-based hit prediction (Wu et al., MICRO 2011).

A table of saturating counters (SHCT), indexed by a hash of the filling
instruction's PC, learns whether fills from that instruction tend to be
re-referenced.  Fills with a zero counter are inserted at distant RRPV
(evicted quickly); others at long.  Eviction without reuse trains the
counter down; first reuse trains it up.
"""

from __future__ import annotations

from array import array

import numpy as np

from repro.cache.line import CacheLine
from repro.cache.policy import register_policy
from repro.cache.rrip import RRPV_LONG, RRPV_MAX, SRRIPPolicy

SHCT_ENTRIES = 16 * 1024
SHCT_BITS = 3


def pc_signature(pc: int, entries: int = SHCT_ENTRIES) -> int:
    """Fold a PC into a table index (Fibonacci hashing)."""
    return ((pc >> 2) * 2654435761) & (entries - 1)


class SHiPPolicy(SRRIPPolicy):
    """SHiP-PC over an SRRIP backbone."""

    # ABI v2: fills are signed by the filling PC, and the SHCT trains
    # down on reuse-free evictions.
    needs_pc = True
    trains_on_evict = True

    def __init__(
        self, entries: int = SHCT_ENTRIES, counter_bits: int = SHCT_BITS
    ) -> None:
        super().__init__()
        if entries < 1 or entries & (entries - 1):
            raise ValueError("SHCT entry count must be a power of two")
        if counter_bits >= 64:
            raise ValueError("counter_bits must be below 64")
        self._entries = entries
        self._max_count = (1 << counter_bits) - 1
        # An int64 buffer: the native kernel trains it in place.
        self._shct = array("q", [self._max_count // 2 + 1]) * entries

    def on_fill(self, cache_set, line, set_index, is_write, pc, core) -> None:
        signature = pc_signature(pc, self._entries)
        line.signature = signature
        line.outcome = 0
        line.rrpv = RRPV_LONG if self._shct[signature] > 0 else RRPV_MAX

    def on_hit(self, cache_set, line, set_index, is_write, pc, core) -> None:
        line.rrpv = 0
        if line.outcome == 0:
            line.outcome = 1
            signature = line.signature
            if self._shct[signature] < self._max_count:
                self._shct[signature] += 1

    def on_evict(self, line: CacheLine, set_index: int) -> None:
        if line.outcome == 0:
            signature = line.signature
            if self._shct[signature] > 0:
                self._shct[signature] -= 1

    def describe(self):
        info = super().describe()
        counters = np.asarray(self._shct)
        info["shct_nonzero_fraction"] = int(
            np.count_nonzero(counters > 0)
        ) / len(counters)
        return info


register_policy("ship", SHiPPolicy)
