"""Unit tests for the banked DRAM model and banked-DRAM LLC runs."""

import pytest

from repro.common.config import default_hierarchy
from repro.cpu.core import LLCRunner
from repro.hierarchy.dram import DRAMModel
from repro.mem import make_backend
from repro.trace.access import Trace


def addr(line: int) -> int:
    return line * 64


class TestAddressMapping:
    def test_adjacent_lines_interleave_banks(self):
        dram = DRAMModel(num_banks=8)
        banks = {dram.bank_of(addr(k)) for k in range(8)}
        assert banks == set(range(8))

    def test_same_line_same_bank(self):
        dram = DRAMModel()
        assert dram.bank_of(addr(5)) == dram.bank_of(addr(5) + 63)

    def test_row_spans_banks(self):
        dram = DRAMModel(num_banks=4, row_lines=16)
        # Lines 0..63 (4 banks x 16 lines) are row 0 everywhere.
        assert dram.row_of(addr(0)) == dram.row_of(addr(63)) == 0
        assert dram.row_of(addr(64)) == 1

    def test_rejects_non_pow2_banks(self):
        with pytest.raises(ValueError):
            DRAMModel(num_banks=12)


class TestTiming:
    def test_first_access_is_row_miss(self):
        dram = DRAMModel(t_cas=10, t_rcd=20, t_rp=20, t_base=0)
        latency = dram.read(addr(0), now=0.0)
        assert latency == 50  # rp + rcd + cas
        assert dram.row_misses == 1

    def test_row_hit_is_cheap(self):
        dram = DRAMModel(num_banks=4, row_lines=16, t_cas=10, t_rcd=20, t_rp=20, t_base=0)
        dram.read(addr(0), now=0.0)
        # addr(4) -> same bank (0), same row.
        latency = dram.read(addr(4), now=100.0)
        assert latency == 10
        assert dram.row_hits == 1

    def test_row_conflict_reopens(self):
        dram = DRAMModel(num_banks=4, row_lines=16, t_cas=10, t_rcd=20, t_rp=20, t_base=0)
        dram.read(addr(0), now=0.0)
        far = addr(0) + 4 * 16 * 64 * 10  # bank 0, row 10
        latency = dram.read(far, now=100.0)
        assert latency == 50

    def test_busy_bank_queues(self):
        dram = DRAMModel(num_banks=4, row_lines=16, t_cas=10, t_rcd=20, t_rp=20, t_base=0)
        dram.read(addr(0), now=0.0)  # bank 0 busy until 50
        latency = dram.read(addr(4), now=10.0)  # same bank, same row
        assert latency == (50 - 10) + 10  # queue + cas
        assert dram.queue_cycles == 40

    def test_different_banks_overlap(self):
        dram = DRAMModel(num_banks=4, row_lines=16, t_cas=10, t_rcd=20, t_rp=20, t_base=0)
        dram.read(addr(0), now=0.0)  # bank 0
        latency = dram.read(addr(1), now=0.0)  # bank 1: no queueing
        assert latency == 50

    def test_writes_occupy_banks(self):
        dram = DRAMModel(num_banks=4, row_lines=16, t_cas=10, t_rcd=20, t_rp=20, t_base=0)
        dram.write(addr(0), now=0.0)
        latency = dram.read(addr(4), now=0.0)  # queued behind the write
        assert latency == 50 + 10

    def test_row_hit_rate(self):
        dram = DRAMModel(num_banks=4, row_lines=16)
        dram.read(addr(0), 0.0)
        dram.read(addr(4), 0.0)
        dram.read(addr(8), 0.0)
        assert dram.snapshot() == {
            "dram.reads": 3,
            "dram.writes": 0,
            "dram.row_hits": 2,
            "dram.row_misses": 1,
        }


class TestDRAMRunner:
    def _trace(self, n=30_000, ws=3000):
        return Trace(
            [addr(k % ws) for k in range(n)],
            [k % 4 == 0 for k in range(n)],
            instr_gaps=[8] * n,
        )

    @staticmethod
    def _banked(config, policy):
        return LLCRunner(
            config, policy, backend=make_backend("dram:banked=true", config)
        )

    @staticmethod
    def _row_hit_rate(result):
        stats = result.extra["backend"]
        hits, misses = stats["dram.row_hits"], stats["dram.row_misses"]
        return hits / (hits + misses)

    def test_runs_and_reports_dram_stats(self):
        config = default_hierarchy(llc_size=64 * 1024)
        result = self._banked(config, "lru").run(self._trace(), warmup=5000)
        assert result.ipc > 0
        assert 0 <= self._row_hit_rate(result) <= 1

    def test_sequential_reads_enjoy_row_locality(self):
        config = default_hierarchy(llc_size=64 * 1024)
        n = 30_000
        sequential = Trace([addr(k) for k in range(n)], [False] * n)
        random_ish = Trace(
            [addr((k * 7919) % (1 << 20)) for k in range(n)], [False] * n
        )
        seq = self._banked(config, "lru").run(sequential, warmup=5000)
        rnd = self._banked(config, "lru").run(random_ish, warmup=5000)
        assert self._row_hit_rate(seq) > self._row_hit_rate(rnd)
        assert seq.ipc > rnd.ipc

    def test_rwp_benefit_survives_banked_memory(self):
        """The headline claim under the detailed memory model."""
        from repro.experiments.runner import cached_trace, make_llc_policy

        config = default_hierarchy(llc_size=1024 * 64)
        trace = cached_trace("mcf", 1024, 60_000, 2014)
        lru = self._banked(config, "lru").run(trace, warmup=15_000)
        rwp = self._banked(
            config, make_llc_policy("rwp", 1024)
        ).run(trace, warmup=15_000)
        assert rwp.ipc > lru.ipc
