"""Unit tests for the deferred write-drain scheduler."""

import pytest

from repro.hierarchy.dram import DRAMModel, WriteDrainScheduler


def addr(line: int) -> int:
    return line * 64


def make(capacity=8, high=6, low=2, **dram_kwargs):
    dram = DRAMModel(
        num_banks=4, row_lines=16, t_cas=10, t_rcd=20, t_rp=20, t_base=0,
        **dram_kwargs,
    )
    return WriteDrainScheduler(dram, capacity, high, low), dram


class TestQueueing:
    def test_writes_enqueue_without_touching_dram(self):
        scheduler, dram = make()
        scheduler.write(addr(0), now=0.0)
        assert scheduler.occupancy == 1
        assert dram.writes == 0

    def test_high_watermark_triggers_drain(self):
        scheduler, dram = make(capacity=8, high=4, low=1)
        for k in range(4):
            scheduler.write(addr(k), now=0.0)
        assert dram.writes == 3  # drained down to low watermark 1
        assert scheduler.occupancy == 1
        assert scheduler.drain_batches == 1

    def test_explicit_drain_empties(self):
        scheduler, dram = make()
        for k in range(3):
            scheduler.write(addr(k), now=0.0)
        drained = scheduler.drain(now=0.0)
        assert drained == 3
        assert scheduler.occupancy == 0
        assert dram.writes == 3

    def test_invalid_watermarks_rejected(self):
        dram = DRAMModel()
        with pytest.raises(ValueError):
            WriteDrainScheduler(dram, capacity=8, high_watermark=9, low_watermark=2)
        with pytest.raises(ValueError):
            WriteDrainScheduler(dram, capacity=8, high_watermark=4, low_watermark=4)


class TestForwarding:
    def test_read_forwarded_from_queue(self):
        scheduler, dram = make()
        scheduler.write(addr(7), now=0.0)
        latency = scheduler.read(addr(7), now=0.0)
        assert latency == dram.t_cas
        assert scheduler.forwarded_reads == 1
        assert dram.reads == 0

    def test_read_at_byte_offset_forwarded(self):
        # Writebacks queue line-aligned; a demand read of the same line
        # at a byte offset must still hit the queue.
        scheduler, dram = make()
        scheduler.write(addr(7), now=0.0)
        latency = scheduler.read(addr(7) + 8, now=0.0)
        assert latency == dram.t_cas
        assert scheduler.forwarded_reads == 1
        assert dram.reads == 0

    def test_read_misses_queue_goes_to_dram(self):
        scheduler, dram = make()
        scheduler.write(addr(7), now=0.0)
        scheduler.read(addr(9), now=0.0)
        assert dram.reads == 1


class TestRowLocalDrain:
    def test_drain_sorts_by_bank_and_row(self):
        """A scattered write burst drained through the scheduler produces
        more row hits than the same burst issued in arrival order."""
        import numpy as np

        rng = np.random.default_rng(5)
        burst = [addr(int(l)) for l in rng.integers(0, 4096, size=200)]

        direct = DRAMModel(num_banks=4, row_lines=16, t_base=0)
        for address in burst:
            direct.write(address, now=0.0)

        scheduled, dram = make(capacity=256, high=200, low=1)
        for address in burst:
            scheduled.write(address, now=0.0)
        scheduled.drain(now=0.0)
        assert dram.row_hits > direct.row_hits


class TestSchedulerHint:
    def test_min_bank_free_time(self):
        dram = DRAMModel(num_banks=2, t_base=0)
        assert dram.min_bank_free_time() == 0.0
        dram.read(addr(0), now=0.0)
        assert dram.min_bank_free_time() == 0.0  # bank 1 still idle
        dram.read(addr(1), now=0.0)
        assert dram.min_bank_free_time() > 0.0
