"""Banked DRAM with row buffers: the detailed memory-timing option.

The flat-latency :class:`~repro.hierarchy.memory.MainMemory` is the
default substrate; this model adds the two DRAM effects that interact
with a write-aware cache policy:

* **row-buffer locality** -- a read or write that hits the open row of
  its bank costs ``t_cas``; a miss pays precharge + activate + CAS; and
* **bank occupancy** -- requests to a busy bank queue behind it, so a
  burst of writebacks (which RWP produces when it sheds dirty lines)
  can delay subsequent demand reads to the same bank.

Address mapping is line-interleaved across banks (low-order line bits
select the bank), with the row above.  Timing parameters default to
DDR3-1600-ish values in core cycles at 3.2 GHz.
"""

from __future__ import annotations

from typing import List


class DRAMBank:
    """One bank: an open row and a busy-until horizon."""

    __slots__ = ("open_row", "busy_until")

    def __init__(self) -> None:
        self.open_row = -1
        self.busy_until = 0.0


class DRAMModel:
    """Line-interleaved multi-bank DRAM with open-row policy."""

    def __init__(
        self,
        num_banks: int = 16,
        row_lines: int = 128,  # 8 KiB rows of 64 B lines
        t_cas: int = 30,
        t_rcd: int = 30,
        t_rp: int = 30,
        t_base: int = 110,  # controller + interconnect + burst transfer
        line_size: int = 64,
    ) -> None:
        if num_banks < 1 or num_banks & (num_banks - 1):
            raise ValueError("num_banks must be a power of two")
        if row_lines < 1:
            raise ValueError("row_lines must be >= 1")
        self.num_banks = num_banks
        self.row_lines = row_lines
        self.t_cas = t_cas
        self.t_rcd = t_rcd
        self.t_rp = t_rp
        self.t_base = t_base
        self._line_shift = line_size.bit_length() - 1
        self._bank_mask = num_banks - 1
        self.banks: List[DRAMBank] = [DRAMBank() for _ in range(num_banks)]
        # Statistics.
        self.reads = 0
        self.writes = 0
        self.row_hits = 0
        self.row_misses = 0
        self.queue_cycles = 0.0

    # -- address mapping ---------------------------------------------------
    def bank_of(self, address: int) -> int:
        return (address >> self._line_shift) & self._bank_mask

    def row_of(self, address: int) -> int:
        line = address >> self._line_shift
        return line // (self.num_banks * self.row_lines)

    # -- service -------------------------------------------------------------
    def _service(self, address: int, now: float) -> float:
        """Schedule one access; returns its completion time."""
        bank = self.banks[self.bank_of(address)]
        row = self.row_of(address)
        start = now if now > bank.busy_until else bank.busy_until
        self.queue_cycles += start - now
        if bank.open_row == row:
            self.row_hits += 1
            occupancy = self.t_cas
        else:
            self.row_misses += 1
            occupancy = self.t_rp + self.t_rcd + self.t_cas
            bank.open_row = row
        bank.busy_until = start + occupancy
        return bank.busy_until

    def read(self, address: int, now: float) -> float:
        """Demand read at cycle ``now``; returns its *latency*.

        The latency includes the static controller/interconnect/transfer
        component (``t_base``) on top of the bank service time; only the
        bank service time occupies the bank.
        """
        self.reads += 1
        return self._service(address, now) - now + self.t_base

    def write(self, address: int, now: float) -> float:
        """Writeback at cycle ``now``; returns its channel completion
        latency (not on the critical path, but it occupies the bank)."""
        self.writes += 1
        return self._service(address, now) - now

    # -- statistics ----------------------------------------------------------
    def min_bank_free_time(self) -> float:
        """Earliest cycle at which any bank is idle (scheduler hint)."""
        return min(bank.busy_until for bank in self.banks)

    def snapshot(self) -> dict:
        return {
            "dram.reads": self.reads,
            "dram.writes": self.writes,
            "dram.row_hits": self.row_hits,
            "dram.row_misses": self.row_misses,
        }


class WriteDrainScheduler:
    """Deferred write drain: the fix for write-burst bank pressure.

    Writebacks do not need to reach DRAM immediately; a memory controller
    queues them and drains when it will not hurt demand reads.  This
    scheduler models the standard high/low-watermark policy:

    * writes enqueue instantly (no bank occupied),
    * whenever the queue exceeds ``high_watermark`` -- or on an explicit
      idle-drain opportunity -- writes are issued to the DRAM model until
      the queue falls to ``low_watermark``,
    * a *read* of a line with a queued write is satisfied from the
      queue (write-to-read forwarding) without touching DRAM.

    Against a policy like RWP that converts write hits into writeback
    bursts, the scheduler batches those bursts into row-local sweeps
    instead of letting them collide with demand reads (benchmark A9).
    """

    def __init__(
        self,
        dram: DRAMModel,
        capacity: int = 64,
        high_watermark: int = 48,
        low_watermark: int = 16,
    ) -> None:
        if not 0 < low_watermark < high_watermark <= capacity:
            raise ValueError(
                "need 0 < low_watermark < high_watermark <= capacity"
            )
        self.dram = dram
        self.capacity = capacity
        self.high_watermark = high_watermark
        self.low_watermark = low_watermark
        self._queue: List[int] = []
        self.enqueued = 0
        self.forwarded_reads = 0
        self.drain_batches = 0

    @property
    def occupancy(self) -> int:
        return len(self._queue)

    def write(self, address: int, now: float) -> None:
        """Queue a writeback; drains if the high watermark is crossed."""
        self._queue.append(address)
        self.enqueued += 1
        if len(self._queue) >= self.high_watermark:
            self.drain(now, target=self.low_watermark)

    def read(self, address: int, now: float) -> float:
        """A demand read; forwarded from the queue when it holds the line.

        Queued writebacks are line-aligned while demand reads carry byte
        addresses, so the match is on line numbers.
        """
        shift = self.dram._line_shift
        line = address >> shift
        if any(queued >> shift == line for queued in self._queue):
            self.forwarded_reads += 1
            return float(self.dram.t_cas)  # served from the write queue
        return self.dram.read(address, now)

    def drain(self, now: float, target: int = 0) -> int:
        """Issue queued writes, row-sorted, until ``target`` remain."""
        if len(self._queue) <= target:
            return 0
        # Sorting by (bank, row) turns a scattered burst into row-local
        # sweeps, which is precisely what real controllers do.
        self._queue.sort(key=lambda a: (self.dram.bank_of(a), self.dram.row_of(a)))
        drained = 0
        while len(self._queue) > target:
            self.dram.write(self._queue.pop(0), now)
            drained += 1
        self.drain_batches += 1
        return drained

    def snapshot(self) -> dict:
        return {
            "writequeue.enqueued": self.enqueued,
            "writequeue.forwarded_reads": self.forwarded_reads,
            "writequeue.drain_batches": self.drain_batches,
            "writequeue.occupancy": self.occupancy,
        }
