"""DRAM backend: the default, wrapping today's models unchanged.

In its default (flat) form this adapter is *definitionally* bit-identical
to the pre-backend timing path: reads cost ``MemoryConfig.latency`` and
writes retire through a :class:`~repro.hierarchy.writebuffer.WriteBufferModel`
with the core's entry count and the memory's per-line writeback cost --
the exact objects :class:`~repro.cpu.timing.TimingModel` builds itself
when no backend is installed.  (The simulator additionally keeps the
no-backend fast path for the plain ``"dram"`` spec, so the adapter's
equality is verified by tests rather than relied on for speed.)

``banked=true`` swaps the flat read for the banked row-buffer
:class:`~repro.hierarchy.dram.DRAMModel`, optionally behind the
watermark :class:`~repro.hierarchy.dram.WriteDrainScheduler`
(``scheduler=true``).  This adapter is the one place banked DRAM is
wired: like every timed resource it is rebuilt at the warmup boundary
(:meth:`~repro.cpu.timing.TimingModel.reset`), because bank horizons
are absolute cycles; writes still queued when a run ends stay queued
and show as ``writequeue.occupancy``.
"""

from __future__ import annotations

from typing import Dict

from repro.hierarchy.dram import DRAMModel, WriteDrainScheduler
from repro.hierarchy.writebuffer import WriteBufferModel
from repro.mem.backend import MemoryBackend


class DRAMBackend(MemoryBackend):
    """Flat-latency reads + buffered writes; optional banked timing."""

    name = "dram"

    def __init__(
        self,
        read_latency: int = 200,
        writeback_cost: int = 20,
        write_buffer_entries: int = 16,
        banked: bool = False,
        scheduler: bool = False,
        num_banks: int = 16,
    ) -> None:
        if read_latency < 1:
            raise ValueError("read_latency must be >= 1")
        if scheduler and not banked:
            raise ValueError("scheduler=true requires banked=true")
        self.read_latency = read_latency
        self.writeback_cost = writeback_cost
        self.write_buffer_entries = write_buffer_entries
        self.banked = banked
        self.scheduler_enabled = scheduler
        self.num_banks = num_banks
        self.reads = 0
        self.writes = 0
        self._build()

    def _build(self) -> None:
        if self.banked:
            self.dram = DRAMModel(num_banks=self.num_banks)
            self.write_buffer = None
            self.scheduler = (
                WriteDrainScheduler(self.dram) if self.scheduler_enabled else None
            )
        else:
            self.dram = None
            self.scheduler = None
            self.write_buffer = WriteBufferModel(
                self.write_buffer_entries, self.writeback_cost
            )

    def read(self, address: int, now: float) -> float:
        self.reads += 1
        if self.dram is None:
            return float(self.read_latency)
        if self.scheduler is not None:
            return self.scheduler.read(address, now)
        return self.dram.read(address, now)

    def write(self, address: int, now: float) -> float:
        self.writes += 1
        if self.dram is None:
            return self.write_buffer.issue(now)
        if self.scheduler is not None:
            self.scheduler.write(address, now)
        else:
            self.dram.write(address, now)
        return 0.0

    def stats(self) -> Dict[str, float]:
        out: Dict[str, float] = {
            "backend.reads": self.reads,
            "backend.writes": self.writes,
        }
        if self.dram is not None:
            out.update(self.dram.snapshot())
            if self.scheduler is not None:
                out.update(self.scheduler.snapshot())
        else:
            out.update(self.write_buffer.snapshot())
        return out

    def reset(self) -> None:
        self.reads = 0
        self.writes = 0
        self._build()
