"""Analytic core timing: read stalls vs. buffered writes.

The model encodes exactly the asymmetry the paper exploits:

* Committed instructions cost ``base_cpi`` cycles each (a perfect-cache
  core).
* A demand **read** serviced by the LLC or memory stalls the core for the
  service latency divided by ``mlp`` (memory-level parallelism: the
  average overlap between outstanding read misses).
* A **write** costs nothing directly -- stores retire through buffers --
  but every line written to memory (LLC writeback or bypassed store)
  occupies the write buffer, and a full buffer stalls the core
  (:class:`~repro.hierarchy.writebuffer.WriteBufferModel`).

When a :class:`~repro.mem.backend.MemoryBackend` is installed, memory
reads and writes route through it instead of the flat
latency/write-buffer pair: the backend sees the request address and the
current cycle, returns a read latency (MLP overlap still applies) or a
write stall, and keeps its own occupancy state.  The flat path is what
the default ``dram`` backend reproduces bit-for-bit.

The output is cycles, hence IPC, hence every speedup number in the
evaluation.
"""

from __future__ import annotations

from typing import Optional

from repro.common.config import CoreConfig, MemoryConfig
from repro.hierarchy.writebuffer import WriteBufferModel
from repro.mem.backend import MemoryBackend


class TimingModel:
    """Cycle accumulator for one core."""

    __slots__ = (
        "core",
        "memory",
        "llc_hit_latency",
        "write_buffer",
        "backend",
        "cycles",
        "instructions",
        "read_stall_cycles",
        "write_stall_cycles",
    )

    def __init__(
        self,
        core: CoreConfig,
        memory: MemoryConfig,
        llc_hit_latency: int,
        backend: Optional[MemoryBackend] = None,
    ) -> None:
        self.core = core
        self.memory = memory
        self.llc_hit_latency = llc_hit_latency
        self.backend = backend
        self.write_buffer = WriteBufferModel(
            core.write_buffer_entries, memory.writeback_cost
        )
        self.cycles = 0.0
        self.instructions = 0
        self.read_stall_cycles = 0.0
        self.write_stall_cycles = 0.0

    # -- events ------------------------------------------------------------
    def advance(self, instructions: int) -> None:
        """Commit ``instructions`` at the base CPI."""
        self.instructions += instructions
        self.cycles += instructions * self.core.base_cpi

    def read_hit(self) -> None:
        """A demand read served by the LLC."""
        stall = self.llc_hit_latency / self.core.mlp
        self.read_stall_cycles += stall
        self.cycles += stall

    def read_miss(self, address: int = 0) -> None:
        """A demand read served by main memory."""
        if self.backend is not None:
            self.read_stall(self.backend.read(address, self.cycles))
        else:
            self.read_stall(self.memory.latency)

    def read_stall(self, latency: float) -> None:
        """A demand read with an explicit service latency."""
        stall = latency / self.core.mlp
        self.read_stall_cycles += stall
        self.cycles += stall

    def memory_write(self, address: int = 0) -> None:
        """A line headed to memory (writeback or bypassed store)."""
        if self.backend is not None:
            stall = self.backend.write(address, self.cycles)
        else:
            stall = self.write_buffer.issue(self.cycles)
        self.write_stall_cycles += stall
        self.cycles += stall

    # -- results -----------------------------------------------------------
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    def cpi(self) -> float:
        return self.cycles / self.instructions if self.instructions else 0.0

    def reset(self) -> None:
        """Zero accumulated time (after warmup).

        The write buffer (and any installed backend) is rebuilt rather
        than kept: drain horizons are expressed in absolute cycles, which
        just restarted at zero.
        """
        self.cycles = 0.0
        self.instructions = 0
        self.read_stall_cycles = 0.0
        self.write_stall_cycles = 0.0
        self.write_buffer = WriteBufferModel(
            self.core.write_buffer_entries, self.memory.writeback_cost
        )
        if self.backend is not None:
            self.backend.reset()
