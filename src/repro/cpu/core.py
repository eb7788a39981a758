"""Single-core trace drivers.

Two drivers share the :class:`RunResult` shape:

* :class:`LLCRunner` -- the workhorse: replays an LLC-level trace against
  a single cache (the LLC under study) plus the analytic timing model.
* :class:`HierarchyRunner` -- replays a raw access trace through the full
  L1/L2/LLC stack; used by integration tests and the motivation studies
  to validate the LLC-level shortcut.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.cache.cache import SetAssociativeCache
from repro.cache.policy import ReplacementPolicy, make_policy
from repro.common.config import HierarchyConfig
from repro.common.jsonutil import from_jsonable, to_jsonable
from repro.cpu.timing import TimingModel
from repro.hierarchy.system import MemoryHierarchy
from repro.trace.access import Trace


@dataclass(frozen=True)
class RunResult:
    """Everything an experiment needs from one simulation run."""

    name: str
    policy: str
    instructions: int
    cycles: float
    ipc: float
    llc_read_hits: int
    llc_read_misses: int
    llc_write_hits: int
    llc_write_misses: int
    llc_writebacks: int
    llc_bypasses: int
    read_stall_cycles: float
    write_stall_cycles: float
    extra: Dict[str, object] = field(default_factory=dict)

    @property
    def llc_accesses(self) -> int:
        return (
            self.llc_read_hits
            + self.llc_read_misses
            + self.llc_write_hits
            + self.llc_write_misses
        )

    @property
    def llc_misses(self) -> int:
        return self.llc_read_misses + self.llc_write_misses

    @property
    def read_miss_rate(self) -> float:
        reads = self.llc_read_hits + self.llc_read_misses
        return self.llc_read_misses / reads if reads else 0.0

    @property
    def read_mpki(self) -> float:
        return 1000.0 * self.llc_read_misses / self.instructions if self.instructions else 0.0

    @property
    def mpki(self) -> float:
        return 1000.0 * self.llc_misses / self.instructions if self.instructions else 0.0

    def speedup_over(self, baseline: "RunResult") -> float:
        """This run's IPC relative to a baseline run's IPC."""
        if baseline.ipc == 0:
            return 0.0
        return self.ipc / baseline.ipc

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe dict that :meth:`from_dict` inverts exactly.

        ``extra`` is encoded losslessly (tuples tagged, unknown types
        rejected) instead of being silently stringified.
        """
        return {
            "name": self.name,
            "policy": self.policy,
            "instructions": self.instructions,
            "cycles": self.cycles,
            "ipc": self.ipc,
            "llc_read_hits": self.llc_read_hits,
            "llc_read_misses": self.llc_read_misses,
            "llc_write_hits": self.llc_write_hits,
            "llc_write_misses": self.llc_write_misses,
            "llc_writebacks": self.llc_writebacks,
            "llc_bypasses": self.llc_bypasses,
            "read_stall_cycles": self.read_stall_cycles,
            "write_stall_cycles": self.write_stall_cycles,
            "extra": to_jsonable(self.extra),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RunResult":
        """Rebuild a result from :meth:`to_dict` output."""
        fields = dict(data)
        fields["extra"] = from_jsonable(fields.get("extra", {}))
        return cls(**fields)


class LLCRunner:
    """Replay an LLC-level trace against one cache + timing model.

    ``prefetcher`` (optional) observes every demand access and its
    prefetches are installed through the cache's normal replacement
    path, so pollution and useful coverage are both real.  Each prefetch
    fill is charged one memory-channel slot (like a writeback) in the
    timing model: off the critical path, but capable of back-pressure.
    """

    def __init__(
        self,
        config: HierarchyConfig,
        policy: ReplacementPolicy | str = "lru",
        prefetcher=None,
        backend=None,
    ) -> None:
        if isinstance(policy, str):
            policy = make_policy(policy)
        self.config = config
        self.llc = SetAssociativeCache(config.llc, policy)
        self.prefetcher = prefetcher
        self.backend = backend
        self.timing = TimingModel(
            config.core, config.memory, config.llc.hit_latency, backend=backend
        )

    def run(self, trace: Trace, warmup: int = 0) -> RunResult:
        """Simulate ``trace``; the first ``warmup`` accesses prime state
        but are excluded from every reported statistic."""
        if warmup >= len(trace):
            raise ValueError(
                f"warmup ({warmup}) must be smaller than the trace ({len(trace)})"
            )
        if self.prefetcher is None and self.backend is None:
            return self._run_batched(trace, warmup)
        return self._run_scalar(trace, warmup)

    def _run_batched(self, trace: Trace, warmup: int) -> RunResult:
        """Demand-only runs go through the cache's batch driver."""
        llc = self.llc
        timing = self.timing
        decoded = trace.decoded(llc.config)
        if warmup:
            llc.run_trace(decoded, 0, warmup, timing=timing)
        llc.reset_stats()
        timing.reset()
        llc.run_trace(decoded, warmup, len(trace), timing=timing)
        return self._result(trace.name)

    def _run_scalar(self, trace: Trace, warmup: int) -> RunResult:
        """Scalar loop: prefetch issue and/or a request-level memory
        backend interleave with every access (both need per-access
        addresses and the live cycle count)."""
        llc = self.llc
        timing = self.timing
        if llc.kernel is not None:
            llc.kernel.fallback_reason = (
                "memory timing backend is active"
                if self.backend is not None
                else "a prefetcher is active"
            )
        access = llc.access
        prefetcher = self.prefetcher
        prefetch_by_pc = getattr(prefetcher, "on_access_pc", None)
        position = 0
        for address, is_write, pc, gap in trace:
            if position == warmup:
                llc.reset_stats()
                timing.reset()
            position += 1
            timing.advance(gap)
            hit, bypassed, writeback = access(address, is_write, pc)
            if is_write:
                if bypassed:
                    timing.memory_write(address)
            elif hit:
                timing.read_hit()
            else:
                timing.read_miss(address)
            if writeback >= 0:
                timing.memory_write(writeback)
            if prefetcher is None:
                continue
            if prefetch_by_pc is not None:
                targets = prefetch_by_pc(address, is_write, hit, pc)
            else:
                targets = prefetcher.on_access(address, is_write, hit)
            for target in targets:
                prefetch_writeback = llc.fill_prefetch(target)
                timing.memory_write(target)  # channel slot for the fill
                if prefetch_writeback >= 0:
                    timing.memory_write(prefetch_writeback)
        return self._result(trace.name)

    def _result(self, name: str) -> RunResult:
        llc = self.llc
        timing = self.timing
        return RunResult(
            name=name,
            policy=llc.policy.name,
            instructions=timing.instructions,
            cycles=timing.cycles,
            ipc=timing.ipc(),
            llc_read_hits=llc.read_hits,
            llc_read_misses=llc.read_misses,
            llc_write_hits=llc.write_hits,
            llc_write_misses=llc.write_misses,
            llc_writebacks=llc.writebacks,
            llc_bypasses=llc.bypasses,
            read_stall_cycles=timing.read_stall_cycles,
            write_stall_cycles=timing.write_stall_cycles,
            extra=self._extra(
                policy_state=llc.policy.describe(),
                prefetch={
                    "fills": llc.prefetch_fills,
                    "useful": llc.prefetch_useful,
                    "unused_evictions": llc.prefetch_unused_evictions,
                },
            ),
        )

    def _extra(self, **entries) -> Dict[str, object]:
        """Common ``extra`` payload: write-path counters + backend stats."""
        entries["writebuffer"] = self.timing.write_buffer.snapshot()
        if self.backend is not None:
            entries["backend"] = self.backend.stats()
        return entries


class HierarchyRunner:
    """Replay a raw (core-level) trace through the full hierarchy."""

    def __init__(
        self,
        config: HierarchyConfig,
        llc_policy: ReplacementPolicy | str = "lru",
        backend=None,
    ) -> None:
        self.config = config
        self.backend = backend
        self.hierarchy = MemoryHierarchy(config, llc_policy, backend=backend)
        self.timing = TimingModel(
            config.core, config.memory, config.llc.hit_latency, backend=backend
        )

    def run(self, trace: Trace, warmup: int = 0) -> RunResult:
        """Two-phase batched replay: warm the stack, then measure.

        The hierarchy replays level by level (see
        :meth:`~repro.hierarchy.system.MemoryHierarchy.run_trace`) and
        reports each access's service level and memory-write count;
        the timing model then replays those outcomes in one cheap
        pass -- in the native kernel, straight from the stage replay's
        arrays, when it serves the stack and the memory is flat or
        ``pcm``; in :meth:`_walk` otherwise.  Both phases are
        bit-identical to the old per-access loop: the warmup boundary
        falls between accesses, reads stall on their service level,
        and every memory write the access triggered is charged to it,
        exactly as the scalar walk interleaved them.
        """
        if warmup >= len(trace):
            raise ValueError(
                f"warmup ({warmup}) must be smaller than the trace ({len(trace)})"
            )
        hierarchy = self.hierarchy
        timing = self.timing
        if warmup:
            hierarchy.run_trace(trace, stop=warmup)
        hierarchy.reset_stats()
        timing.reset()
        memory = hierarchy.memory
        if self.backend is not None:
            # Record each memory write's address so the timing replay can
            # hand real addresses to the backend (partition mapping).
            memory.write_log = []
        _, levels, mem = hierarchy.run_trace(
            trace, start=warmup, collect=True, timing=timing
        )
        write_log = memory.write_log
        if self.backend is not None:
            memory.write_log = None
        if levels is not None:
            self._walk(trace, warmup, levels, mem, write_log)
        llc = hierarchy.llc
        return RunResult(
            name=trace.name,
            policy=llc.policy.name,
            instructions=timing.instructions,
            cycles=timing.cycles,
            ipc=timing.ipc(),
            llc_read_hits=llc.read_hits,
            llc_read_misses=llc.read_misses,
            llc_write_hits=llc.write_hits,
            llc_write_misses=llc.write_misses,
            llc_writebacks=llc.writebacks,
            llc_bypasses=llc.bypasses,
            read_stall_cycles=timing.read_stall_cycles,
            write_stall_cycles=timing.write_stall_cycles,
            extra={
                "hierarchy": hierarchy.snapshot(),
                "policy_state": llc.policy.describe(),
                "writebuffer": timing.write_buffer.snapshot(),
                **(
                    {"backend": self.backend.stats()}
                    if self.backend is not None
                    else {}
                ),
            },
        )

    def _walk(self, trace: Trace, warmup: int, levels, mem, write_log) -> None:
        """The measured timing walk in Python: the kernel's reference."""
        timing = self.timing
        gaps = trace.instr_gaps
        is_write = trace.is_write
        advance = timing.advance
        read_hit = timing.read_hit
        read_miss = timing.read_miss
        memory_write = timing.memory_write
        if self.backend is None:
            for i in range(warmup, len(trace)):
                advance(gaps[i])
                if not is_write[i]:
                    level = levels[i]
                    if level == 2:
                        read_hit()
                    elif level == 3:
                        read_miss()
                count = mem[i]
                while count:
                    memory_write()
                    count -= 1
            return
        addresses = trace.addresses
        cursor = 0
        for i in range(warmup, len(trace)):
            advance(gaps[i])
            if not is_write[i]:
                level = levels[i]
                if level == 2:
                    read_hit()
                elif level == 3:
                    read_miss(addresses[i])
            count = mem[i]
            while count:
                memory_write(write_log[cursor])
                cursor += 1
                count -= 1

