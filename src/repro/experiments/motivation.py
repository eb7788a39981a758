"""Motivation studies (figures F1-F3).

F1: how much of each benchmark's LLC traffic is reads vs. writes.
F2: what fraction of LLC lines are read-only / read-write / write-only
    over their residency (write-only lines are dead weight for reads).
F3: the oracle potential: read misses under LRU vs. Belady's OPT vs. the
    read-aware OPT that treats future writes as worthless.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.cache.cache import SetAssociativeCache
from repro.cache.opt import OPTPolicy
from repro.cache.policy import make_policy
from repro.experiments.runner import ExperimentScale, cached_trace


@dataclass(frozen=True)
class TrafficBreakdown:
    """F1/F2 numbers for one benchmark."""

    benchmark: str
    reads: int
    writes: int
    evicted_read_only: int
    evicted_read_write: int
    evicted_write_only: int

    @property
    def read_fraction(self) -> float:
        total = self.reads + self.writes
        return self.reads / total if total else 0.0

    @property
    def write_only_line_fraction(self) -> float:
        total = (
            self.evicted_read_only
            + self.evicted_read_write
            + self.evicted_write_only
        )
        return self.evicted_write_only / total if total else 0.0

    @property
    def read_serving_line_fraction(self) -> float:
        return 1.0 - self.write_only_line_fraction


@lru_cache(maxsize=256)
def _traffic_breakdown_cached(
    benchmark: str, scale: ExperimentScale
) -> TrafficBreakdown:
    trace = cached_trace(
        benchmark, scale.llc_lines, scale.total_accesses, scale.seed
    )
    cache = SetAssociativeCache(scale.llc_config(), make_policy("lru"))
    cache.run_trace(trace.decoded(cache.config), warmup=scale.warmup)
    return TrafficBreakdown(
        benchmark=benchmark,
        reads=cache.read_hits + cache.read_misses,
        writes=cache.write_hits + cache.write_misses,
        evicted_read_only=cache.evicted_read_only,
        evicted_read_write=cache.evicted_read_write,
        evicted_write_only=cache.evicted_write_only,
    )


@dataclass(frozen=True)
class ReadPotential:
    """F3 numbers for one benchmark: oracle headroom on read misses."""

    benchmark: str
    lru_read_misses: int
    opt_read_misses: int
    read_opt_read_misses: int

    def reduction(self, oracle_misses: int) -> float:
        if self.lru_read_misses == 0:
            return 0.0
        return 1.0 - oracle_misses / self.lru_read_misses

    @property
    def opt_reduction(self) -> float:
        return self.reduction(self.opt_read_misses)

    @property
    def read_opt_reduction(self) -> float:
        return self.reduction(self.read_opt_read_misses)


@lru_cache(maxsize=256)
def _read_potential_cached(
    benchmark: str, scale: ExperimentScale
) -> ReadPotential:
    trace = cached_trace(
        benchmark, scale.llc_lines, scale.total_accesses, scale.seed
    )
    config = scale.llc_config()

    def read_misses_with(policy) -> int:
        cache = SetAssociativeCache(config, policy)
        cache.run_trace(trace.decoded(config), warmup=scale.warmup)
        return cache.read_misses

    # The LRU leg is exactly the front-end's llc-mode run; going through
    # it shares the memoized result with the F4/F5 grids.
    from repro.sim import SimulationSpec, simulate_cached

    lru = simulate_cached(
        SimulationSpec(benchmark, "lru", scale=scale)
    ).llc_read_misses
    opt = read_misses_with(OPTPolicy(trace, config))
    read_opt = read_misses_with(
        OPTPolicy(trace, config, reads_only=True, allow_bypass=True)
    )
    return ReadPotential(
        benchmark=benchmark,
        lru_read_misses=lru,
        opt_read_misses=opt,
        read_opt_read_misses=read_opt,
    )


def traffic_breakdown(
    benchmark: str, scale: ExperimentScale | None = None
) -> TrafficBreakdown:
    """Replay under LRU and classify traffic + evicted-line roles.

    Deterministic, so memoized across harnesses (F1 and F2 share runs).
    """
    return _traffic_breakdown_cached(benchmark, scale or ExperimentScale())


def read_potential(
    benchmark: str, scale: ExperimentScale | None = None
) -> ReadPotential:
    """Read misses: LRU vs OPT vs read-aware OPT on the same trace."""
    return _read_potential_cached(benchmark, scale or ExperimentScale())
