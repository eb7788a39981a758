"""Shared-data sweep harness (figure F12; shared-fraction grids).

The registered data-sharing mixes (``mix4s*``, ``mix8s*``, ...) pin a
few canonical sharing shapes; this harness sweeps the *shared-footprint
fraction* itself.  For one benchmark roster and one sharing pattern it
regenerates the global-address mix at each fraction on the grid, runs
every policy over identical traces, and reports throughput (sum of
per-core IPCs) normalized to LRU -- the alone-IPC denominators of
weighted speedup are identical across policies, so the LRU-normalized
ordering is the same while staying self-contained (no private alone
runs of a trace that only exists inside a shared mix).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Sequence, Tuple

from repro.common.config import default_hierarchy
from repro.experiments.runner import ExperimentScale, make_llc_policy
from repro.trace.generator import LINE_SIZE, SharingSpec, generate_shared_mix
from repro.trace.spec import make_model

#: the shared-footprint fractions of the F12 sweep: from barely-shared
#: (0.05) to heavier sharing than any registered mix (0.4).
SHARED_FRACTION_GRID = (0.05, 0.1, 0.2, 0.3, 0.4)

#: the F12 policy roster: the baseline, the global partitioner, the
#: core-aware partitioner, and its confidence-weighted blend.
SHARING_POLICIES = ("lru", "rwp", "rwp-core", "rwp-core:blend=true")

#: the 8-core sensitive roster the registered mix8s01_prodcons uses.
EIGHT_CORE_BENCHMARKS = (
    "mcf", "omnetpp", "soplex", "sphinx3",
    "xalancbmk", "astar", "bzip2", "gcc",
)


@dataclass(frozen=True)
class SharingPoint:
    """One (fraction, policy) cell of the sweep."""

    fraction: float
    policy: str
    throughput: float
    per_core_ipc: Tuple[float, ...]
    shared: Dict[str, int]


@lru_cache(maxsize=16)
def _grid_traces(
    benchmarks: Tuple[str, ...],
    pattern: str,
    fraction: float,
    writers: int,
    ws_lines: int,
    llc_lines: int,
    num_accesses: int,
    seed: int,
) -> tuple:
    """The per-core global-address traces of one grid point (cached so
    every policy replays identical streams)."""
    models = [make_model(bench, llc_lines) for bench in benchmarks]
    sharing = SharingSpec(
        pattern=pattern,
        shared_fraction=fraction,
        writers=writers,
        ws_lines=ws_lines,
    )
    return tuple(
        generate_shared_mix(models, sharing, num_accesses, seed=seed)
    )


def run_sharing_point(
    fraction: float,
    policy: str,
    benchmarks: Sequence[str] = EIGHT_CORE_BENCHMARKS,
    pattern: str = "producer_consumer",
    writers: int = 2,
    ws_lines: int = 1024,
    per_core: ExperimentScale | None = None,
) -> SharingPoint:
    """Run one policy at one shared fraction; fresh system, cached traces.

    The per-fraction traces are no registered mix, so this harness
    builds its own system, and attaches the default kernel as
    :func:`~repro.sim.simulate` does.
    """
    from repro.kernels import attach_kernel
    from repro.kernels.spec import DEFAULT_KERNEL
    from repro.multicore.shared import SharedLLCSystem

    per_core = per_core or ExperimentScale()
    num_cores = len(benchmarks)
    traces = _grid_traces(
        tuple(benchmarks),
        pattern,
        fraction,
        writers,
        ws_lines,
        per_core.llc_lines,
        per_core.total_accesses,
        per_core.seed,
    )
    shared_lines = per_core.llc_lines * num_cores
    config = default_hierarchy(
        llc_size=shared_lines * LINE_SIZE, llc_ways=per_core.ways
    )
    system = SharedLLCSystem(
        config, num_cores, make_llc_policy(policy, shared_lines, num_cores)
    )
    attach_kernel(system, DEFAULT_KERNEL)
    result = system.run(traces, warmup=per_core.warmup)
    ipcs = result.ipcs()
    return SharingPoint(
        fraction=fraction,
        policy=policy,
        throughput=sum(ipcs),
        per_core_ipc=tuple(ipcs),
        shared=dict(result.shared or {}),
    )


def run_fraction_grid(
    policies: Sequence[str] = SHARING_POLICIES,
    fractions: Sequence[float] = SHARED_FRACTION_GRID,
    benchmarks: Sequence[str] = EIGHT_CORE_BENCHMARKS,
    pattern: str = "producer_consumer",
    writers: int = 2,
    ws_lines: int = 1024,
    per_core: ExperimentScale | None = None,
) -> Dict[Tuple[float, str], SharingPoint]:
    """Every (fraction, policy) cell over identical per-fraction traces."""
    return {
        (fraction, policy): run_sharing_point(
            fraction, policy, benchmarks, pattern, writers, ws_lines,
            per_core,
        )
        for fraction in fractions
        for policy in policies
    }


def normalized_throughput(
    grid: Dict[Tuple[float, str], SharingPoint],
    fractions: Sequence[float],
    policies: Sequence[str],
    baseline: str = "lru",
) -> Dict[str, list]:
    """Per-policy throughput normalized to the baseline, per fraction."""
    return {
        policy: [
            grid[(fraction, policy)].throughput
            / grid[(fraction, baseline)].throughput
            for fraction in fractions
        ]
        for policy in policies
    }
