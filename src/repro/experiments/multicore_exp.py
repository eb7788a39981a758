"""The multicore evaluation harness (figure F9; 2/4/8/16-core mixes).

Methodology (mirrors the paper's 4-core setup, generalized to the
mix's core count):

* The shared LLC is ``num_cores`` x the per-core reference size.
* Each core runs one SPEC-like model, generated at the *per-core* scale
  (a program does not change because it shares a cache).
* ``alone`` IPCs -- the weighted-speedup denominators -- come from each
  benchmark running by itself on the whole shared LLC under baseline LRU.
* Reported per policy: weighted speedup, harmonic speedup, throughput,
  each also normalized to the shared-LRU run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.cache.policyspec import PolicySpec
from repro.experiments.runner import ExperimentScale
from repro.kernels.spec import DEFAULT_KERNEL
from repro.multicore.metrics import (
    fairness,
    harmonic_speedup,
    throughput,
    weighted_speedup,
)
from repro.multicore.shared import SharedRunResult
from repro.trace.mixes import get_mix

#: Re-exported from :mod:`repro.sim`, which is imported on first use:
#: ``repro.sim`` imports this package while it initializes, so a
#: module-level import here would be circular.
_SIM_NAMES = ("SimulationSpec", "simulate", "simulate_cached")


def __getattr__(name: str):
    if name in _SIM_NAMES:
        import repro.sim

        return getattr(repro.sim, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

#: baseline LRU + state-of-the-art comparators + RWP (global + core-aware)
MULTICORE_POLICIES = ("lru", "dip", "tadrrip", "ucp", "pipp", "rwp", "rwp-core")


@dataclass(frozen=True)
class MixResult:
    """All metrics for one (mix, policy) run."""

    mix: str
    policy: str
    weighted_speedup: float
    harmonic_speedup: float
    throughput: float
    fairness: float
    per_core_ipc: Tuple[float, ...]

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe dict that :meth:`from_dict` inverts exactly."""
        return {
            "mix": self.mix,
            "policy": self.policy,
            "weighted_speedup": self.weighted_speedup,
            "harmonic_speedup": self.harmonic_speedup,
            "throughput": self.throughput,
            "fairness": self.fairness,
            "per_core_ipc": list(self.per_core_ipc),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "MixResult":
        fields = dict(data)
        fields["per_core_ipc"] = tuple(fields["per_core_ipc"])
        return cls(**fields)


def _shared_scale(per_core: ExperimentScale, num_cores: int) -> ExperimentScale:
    """The shared-LLC geometry: num_cores x the per-core capacity."""
    return ExperimentScale(
        llc_lines=per_core.llc_lines * num_cores,
        ways=per_core.ways,
        warmup_factor=per_core.warmup_factor,
        measure_factor=per_core.measure_factor,
        seed=per_core.seed,
    )


def _alone_ipc(
    benchmark: str,
    per_core: ExperimentScale,
    shared_llc_lines: int,
    memory: str = "dram",
    kernel: str = DEFAULT_KERNEL,
) -> float:
    """IPC of one benchmark alone on the full shared LLC under LRU.

    An ``llc``-mode spec with the shared capacity as a geometry override:
    the per-core trace does not change because the cache grew.  The
    memory backend matches the shared run's, so the weighted-speedup
    denominators see the same write costs.  Memoized by
    :func:`~repro.sim.simulate_cached`, so every policy of a mix shares
    one alone run per benchmark.
    """
    from repro.sim import SimulationSpec, simulate_cached

    spec = SimulationSpec(
        benchmark,
        "lru",
        scale=per_core,
        llc_lines=shared_llc_lines,
        ways=per_core.ways,
        memory=memory,
        kernel=kernel,
    )
    return simulate_cached(spec).ipc


def run_mix(
    mix: str,
    policy: str | PolicySpec,
    per_core: ExperimentScale | None = None,
    num_cores: int | None = None,
    memory: str = "dram",
    kernel: str = DEFAULT_KERNEL,
) -> MixResult:
    """Run one named mix under one policy and compute all metrics.

    ``num_cores`` defaults to the mix's own core count (one benchmark
    per core); passing a different value is an error caught by the
    simulation front-end.  ``memory`` names the main-memory backend
    (shared run and ``alone`` denominators both use it).
    """
    per_core = per_core or ExperimentScale()
    spec = get_mix(mix)
    benchmarks = spec.benchmarks
    if num_cores is None:
        num_cores = spec.core_count
    shared = _shared_scale(per_core, num_cores)
    from repro.sim import SimulationSpec, simulate

    result: SharedRunResult = simulate(
        SimulationSpec(
            mix,
            policy,
            mode="multicore",
            scale=per_core,
            num_cores=num_cores,
            memory=memory,
            kernel=kernel,
        )
    )

    shared_ipcs = result.ipcs()
    alone_ipcs = [
        _alone_ipc(bench, per_core, shared.llc_lines, memory, kernel)
        for bench in benchmarks
    ]
    return MixResult(
        mix=mix,
        policy=PolicySpec.coerce(policy).key(),
        weighted_speedup=weighted_speedup(shared_ipcs, alone_ipcs),
        harmonic_speedup=harmonic_speedup(shared_ipcs, alone_ipcs),
        throughput=throughput(shared_ipcs),
        fairness=fairness(shared_ipcs, alone_ipcs),
        per_core_ipc=tuple(shared_ipcs),
    )


def run_mix_grid(
    mixes: Sequence[str],
    policies: Sequence[str] = MULTICORE_POLICIES,
    per_core: ExperimentScale | None = None,
    progress: bool = False,
    jobs: int = 1,
    store=None,
    journal=None,
    timeout: float | None = None,
    memory: str = "dram",
    kernel: str = DEFAULT_KERNEL,
) -> Dict[Tuple[str, str], MixResult]:
    """Every (mix, policy) pair, fanned out through the engine.

    ``jobs=1`` (default) is the serial in-process path; ``store`` and
    ``journal`` give persistent/resumable sweeps, same as ``run_grid``.
    """
    from repro.engine import MixJob, run_jobs

    per_core = per_core or ExperimentScale()
    job_list = [
        MixJob(
            mix,
            policy,
            per_core,
            num_cores=get_mix(mix).core_count,
            memory=memory,
            kernel=kernel,
        )
        for mix in mixes
        for policy in policies
    ]
    outcome = run_jobs(
        job_list,
        max_workers=jobs,
        store=store,
        journal=journal,
        timeout=timeout,
        progress=progress,
    )
    return {
        (job.mix, job.policy): result
        for job, result in outcome.results.items()
    }


def normalized_ws(
    results: Dict[Tuple[str, str], MixResult],
    mixes: Sequence[str],
    policies: Sequence[str],
    baseline: str = "lru",
) -> Dict[str, List[float]]:
    """Weighted speedup normalized to the baseline policy, per mix."""
    normalized: Dict[str, List[float]] = {}
    for policy in policies:
        normalized[policy] = [
            results[(mix, policy)].weighted_speedup
            / results[(mix, baseline)].weighted_speedup
            for mix in mixes
        ]
    return normalized
