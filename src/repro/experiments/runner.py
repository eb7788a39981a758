"""Experiment runner: one place that turns (benchmark, policy, scale)
into a :class:`~repro.cpu.core.RunResult`.

Scale
-----
Experiments default to a 1/8-scale system (256 KiB, 16-way LLC) with
workload working sets scaled identically, which preserves every relative
effect while keeping a full 29-benchmark x 6-policy sweep in seconds-to-
minutes of pure-Python simulation.  ``llc_lines=PAPER_LLC_LINES`` runs at
the paper's full 2 MB scale.

Traces are cached per (benchmark, scale, length, seed) so comparing many
policies replays identical access streams.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

from repro.cache.policy import ReplacementPolicy, make_policy
from repro.cache.policyspec import PolicySpec
from repro.common.config import CacheConfig, HierarchyConfig, default_hierarchy
from repro.cpu.core import RunResult
from repro.kernels.spec import DEFAULT_KERNEL
from repro.trace.access import Trace
from repro.trace.generator import LINE_SIZE
from repro.trace.spec import make_model
from repro.trace.workload import WorkloadSpec, workload_trace

#: default experiment scale: 4096-line (256 KiB) LLC
DEFAULT_LLC_LINES = 4096

#: the six policies of the single-core headline comparison (F4/F5)
SINGLE_CORE_POLICIES = ("lru", "dip", "drrip", "ship", "rrp", "rwp")


@dataclass(frozen=True)
class ExperimentScale:
    """Geometry + trace-length bundle for one experiment scale."""

    llc_lines: int = DEFAULT_LLC_LINES
    ways: int = 16
    warmup_factor: int = 8  # warmup accesses = factor * llc_lines
    measure_factor: int = 32  # measured accesses = factor * llc_lines
    seed: int = 2014

    @property
    def warmup(self) -> int:
        return self.warmup_factor * self.llc_lines

    @property
    def total_accesses(self) -> int:
        return (self.warmup_factor + self.measure_factor) * self.llc_lines

    def hierarchy(self) -> HierarchyConfig:
        return default_hierarchy(
            llc_size=self.llc_lines * LINE_SIZE, llc_ways=self.ways
        )

    def llc_config(self) -> CacheConfig:
        return self.hierarchy().llc


def cached_trace(
    benchmark: "str | WorkloadSpec", llc_lines: int, num_accesses: int,
    seed: int,
) -> Trace:
    """Materialize (once) the trace of any workload at a given scale.

    ``benchmark`` is any workload reference -- a bare model name, a
    canonical ``kind:name,key=value`` string, or a
    :class:`~repro.trace.workload.WorkloadSpec`.  References are
    normalized to their store key before memoization, so ``"mcf"`` and
    ``"model:mcf"`` share one cache entry; file-backed sources fold
    their content digest into the cache identity, so an edited trace
    file re-reads instead of serving the stale parse.
    """
    spec = WorkloadSpec.coerce(benchmark)
    digest = spec.file_digest() if spec.is_file else ""
    return _cached_trace(spec.store_key(), digest, llc_lines, num_accesses, seed)


@lru_cache(maxsize=128)
def _cached_trace(
    workload_key: str, digest: str, llc_lines: int, num_accesses: int,
    seed: int,
) -> Trace:
    return workload_trace(workload_key, llc_lines, num_accesses, seed)


# The memo lives on the inner normalized-key function; forward the
# lru_cache control surface so callers can still drop the trace cache.
cached_trace.cache_clear = _cached_trace.cache_clear  # type: ignore[attr-defined]
cached_trace.cache_info = _cached_trace.cache_info  # type: ignore[attr-defined]


@lru_cache(maxsize=32)
def cached_shared_mix(
    mix_name: str, llc_lines: int, num_accesses: int, seed: int
) -> tuple:
    """Generate (once) the per-core traces of a data-sharing mix.

    Returns one global-address :class:`~repro.trace.access.Trace` per
    core (see :func:`repro.trace.generator.generate_shared_mix`); the
    private-mix counterpart is per-benchmark :func:`cached_trace`.
    """
    from repro.trace.generator import generate_shared_mix
    from repro.trace.mixes import get_mix

    mix = get_mix(mix_name)
    if mix.sharing is None:
        raise ValueError(f"mix {mix_name!r} has no sharing spec")
    models = [make_model(bench, llc_lines) for bench in mix.benchmarks]
    return tuple(
        generate_shared_mix(models, mix.sharing, num_accesses, seed=seed)
    )


#: policies whose RWP repartitioning epoch scales with the cache
_EPOCH_POLICIES = frozenset({"rwp", "rwp-core", "rwp-srrip", "rwp-bypass"})

#: policies that partition or arbitrate by core
_CORE_POLICIES = frozenset({"rwp-core", "ucp", "tadrrip", "pipp"})


def make_llc_policy(
    policy, llc_lines: int = DEFAULT_LLC_LINES, num_cores: int = 1
) -> ReplacementPolicy:
    """Instantiate a policy with scale-appropriate parameters.

    Accepts a registry name, a canonical spec string, or a
    :class:`~repro.cache.policyspec.PolicySpec`.  RWP's repartitioning
    epoch scales with cache size (the paper's epoch is fixed in
    instructions for a fixed-size cache; scaling keeps the number of
    fills per epoch comparable across scales); UCP, TA-DRRIP, PIPP, and
    core-aware RWP need the core count.  Spec kwargs override these
    defaults; the registry's :func:`~repro.cache.policy.make_policy`
    builds the result.
    """
    spec = PolicySpec.coerce(policy)
    defaults = {}
    if spec.name in _EPOCH_POLICIES:
        defaults["epoch"] = max(4000, 2 * llc_lines)
    if spec.name in _CORE_POLICIES:
        defaults["num_cores"] = num_cores
    return make_policy(
        PolicySpec.make(spec.name, **{**defaults, **spec.kwargs_dict()})
    )


def run_benchmark(
    benchmark: str,
    policy: str,
    scale: ExperimentScale | None = None,
    store=None,
    mode: str = "llc",
    memory: str = "dram",
    kernel: str = DEFAULT_KERNEL,
) -> RunResult:
    """Run one benchmark under one policy at the given scale.

    ``mode`` selects LLC-level replay (default) or the full
    ``"hierarchy"`` stack; ``memory`` names the main-memory backend
    (``"dram"`` default, ``"pcm:..."``/``"nvm:..."`` for asymmetric
    writes); ``kernel`` the batch-replay driver (``"native"`` default,
    ``"dict"`` for the dict-driven drivers); all go through the
    :class:`~repro.sim.SimulationSpec` front-end.  Runs are
    deterministic, so results are memoized (by
    :func:`~repro.sim.simulate_cached`, the one in-process memo):
    harnesses that share a baseline (every figure normalizes to LRU)
    never re-simulate it.  With a ``store`` (a
    :class:`~repro.engine.store.ResultStore` or a path), results also
    persist across processes: a warm key is decoded from disk instead of
    simulated, and fresh runs are written through.
    """
    from repro.engine import RunJob, coerce_store

    job = RunJob(benchmark, policy, scale or ExperimentScale(), mode=mode,
                 memory=memory, kernel=kernel)
    if store is None:
        return job.execute()
    store = coerce_store(store)
    key = job.key()
    record = store.get(key)
    if record is not None:
        return job.decode(record["result"])
    result = job.execute()
    store.put(key, job.kind, job.encode(result))
    return result


def run_with_geometry(
    benchmark: str,
    policy: str,
    llc_lines: int,
    ways: int,
    reference: ExperimentScale | None = None,
) -> RunResult:
    """Run a reference-scale trace against an arbitrary LLC geometry.

    The sensitivity sweeps re-size the *cache* while holding the
    *workload* fixed: the program does not change when the machine does.
    """
    from repro.sim import SimulationSpec, simulate_cached

    return simulate_cached(
        SimulationSpec(
            benchmark,
            policy,
            scale=reference or ExperimentScale(),
            llc_lines=llc_lines,
            ways=ways,
        )
    )


ResultGrid = Dict[Tuple[str, str], RunResult]


def run_grid(
    benchmarks: Sequence[str],
    policies: Sequence[str],
    scale: ExperimentScale | None = None,
    progress: bool = False,
    jobs: int = 1,
    store=None,
    journal=None,
    timeout: float | None = None,
    mode: str = "llc",
    memory: str = "dram",
    kernel: str = DEFAULT_KERNEL,
) -> ResultGrid:
    """Run every (benchmark, policy) pair; identical traces per benchmark.

    Execution goes through the engine: ``jobs`` worker processes
    (``jobs=1`` is the serial in-process path), an optional on-disk
    result ``store``, and an optional JSONL ``journal`` for resumable
    sweeps.  ``progress`` reports per-job lines to stderr.  ``mode``
    (``"llc"`` or ``"hierarchy"``) picks the simulation front-end mode,
    ``memory`` the main-memory backend, and ``kernel`` the batch-replay
    driver for every cell.
    """
    scale = scale or ExperimentScale()
    from repro.engine import RunJob, run_jobs

    job_list = [
        RunJob(benchmark, policy, scale, mode=mode, memory=memory,
               kernel=kernel)
        for benchmark in benchmarks
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
        (job.benchmark, job.policy): result
        for job, result in outcome.results.items()
    }


def speedups_over(
    results: ResultGrid,
    benchmarks: Sequence[str],
    policies: Sequence[str],
    baseline: str = "lru",
) -> Dict[str, List[float]]:
    """Per-policy speedup lists (ordered by ``benchmarks``) vs a baseline."""
    speedups: Dict[str, List[float]] = {}
    for policy in policies:
        speedups[policy] = [
            results[(bench, policy)].speedup_over(results[(bench, baseline)])
            for bench in benchmarks
        ]
    return speedups
