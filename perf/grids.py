"""The benchmark's four job grids, built through the engine's public API.

Each grid is a list of engine jobs (``RunJob``/``MixJob``) at one
``ExperimentScale``; the children run it with
``repro.engine.run_jobs(jobs, max_workers=1, store=..., journal=...)``.
README.md gives the reason for each grid.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from typing import Dict, Iterable, List, Tuple

# In a fresh interpreter ``import repro.sim`` fails on a circular import
# (sim.spec -> experiments -> multicore_exp -> sim); importing
# ``repro.experiments`` first resolves it.
import repro.experiments  # noqa: F401  (must precede repro.sim)
from repro.engine import MixJob, RunJob
from repro.experiments.runner import SINGLE_CORE_POLICIES, ExperimentScale
from repro.trace.mixes import get_mix, mix_names
from repro.trace.spec import benchmark_names

MC_MIXES = tuple(mix_names(core_count=4, sharing=False, models_only=True)) + (
    "mix8c01_all_sensitive",
    "mix8c02_mixed",
)
MC_POLICIES = ("lru", "rwp", "rwp-core")
SHARING_MIX = "mix8s01_prodcons"
SHARING_POLICIES = ("lru", "rwp-core")
STRESS_POINTS = (
    "stress:sweep,rw=0,stride=1,ws=16k",
    "stress:sweep,rw=0.5,stride=1,ws=16k",
)
PCM_COSTS = ("pcm:write_mult=1", "pcm:write_mult=10")


def build(workload: str, seed: int, llc_lines: int, smoke: bool = False) -> list:
    """The job grid of ``workload``; ``smoke`` keeps its first and last job."""
    scale = ExperimentScale(llc_lines=llc_lines, seed=seed)
    if workload == "paper-llc":
        jobs = [
            RunJob(bench, policy, scale)
            for bench in benchmark_names()
            for policy in SINGLE_CORE_POLICIES
        ]
    elif workload == "mc-native":
        jobs = [
            MixJob(mix, policy, scale, num_cores=get_mix(mix).core_count,
                   kernel="native")
            for mix in MC_MIXES
            for policy in MC_POLICIES
        ]
    elif workload == "sharing":
        jobs = [
            MixJob(SHARING_MIX, policy, scale,
                   num_cores=get_mix(SHARING_MIX).core_count, kernel="native")
            for policy in SHARING_POLICIES
        ]
    elif workload == "hier-pcm":
        jobs = [
            RunJob(bench, policy, scale, mode="hierarchy", memory=memory,
                   kernel="native")
            for bench in benchmark_names() + list(STRESS_POINTS)
            for policy in ("lru", "rwp")
            for memory in PCM_COSTS
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return [jobs[0], jobs[-1]] if smoke else jobs


def check_jobs(jobs: list) -> list:
    """The grid's first job and its first rwp-family job.

    The check reruns them with the other batch driver: kernels are
    bit-identical to the dict driver by contract, so the reruns must
    reproduce the grid's own results exactly.
    """
    first_rwp = next(job for job in jobs if str(job.policy).startswith("rwp"))
    return [jobs[0], first_rwp]


def with_other_driver(job):
    other = "native" if str(job.kernel) == "dict" else "dict"
    return dataclasses.replace(job, kernel=other)


def nominal_accesses(jobs: Iterable) -> int:
    """Simulated accesses the grid asks for (alone runs not counted)."""
    total = 0
    for job in jobs:
        if isinstance(job, MixJob):
            total += job.per_core.total_accesses * job.num_cores
        else:
            total += job.scale.total_accesses
    return total


def digest(pairs: Iterable[Tuple[str, Dict]]) -> str:
    """sha256 over the sorted ``(job.key(), job.encode(result))`` pairs."""
    h = hashlib.sha256()
    for key, encoded in sorted(pairs, key=lambda pair: pair[0]):
        h.update(json.dumps([key, encoded], sort_keys=True).encode())
    return h.hexdigest()


def rwp_speedup(workload: str, results: Dict) -> float:
    """Geomean IPC speedup of rwp over lru across the grid's pairs.

    Weighted speedup for mixes; ``rwp-core`` stands in for ``rwp`` on
    ``sharing``.  Returns NaN when the grid holds no pair.
    """
    candidate = "rwp-core" if workload == "sharing" else "rwp"
    values: Dict[tuple, Dict[str, float]] = {}
    for job, result in results.items():
        if isinstance(job, MixJob):
            group, value = (job.mix,), result.weighted_speedup
        else:
            group, value = (str(job.benchmark), str(job.memory)), result.ipc
        values.setdefault(group, {})[str(job.policy)] = value
    ratios: List[float] = [
        by_policy[candidate] / by_policy["lru"]
        for by_policy in values.values()
        if candidate in by_policy and "lru" in by_policy
    ]
    if not ratios:
        return math.nan
    return math.exp(sum(math.log(r) for r in ratios) / len(ratios))
