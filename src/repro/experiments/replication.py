"""Multi-seed replication: are the headline numbers seed-luck?

The workload generators are stochastic mixtures, so any single-seed
speedup could in principle be noise.  This module reruns a comparison
across independent seeds and reports the geomean speedup's mean,
standard deviation, and Student-t confidence interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List, Sequence, Tuple

from repro.experiments.runner import ExperimentScale, run_benchmark
from repro.multicore.metrics import geometric_mean


@dataclass(frozen=True)
class ReplicatedResult:
    """Speedup statistics across seeds for one (benchmarks, policy) pair."""

    policy: str
    samples: Tuple[float, ...]

    @property
    def mean(self) -> float:
        return sum(self.samples) / len(self.samples)

    @property
    def std(self) -> float:
        if len(self.samples) < 2:
            return 0.0
        mean = self.mean
        return math.sqrt(
            sum((s - mean) ** 2 for s in self.samples) / (len(self.samples) - 1)
        )

    def confidence_interval(self, level: float = 0.95) -> Tuple[float, float]:
        """Student-t CI for the mean speedup across seeds.

        Needs scipy (the ``dev`` extra); imported here, not at module
        level, so importing :mod:`repro.experiments` never loads it.
        """
        n = len(self.samples)
        if n < 2:
            return (self.mean, self.mean)
        from scipy import stats as scipy_stats

        t_crit = scipy_stats.t.ppf(0.5 + level / 2, df=n - 1)
        half_width = t_crit * self.std / math.sqrt(n)
        return (self.mean - half_width, self.mean + half_width)

    def significantly_above(self, threshold: float, level: float = 0.95) -> bool:
        """True when the CI lower bound clears ``threshold``."""
        return self.confidence_interval(level)[0] > threshold


def replicate_speedup(
    benchmarks: Sequence[str],
    policy: str,
    seeds: Sequence[int] = (2014, 2015, 2016, 2017, 2018),
    scale: ExperimentScale | None = None,
    baseline: str = "lru",
) -> ReplicatedResult:
    """Geomean speedup of ``policy`` over ``baseline``, one sample per seed."""
    if not seeds:
        raise ValueError("need at least one seed")
    scale = scale or ExperimentScale()
    samples: List[float] = []
    for seed in seeds:
        seeded = replace(scale, seed=seed)
        speedups = []
        for bench in benchmarks:
            base = run_benchmark(bench, baseline, seeded)
            run = run_benchmark(bench, policy, seeded)
            speedups.append(run.speedup_over(base))
        samples.append(geometric_mean(speedups))
    return ReplicatedResult(policy=policy, samples=tuple(samples))


def replication_table(
    benchmarks: Sequence[str],
    policies: Sequence[str],
    seeds: Sequence[int] = (2014, 2015, 2016, 2017, 2018),
    scale: ExperimentScale | None = None,
) -> List[List[object]]:
    """Rows of (policy, mean, std, ci_low, ci_high) for table printing."""
    rows: List[List[object]] = []
    for policy in policies:
        result = replicate_speedup(benchmarks, policy, seeds, scale)
        low, high = result.confidence_interval()
        rows.append([policy, result.mean, result.std, low, high])
    return rows
