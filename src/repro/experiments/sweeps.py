"""Parameter sweeps: LLC size (F10), associativity (F11), RWP ablations (A1).

Sweeps re-scale the *cache* while holding the *workload* fixed at the
reference scale, which is what the paper's sensitivity studies do: the
program does not change when the machine does.

All three fan their (geometry, benchmark, policy) grids out through the
execution engine, so every cell runs on the default kernel and through
the :func:`~repro.sim.simulate_cached` memo.  The size and
associativity sweeps accept the same ``jobs``/``store``/``journal``
knobs as ``run_grid``; the A1 ablation's cells are parameterized
``rwp`` policy specs at the reference geometry.
"""

from __future__ import annotations

from typing import Dict, Hashable, Sequence, Tuple

from repro.cache.policyspec import PolicySpec
from repro.experiments.runner import ExperimentScale
from repro.multicore.metrics import geometric_mean


def _geomean_grid(
    benchmarks: Sequence[str],
    cells: Dict[Hashable, Tuple[int, int, "str | PolicySpec"]],
    reference: ExperimentScale,
    jobs: int = 1,
    store=None,
    journal=None,
    progress: bool = False,
) -> Dict[Hashable, float]:
    """Geomean speedup over LRU of every cell, in one engine run.

    ``cells`` maps each result key to its ``(llc_lines, ways, policy)``;
    every (geometry, benchmark, policy) run, the LRU baselines
    included, fans out through the engine.
    """
    from repro.engine import RunJob, run_jobs

    geometries = dict.fromkeys(
        (lines, ways) for lines, ways, _ in cells.values()
    )
    policies = dict.fromkeys(  # baseline first
        ["lru", *(policy for _, _, policy in cells.values())]
    )
    job_list = [
        RunJob(bench, policy, reference, llc_lines=lines, ways=ways)
        for (lines, ways) in geometries
        for bench in benchmarks
        for policy in policies
    ]
    outcome = run_jobs(
        job_list,
        max_workers=jobs,
        store=store,
        journal=journal,
        progress=progress,
    )
    runs = {
        (job.geometry_lines, job.geometry_ways, job.benchmark, job.policy): res
        for job, res in outcome.results.items()
    }
    return {
        key: geometric_mean([
            runs[(lines, ways, bench, policy)].speedup_over(
                runs[(lines, ways, bench, "lru")]
            )
            for bench in benchmarks
        ])
        for key, (lines, ways, policy) in cells.items()
    }


def size_sweep(
    benchmarks: Sequence[str],
    policies: Sequence[str],
    size_factors: Sequence[float] = (0.5, 1.0, 2.0, 4.0),
    reference: ExperimentScale | None = None,
    jobs: int = 1,
    store=None,
    journal=None,
    progress: bool = False,
) -> Dict[Tuple[float, str], float]:
    """Geomean speedup over LRU at each cache size factor.

    Returns ``{(factor, policy): geomean_speedup}``; factor 1.0 is the
    reference scale (the paper's 2 MB point).
    """
    reference = reference or ExperimentScale()
    ways = reference.ways
    cells = {
        (factor, policy): (
            max(ways, int(reference.llc_lines * factor)), ways, policy
        )
        for factor in size_factors
        for policy in policies
    }
    return _geomean_grid(
        benchmarks, cells, reference, jobs, store, journal, progress
    )


def associativity_sweep(
    benchmarks: Sequence[str],
    policies: Sequence[str],
    ways_list: Sequence[int] = (8, 16, 32),
    reference: ExperimentScale | None = None,
    jobs: int = 1,
    store=None,
    journal=None,
    progress: bool = False,
) -> Dict[Tuple[int, str], float]:
    """Geomean speedup over LRU at each associativity (capacity fixed)."""
    reference = reference or ExperimentScale()
    cells = {
        (ways, policy): (reference.llc_lines, ways, policy)
        for ways in ways_list
        for policy in policies
    }
    return _geomean_grid(
        benchmarks, cells, reference, jobs, store, journal, progress
    )


def rwp_parameter_sweep(
    benchmarks: Sequence[str],
    epochs: Sequence[int] = (2_000, 8_000, 32_000, 128_000),
    samplings: Sequence[int] = (4, 16, 64),
    reference: ExperimentScale | None = None,
) -> Dict[Tuple[int, int], float]:
    """A1 ablation: geomean RWP speedup over LRU per (epoch, sampling).

    Each cell is an ``rwp:epoch=E:sampling=S`` policy spec at the
    reference geometry.
    """
    reference = reference or ExperimentScale()
    cells = {
        (epoch, sampling): (
            reference.llc_lines,
            reference.ways,
            PolicySpec.make("rwp", epoch=epoch, sampling=sampling),
        )
        for epoch in epochs
        for sampling in samplings
    }
    return _geomean_grid(benchmarks, cells, reference)
