"""Hot-path microbenchmark: per-policy simulated accesses per second.

``repro bench`` times :class:`~repro.cpu.core.LLCRunner` (the execution
path every engine job funnels through) replaying a fixed, cached trace
under each requested policy, and reports the throughput in LLC accesses
per wall-clock second.  Timing is best-of-``repeats`` so one garbage
collection or scheduler hiccup cannot mark a fast build slow.

Results export as JSON so a run can be pinned as a baseline
(``benchmarks/baseline_bench.json``) and later runs compared against it
with a tolerance -- the CI ``bench`` job does exactly that.  Absolute
rates are machine-dependent, which is why the comparison tolerance is
deliberately generous: the guard exists to catch order-of-magnitude hot
path regressions, not 10% noise.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence

from repro.experiments.runner import cached_trace, make_llc_policy
from repro.kernels.spec import KernelSpec
from repro.trace.generator import LINE_SIZE

#: bench file format version; bump when the record layout changes.
BENCH_VERSION = 1

#: the default policy pair: the baseline everything normalizes to, and
#: the paper's contribution (a needs-sampling policy, so both the plain
#: and the observed hot paths are measured).
DEFAULT_POLICIES = ("lru", "rwp")

#: default workload: read/write mixed and large enough to keep the
#: cache under replacement pressure (misses exercise the evict path).
DEFAULT_BENCHMARK = "mcf"

#: 16384 lines x 64 B = 1 MiB, the smallest LLC size the paper
#: evaluates; it also gives the shadow sampler a realistic duty cycle
#: (64 of 1024 sets) instead of the 50% it would cover on a toy cache.
DEFAULT_LLC_LINES = 16384
DEFAULT_ACCESSES = 1 << 18
DEFAULT_REPEATS = 3
QUICK_ACCESSES = 1 << 16
QUICK_REPEATS = 2

#: system-bench shapes.  The hierarchy bench replays a raw trace through
#: the full L1/L2/LLC stack; the multicore bench runs the standard 4-core
#: all-sensitive mix geometry (``bench_f9_multicore``: 1024 lines per
#: core, 4-core shared LLC).  Both time the exact entry points the
#: experiments call, so the guard covers the full-stack hot paths.
SYSTEM_MIX = ("mcf", "omnetpp", "soplex", "sphinx3")
HIER_ACCESSES = 1 << 16
HIER_QUICK_ACCESSES = 1 << 14
MC_CORES = 4
MC_PER_CORE_LINES = 1024
MC_ACCESSES = 1 << 14
MC_QUICK_ACCESSES = 1 << 12

#: the data-sharing multicore bench: the 8-core producer/consumer mix
#: replayed with sharer tracking + shared-claimant arbitration.
SHARED_MC_MIX = "mix8s01_prodcons"
SHARED_MC_CORES = 8

#: the stress-kernel bench workload: a pointer chase whose working set
#: matches the bench LLC (16k lines) at the grid's moderate write ratio
#: -- the trace-generation + LLC replay path any ``stress:*`` sweep
#: cell takes.  The row is keyed ``stress:chase``.
STRESS_BENCH_WORKLOAD = "stress:chase,depth=4,rw=0.3,ws=16k"


@dataclass(frozen=True)
class BenchResult:
    """Throughput of one policy over the bench trace."""

    policy: str
    accesses: int
    best_seconds: float
    accesses_per_sec: float
    repeats: int

    def to_dict(self) -> Dict[str, object]:
        return {
            "accesses": self.accesses,
            "best_seconds": round(self.best_seconds, 6),
            "accesses_per_sec": round(self.accesses_per_sec, 1),
            "repeats": self.repeats,
        }


def _kernel_row(kernel: "str | KernelSpec") -> tuple:
    """(row prefix, KernelSpec-or-None) for a bench kernel selection.

    The dict driver keeps the historical bare row keys (the bench times
    it by default); any other kernel prefixes its rows ``kernel:`` so
    dict and kernel rates coexist in one baseline file without
    colliding.
    """
    spec = KernelSpec.coerce(kernel)
    if spec.name == "dict":
        return "", None
    return "kernel:", spec


def _attach(target, spec) -> None:
    if spec is not None:
        from repro.kernels import attach_kernel

        attach_kernel(target, spec)


def _log_fallback(row: str, reason: "str | None") -> None:
    """One visible line when a requested kernel fell back -- no silent caps."""
    if reason:
        print(
            f"bench note: {row}: kernel fell back to Python -- {reason}",
            file=sys.stderr,
        )


def _runtime_fallback(target) -> "str | None":
    """The recorded fallback reason of ``target``'s kernel runtime, if any."""
    cache = getattr(target, "llc", target)
    runtime = getattr(cache, "kernel", None)
    return runtime.fallback_reason if runtime is not None else None


def run_bench(
    policies: Sequence[str] = DEFAULT_POLICIES,
    benchmark: str = DEFAULT_BENCHMARK,
    llc_lines: int = DEFAULT_LLC_LINES,
    accesses: int = DEFAULT_ACCESSES,
    repeats: int = DEFAULT_REPEATS,
    seed: int = 2014,
    kernel: "str | KernelSpec" = "dict",
) -> List[BenchResult]:
    """Time each policy over one shared trace; returns per-policy rates."""
    from repro.common.config import default_hierarchy
    from repro.cpu.core import LLCRunner

    prefix, spec = _kernel_row(kernel)
    trace = cached_trace(benchmark, llc_lines, accesses, seed)
    hierarchy = default_hierarchy(llc_size=llc_lines * LINE_SIZE, llc_ways=16)
    results: List[BenchResult] = []
    for policy in policies:
        best = float("inf")
        for _ in range(max(1, repeats)):
            runner = LLCRunner(hierarchy, make_llc_policy(policy, llc_lines))
            _attach(runner.llc, spec)
            start = time.perf_counter()
            runner.run(trace, warmup=0)
            elapsed = time.perf_counter() - start
            best = min(best, elapsed)
        _log_fallback(f"{prefix}{policy}", _runtime_fallback(runner.llc))
        results.append(
            BenchResult(
                policy=f"{prefix}{policy}",
                accesses=len(trace),
                best_seconds=best,
                accesses_per_sec=len(trace) / best,
                repeats=max(1, repeats),
            )
        )
    return results


def run_hierarchy_bench(
    policies: Sequence[str] = DEFAULT_POLICIES,
    benchmark: str = DEFAULT_BENCHMARK,
    accesses: int = HIER_ACCESSES,
    repeats: int = DEFAULT_REPEATS,
    seed: int = 2014,
    kernel: "str | KernelSpec" = "dict",
) -> List[BenchResult]:
    """Time the full L1/L2/LLC stack replaying one raw trace per policy.

    Results are keyed ``hierarchy:<policy>`` so they coexist with the
    LLC-level rates in one baseline file.
    """
    from repro.common.config import default_hierarchy
    from repro.hierarchy.system import MemoryHierarchy

    prefix, spec = _kernel_row(kernel)
    trace = cached_trace(benchmark, DEFAULT_LLC_LINES, accesses, seed)
    config = default_hierarchy(
        llc_size=DEFAULT_LLC_LINES * LINE_SIZE, llc_ways=16
    )
    results: List[BenchResult] = []
    for policy in policies:
        best = float("inf")
        for _ in range(max(1, repeats)):
            hierarchy = MemoryHierarchy(
                config, make_llc_policy(policy, DEFAULT_LLC_LINES)
            )
            _attach(hierarchy, spec)
            start = time.perf_counter()
            hierarchy.run_trace(trace)
            best = min(best, time.perf_counter() - start)
        _log_fallback(
            f"{prefix}hierarchy:{policy}", _runtime_fallback(hierarchy)
        )
        results.append(
            BenchResult(
                policy=f"{prefix}hierarchy:{policy}",
                accesses=len(trace),
                best_seconds=best,
                accesses_per_sec=len(trace) / best,
                repeats=max(1, repeats),
            )
        )
    return results


def run_hierarchy_pcm_bench(
    policies: Sequence[str] = ("rwp",),
    benchmark: str = DEFAULT_BENCHMARK,
    accesses: int = HIER_ACCESSES,
    repeats: int = DEFAULT_REPEATS,
    seed: int = 2014,
    kernel: "str | KernelSpec" = "dict",
) -> List[BenchResult]:
    """Time the writeback-filter (F10b) hot path: the full hierarchy
    replay plus the per-access timing walk over the ``pcm`` backend.

    This is the extra work ``--memory pcm:...`` adds on top of the
    staged replay -- write-log collection and the address-carrying
    scalar timing loop -- so the guard notices when that path slows
    down.  Results are keyed ``hierarchy_pcm:<policy>``.
    """
    from repro.common.config import default_hierarchy
    from repro.cpu.core import HierarchyRunner
    from repro.mem import make_backend

    prefix, spec = _kernel_row(kernel)
    trace = cached_trace(benchmark, DEFAULT_LLC_LINES, accesses, seed)
    config = default_hierarchy(
        llc_size=DEFAULT_LLC_LINES * LINE_SIZE, llc_ways=16
    )
    results: List[BenchResult] = []
    for policy in policies:
        best = float("inf")
        for _ in range(max(1, repeats)):
            runner = HierarchyRunner(
                config,
                make_llc_policy(policy, DEFAULT_LLC_LINES),
                backend=make_backend("pcm:write_mult=4", config),
            )
            _attach(runner.hierarchy, spec)
            start = time.perf_counter()
            runner.run(trace, warmup=len(trace) // 8)
            best = min(best, time.perf_counter() - start)
        _log_fallback(
            f"{prefix}hierarchy_pcm:{policy}",
            _runtime_fallback(runner.hierarchy),
        )
        results.append(
            BenchResult(
                policy=f"{prefix}hierarchy_pcm:{policy}",
                accesses=len(trace),
                best_seconds=best,
                accesses_per_sec=len(trace) / best,
                repeats=max(1, repeats),
            )
        )
    return results


def run_multicore_bench(
    policies: Sequence[str] = DEFAULT_POLICIES,
    accesses_per_core: int = MC_ACCESSES,
    repeats: int = DEFAULT_REPEATS,
    seed: int = 2014,
    kernel: "str | KernelSpec" = "dict",
) -> List[BenchResult]:
    """Time the 4-core shared-LLC run at the ``bench_f9`` geometry.

    Results are keyed ``multicore4:<policy>``; the rate is normalized to
    the nominal ``cores * accesses_per_core`` issue count (the wrapping
    replay issues more, identically on every run, so rates compare).
    The bare ``dict`` row times ``SharedLLCSystem.run_scalar``: without
    a kernel, ``run`` is the scalar interleave.
    """
    from repro.common.config import default_hierarchy
    from repro.multicore.shared import SharedLLCSystem

    prefix, spec = _kernel_row(kernel)
    traces = [
        cached_trace(bench, MC_PER_CORE_LINES, accesses_per_core, seed)
        for bench in SYSTEM_MIX
    ]
    shared_lines = MC_PER_CORE_LINES * MC_CORES
    config = default_hierarchy(
        llc_size=shared_lines * LINE_SIZE, llc_ways=16
    )
    warmup = accesses_per_core // 8
    nominal = MC_CORES * accesses_per_core
    results: List[BenchResult] = []
    for policy in policies:
        best = float("inf")
        for _ in range(max(1, repeats)):
            system = SharedLLCSystem(
                config,
                MC_CORES,
                make_llc_policy(policy, shared_lines, MC_CORES),
            )
            _attach(system, spec)
            start = time.perf_counter()
            system.run(traces, warmup=warmup)
            best = min(best, time.perf_counter() - start)
        _log_fallback(
            f"{prefix}multicore4:{policy}", _runtime_fallback(system)
        )
        results.append(
            BenchResult(
                policy=f"{prefix}multicore4:{policy}",
                accesses=nominal,
                best_seconds=best,
                accesses_per_sec=nominal / best,
                repeats=max(1, repeats),
            )
        )
    return results


def run_shared_multicore_bench(
    policies: Sequence[str] = ("rwp-core",),
    accesses_per_core: int = MC_ACCESSES,
    repeats: int = DEFAULT_REPEATS,
    seed: int = 2014,
    kernel: "str | KernelSpec" = "dict",
) -> List[BenchResult]:
    """Time the 8-core data-sharing mix on the shared-LLC system.

    Global-address traces install a sharer directory (access + eviction
    listeners) on the LLC, so this row times the sharing hot path:
    directory updates and rwp-core's shared-claimant sampling and victim
    scan.  The bare ``dict`` row times ``run_scalar``, which calls the
    listeners per access; the native kernel keeps the directory as
    per-line columns and replays the whole interleave in C.  Results
    are keyed ``multicore8shared:<policy>``; a requested kernel's
    recorded fallback reason is logged, never swallowed.
    """
    from repro.common.config import default_hierarchy
    from repro.experiments.runner import cached_shared_mix
    from repro.multicore.shared import SharedLLCSystem

    prefix, spec = _kernel_row(kernel)
    traces = cached_shared_mix(
        SHARED_MC_MIX, MC_PER_CORE_LINES, accesses_per_core, seed
    )
    shared_lines = MC_PER_CORE_LINES * SHARED_MC_CORES
    config = default_hierarchy(
        llc_size=shared_lines * LINE_SIZE, llc_ways=16
    )
    warmup = accesses_per_core // 8
    nominal = SHARED_MC_CORES * accesses_per_core
    results: List[BenchResult] = []
    for policy in policies:
        best = float("inf")
        fallback = None
        for _ in range(max(1, repeats)):
            system = SharedLLCSystem(
                config,
                SHARED_MC_CORES,
                make_llc_policy(policy, shared_lines, SHARED_MC_CORES),
            )
            _attach(system, spec)
            start = time.perf_counter()
            system.run(traces, warmup=warmup)
            best = min(best, time.perf_counter() - start)
            fallback = _runtime_fallback(system) or fallback
        row = f"{prefix}multicore8shared:{policy}"
        _log_fallback(row, fallback)
        results.append(
            BenchResult(
                policy=row,
                accesses=nominal,
                best_seconds=best,
                accesses_per_sec=nominal / best,
                repeats=max(1, repeats),
            )
        )
    return results


def run_stress_bench(
    policies: Sequence[str] = ("rwp",),
    workload: str = STRESS_BENCH_WORKLOAD,
    llc_lines: int = DEFAULT_LLC_LINES,
    accesses: int = HIER_ACCESSES,
    repeats: int = DEFAULT_REPEATS,
    seed: int = 2014,
    kernel: "str | KernelSpec" = "dict",
) -> List[BenchResult]:
    """Time the LLC replay of a stress-kernel workload.

    The stress grid routes sweeps through the same
    :func:`~repro.experiments.runner.cached_trace` + LLC-runner path as
    the model workloads but with a generated (array-built) trace, so
    this row notices when the stress generation or its replay slows
    down.  Results are keyed ``stress:<pattern>`` (e.g. ``stress:chase``
    for the default workload).
    """
    from repro.common.config import default_hierarchy
    from repro.cpu.core import LLCRunner
    from repro.trace.workload import WorkloadSpec

    prefix, spec = _kernel_row(kernel)
    pattern = WorkloadSpec.coerce(workload).stress.pattern
    trace = cached_trace(workload, llc_lines, accesses, seed)
    hierarchy = default_hierarchy(llc_size=llc_lines * LINE_SIZE, llc_ways=16)
    results: List[BenchResult] = []
    for policy in policies:
        best = float("inf")
        for _ in range(max(1, repeats)):
            runner = LLCRunner(hierarchy, make_llc_policy(policy, llc_lines))
            _attach(runner.llc, spec)
            start = time.perf_counter()
            runner.run(trace, warmup=0)
            best = min(best, time.perf_counter() - start)
        _log_fallback(
            f"{prefix}stress:{pattern}", _runtime_fallback(runner.llc)
        )
        results.append(
            BenchResult(
                policy=f"{prefix}stress:{pattern}",
                accesses=len(trace),
                best_seconds=best,
                accesses_per_sec=len(trace) / best,
                repeats=max(1, repeats),
            )
        )
    return results


def run_system_bench(
    policies: Sequence[str] = DEFAULT_POLICIES,
    quick: bool = False,
    repeats: int | None = None,
    seed: int = 2014,
    kernel: "str | KernelSpec" = "dict",
) -> List[BenchResult]:
    """The hierarchy + multicore bench set with quick/full sizing.

    The core-aware partitioner has its own victim path on the shared
    LLC, so a ``multicore4:rwp-core`` row is always included even when
    the caller benches the default policy pair; likewise a
    ``hierarchy_pcm:rwp`` row always covers the F10b backend replay
    path, and a ``multicore8shared:rwp-core`` row covers the
    data-sharing replay (sharer directory + shared-claimant victim
    scan); a ``stress:chase`` row covers the stress-kernel generation
    + LLC replay path the workload zoo's sweeps take.
    """
    if repeats is None:
        repeats = QUICK_REPEATS if quick else DEFAULT_REPEATS
    accesses_per_core = MC_QUICK_ACCESSES if quick else MC_ACCESSES
    multicore_policies = list(policies)
    if "rwp-core" not in multicore_policies:
        multicore_policies.append("rwp-core")
    return run_hierarchy_bench(
        policies,
        accesses=HIER_QUICK_ACCESSES if quick else HIER_ACCESSES,
        repeats=repeats,
        seed=seed,
        kernel=kernel,
    ) + run_hierarchy_pcm_bench(
        accesses=HIER_QUICK_ACCESSES if quick else HIER_ACCESSES,
        repeats=repeats,
        seed=seed,
        kernel=kernel,
    ) + run_multicore_bench(
        multicore_policies,
        accesses_per_core=accesses_per_core,
        repeats=repeats,
        seed=seed,
        kernel=kernel,
    ) + run_shared_multicore_bench(
        accesses_per_core=accesses_per_core,
        repeats=repeats,
        seed=seed,
        kernel=kernel,
    ) + run_stress_bench(
        accesses=HIER_QUICK_ACCESSES if quick else HIER_ACCESSES,
        repeats=repeats,
        seed=seed,
        kernel=kernel,
    )


def bench_payload(
    results: Sequence[BenchResult],
    benchmark: str,
    llc_lines: int,
) -> Dict[str, object]:
    """The JSON document for one bench run."""
    return {
        "version": BENCH_VERSION,
        "config": {
            "benchmark": benchmark,
            "llc_lines": llc_lines,
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
        },
        "results": {result.policy: result.to_dict() for result in results},
    }


def write_bench_json(
    path: "Path | str", payload: Dict[str, object]
) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return path


def load_bench_json(path: "Path | str") -> Dict[str, object]:
    return json.loads(Path(path).read_text())


def compare_to_baseline(
    current: Dict[str, object],
    baseline: Dict[str, object],
    tolerance: float = 0.2,
) -> List[str]:
    """Regression check: [] means every shared policy is fast enough.

    A policy regresses when its rate drops below ``tolerance`` times the
    baseline rate.  Policies present on only one side are skipped (the
    guard compares hot paths, not configuration drift), but an empty
    intersection is itself reported.
    """
    if not 0.0 < tolerance <= 1.0:
        raise ValueError("tolerance must be in (0, 1]")
    problems: List[str] = []
    current_results: Dict[str, Dict] = current.get("results", {})
    baseline_results: Dict[str, Dict] = baseline.get("results", {})
    shared = sorted(set(current_results) & set(baseline_results))
    if not shared:
        return ["bench baseline and current run share no policies"]
    for policy in shared:
        rate = float(current_results[policy]["accesses_per_sec"])
        base = float(baseline_results[policy]["accesses_per_sec"])
        if base <= 0:
            continue
        if rate < tolerance * base:
            problems.append(
                f"bench regression: policy {policy!r} at {rate:,.0f} "
                f"accesses/s is below {tolerance:.0%} of the baseline "
                f"{base:,.0f} accesses/s"
            )
    return problems


def format_bench(results: Sequence[BenchResult], title: str) -> str:
    from repro.experiments.tables import format_table

    rows = [
        [r.policy, r.accesses, f"{r.best_seconds:.3f}", f"{r.accesses_per_sec:,.0f}"]
        for r in results
    ]
    return format_table(
        ["policy", "accesses", "best_s", "accesses/s"], rows, title=title
    )
