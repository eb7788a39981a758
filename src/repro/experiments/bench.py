"""Hot-path microbenchmark: simulated accesses per second, row by row.

``repro bench`` is one table of :class:`BenchRow` entries timed by one
loop, :func:`time_row`.  A row is one timed configuration: its key, its
nominal access count, and a ``build()`` that returns a fresh target (a
cache, a hierarchy or a shared-LLC system) plus the call to time.
:func:`bench_plan` lists the rows:

* ``<policy>`` -- :class:`~repro.cpu.core.LLCRunner` (the path every
  engine job funnels through) replaying one cached trace;
* ``hierarchy:<policy>`` -- the full L1/L2/LLC stack;
* ``hierarchy_pcm:rwp`` -- that stack plus the F10b timing walk over the
  ``pcm`` backend;
* ``multicore4:<policy>`` -- the 4-core shared LLC;
* ``multicore8shared:rwp-core`` -- the 8-core data-sharing mix;
* ``stress:chase`` -- a stress-kernel trace through the LLC runner.

A new row is one more entry there.  Each row is timed under the dict
driver (its bare key) and under the requested kernel (``kernel:<key>``),
so both rates coexist in one baseline file.  Timing is
best-of-``repeats`` so one garbage collection or scheduler hiccup
cannot mark a fast build slow.

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
from typing import Callable, Dict, List, Sequence, Tuple

from repro.common.config import default_hierarchy
from repro.cpu.core import HierarchyRunner, LLCRunner
from repro.experiments.runner import (
    cached_shared_mix,
    cached_trace,
    make_llc_policy,
)
from repro.hierarchy.system import MemoryHierarchy
from repro.kernels import KernelSpec, attach_kernel
from repro.mem import make_backend
from repro.multicore.shared import SharedLLCSystem
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

#: system-row shapes.  The hierarchy rows replay a raw trace through
#: the full L1/L2/LLC stack; the multicore rows run the standard 4-core
#: all-sensitive mix geometry (``bench_f9_multicore``: 1024 lines per
#: core, 4-core shared LLC).  Both time the exact entry points the
#: experiments call, so the guard covers the full-stack hot paths.
SYSTEM_MIX = ("mcf", "omnetpp", "soplex", "sphinx3")
HIER_ACCESSES = 1 << 16
HIER_QUICK_ACCESSES = 1 << 14
MC_PER_CORE_LINES = 1024
MC_ACCESSES = 1 << 14
MC_QUICK_ACCESSES = 1 << 12

#: the data-sharing multicore row: the 8-core producer/consumer mix
#: replayed with sharer tracking + shared-claimant arbitration.
SHARED_MC_MIX = "mix8s01_prodcons"

#: the stress-kernel row's workload: a pointer chase whose working set
#: matches the bench LLC (16k lines) at the grid's moderate write ratio
#: -- the trace-generation + LLC replay path any ``stress:*`` sweep
#: cell takes.  The row is keyed ``stress:chase``.
STRESS_BENCH_WORKLOAD = "stress:chase,depth=4,rw=0.3,ws=16k"


@dataclass(frozen=True)
class BenchResult:
    """Throughput of one row over its trace."""

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


@dataclass(frozen=True)
class BenchRow:
    """One timed configuration.

    ``build()`` returns a fresh target -- what
    :func:`~repro.kernels.attach_kernel` takes -- and the zero-argument
    call to time; ``accesses`` is the nominal count the rate divides.
    """

    key: str
    accesses: int
    build: Callable[[], Tuple[object, Callable[[], object]]]

    def label(self, kernel: KernelSpec) -> str:
        """The result key under ``kernel``: bare for the dict driver,
        ``kernel:<key>`` for any other kernel."""
        return self.key if kernel.name == "dict" else f"kernel:{self.key}"


def _config(llc_lines: int):
    return default_hierarchy(llc_size=llc_lines * LINE_SIZE, llc_ways=16)


def _llc_row(key: str, trace, llc_lines: int, policy: str) -> BenchRow:
    """``LLCRunner`` replaying ``trace`` into a cold LLC."""
    config = _config(llc_lines)

    def build():
        runner = LLCRunner(config, make_llc_policy(policy, llc_lines))
        return runner.llc, lambda: runner.run(trace, warmup=0)

    return BenchRow(key, len(trace), build)


def _hierarchy_row(key: str, trace, policy: str) -> BenchRow:
    """The L1/L2/LLC stack replaying a raw trace."""
    config = _config(DEFAULT_LLC_LINES)

    def build():
        hierarchy = MemoryHierarchy(
            config, make_llc_policy(policy, DEFAULT_LLC_LINES)
        )
        return hierarchy, lambda: hierarchy.run_trace(trace)

    return BenchRow(key, len(trace), build)


def _pcm_row(key: str, trace, policy: str) -> BenchRow:
    """The writeback-filter (F10b) path: the stack's replay plus the
    per-access timing walk over the ``pcm`` backend."""
    config = _config(DEFAULT_LLC_LINES)

    def build():
        runner = HierarchyRunner(
            config,
            make_llc_policy(policy, DEFAULT_LLC_LINES),
            backend=make_backend("pcm:write_mult=4", config),
        )
        return runner.hierarchy, lambda: runner.run(
            trace, warmup=len(trace) // 8
        )

    return BenchRow(key, len(trace), build)


def _multicore_row(key: str, traces, policy: str, per_core: int) -> BenchRow:
    """The shared-LLC system, one trace and ``MC_PER_CORE_LINES`` lines
    per core.

    The rate is normalized to the nominal ``cores * per_core`` issue
    count (the wrapping replay issues more, identically on every run,
    so rates compare).  Without a kernel ``run`` is ``run_scalar``, so
    the bare row times that.  Global-address traces (a sharing mix)
    install a sharer directory on the LLC.
    """
    cores = len(traces)
    lines = MC_PER_CORE_LINES * cores
    config = _config(lines)

    def build():
        system = SharedLLCSystem(
            config, cores, make_llc_policy(policy, lines, cores)
        )
        return system, lambda: system.run(traces, warmup=per_core // 8)

    return BenchRow(key, cores * per_core, build)


def _system_rows(
    policies: Sequence[str], quick: bool, seed: int
) -> List[BenchRow]:
    """The full-stack rows, on the pinned geometry and workloads.

    rwp-core has its own victim path on the shared LLC, so a
    ``multicore4:rwp-core`` row is always included; likewise
    ``hierarchy_pcm:rwp`` covers the F10b backend replay,
    ``multicore8shared:rwp-core`` the data-sharing replay (sharer
    directory + shared-claimant victim scan), and ``stress:chase`` the
    stress-kernel generation + LLC replay path the workload zoo's
    sweeps take.
    """
    length = HIER_QUICK_ACCESSES if quick else HIER_ACCESSES
    per_core = MC_QUICK_ACCESSES if quick else MC_ACCESSES
    trace = cached_trace(DEFAULT_BENCHMARK, DEFAULT_LLC_LINES, length, seed)
    mix = [
        cached_trace(bench, MC_PER_CORE_LINES, per_core, seed)
        for bench in SYSTEM_MIX
    ]
    shared = cached_shared_mix(
        SHARED_MC_MIX, MC_PER_CORE_LINES, per_core, seed
    )
    stress = cached_trace(
        STRESS_BENCH_WORKLOAD, DEFAULT_LLC_LINES, length, seed
    )
    multicore = list(policies)
    if "rwp-core" not in multicore:
        multicore.append("rwp-core")
    return [
        *(_hierarchy_row(f"hierarchy:{p}", trace, p) for p in policies),
        _pcm_row("hierarchy_pcm:rwp", trace, "rwp"),
        *(
            _multicore_row(f"multicore4:{p}", mix, p, per_core)
            for p in multicore
        ),
        _multicore_row(
            "multicore8shared:rwp-core", shared, "rwp-core", per_core
        ),
        _llc_row("stress:chase", stress, DEFAULT_LLC_LINES, "rwp"),
    ]


def bench_plan(
    policies: Sequence[str] = DEFAULT_POLICIES,
    benchmark: str = DEFAULT_BENCHMARK,
    llc_lines: int = DEFAULT_LLC_LINES,
    accesses: int = DEFAULT_ACCESSES,
    quick: bool = False,
    llc_only: bool = False,
    seed: int = 2014,
    kernel: "str | KernelSpec" = "native",
) -> List[Tuple[BenchRow, KernelSpec]]:
    """Every (row, kernel) pair ``repro bench`` times, in timing order.

    The LLC rows replay ``benchmark`` at ``llc_lines``/``accesses``; the
    system rows (skipped with ``llc_only``) keep the pinned geometry and
    workloads, shrunk by ``quick``.  Each group runs under ``dict`` and
    then under ``kernel`` (unless that is ``dict`` too) in one
    invocation, so each pair is captured interleaved on one machine
    and the rates compare.  Building the plan generates the traces and
    times nothing.
    """
    trace = cached_trace(benchmark, llc_lines, accesses, seed)
    groups = [[_llc_row(p, trace, llc_lines, p) for p in policies]]
    if not llc_only:
        groups.append(_system_rows(policies, quick, seed))
    spec = KernelSpec.coerce(kernel)
    kernels = [KernelSpec.coerce("dict")]
    if spec.name != "dict":
        kernels.append(spec)
    return [(row, k) for rows in groups for k in kernels for row in rows]


def time_row(
    row: BenchRow, kernel: "str | KernelSpec", repeats: int
) -> BenchResult:
    """Best-of-``repeats`` wall time of ``row`` under ``kernel``.

    Each repeat builds a fresh target and attaches the kernel outside
    the timed call.  A requested kernel that fell back to Python is
    logged with its recorded reason -- no silent caps.
    """
    spec = KernelSpec.coerce(kernel)
    key = row.label(spec)
    repeats = max(1, repeats)
    best = float("inf")
    for _ in range(repeats):
        target, call = row.build()
        attach_kernel(target, spec)
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    runtime = getattr(target, "llc", target).kernel
    if runtime is not None and runtime.fallback_reason:
        print(
            f"bench note: {key}: kernel fell back to Python -- "
            f"{runtime.fallback_reason}",
            file=sys.stderr,
        )
    return BenchResult(key, row.accesses, best, row.accesses / best, repeats)


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
