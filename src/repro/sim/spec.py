"""One front-end for every simulation mode.

A :class:`SimulationSpec` is a frozen, hashable, picklable description
of one run -- which **mode** (LLC-level replay, full L1/L2/LLC
hierarchy, or the shared-LLC multicore system), which workload, which
policy, at which :class:`~repro.experiments.runner.ExperimentScale` and
geometry.  :func:`simulate` executes it; :func:`simulate_cached`
memoizes it.  Every engine job and every policy-comparison harness in
``repro.experiments`` routes through here, so there is exactly one
place that knows how to turn a spec into traces, caches, runners, and
results; F12's shared-fraction sweep, whose traces are no registered
mix, builds its own system.

Modes
-----
``llc``        the workhorse: one benchmark trace replayed against the
               LLC under study through the batched driver
               (:class:`~repro.cpu.core.LLCRunner`).  ``llc_lines`` /
               ``ways`` override the geometry while keeping the
               reference-scale trace (the sensitivity sweeps).
``hierarchy``  the same benchmark trace pushed through the full
               L1/L2/LLC stack (:class:`~repro.cpu.core.HierarchyRunner`,
               staged batched replay).
``multicore``  ``workload`` names a registered mix (one benchmark per
               core, any core count); each core replays its
               benchmark through the shared LLC, interleaved by
               progress (:class:`~repro.multicore.shared.SharedLLCSystem`:
               the native kernel, or the scalar interleave where it
               declines).
               Returns a ``SharedRunResult`` (per-core ``RunResult``
               list); metric math (weighted speedup etc.) stays in
               ``repro.experiments.multicore_exp``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Union

from repro.cache.policyspec import PolicySpec
from repro.common.config import default_hierarchy
from repro.experiments.runner import (
    ExperimentScale,
    cached_trace,
    make_llc_policy,
)
from repro.kernels import attach_kernel
from repro.kernels.spec import DEFAULT_KERNEL, KernelSpec
from repro.mem.spec import BackendSpec
from repro.trace.generator import LINE_SIZE
from repro.trace.workload import WorkloadSpec

#: the recognized simulation modes, in documentation order.
SIMULATION_MODES = ("llc", "hierarchy", "multicore")


@dataclass(frozen=True)
class SimulationSpec:
    """Everything needed to reproduce one simulation run.

    ``workload`` is any workload reference for ``llc``/``hierarchy``
    modes -- a bare benchmark name, a canonical
    ``kind:name,key=value`` string, or a
    :class:`~repro.trace.workload.WorkloadSpec` (synthetic models,
    stress kernels, and ingested trace files all replay identically) --
    and a mix name (see :func:`repro.trace.mixes.mix_names`) for
    ``multicore``.  ``policy`` is a registry name, a canonical spec
    string, or a :class:`~repro.cache.policyspec.PolicySpec` (all
    hashable, so the spec stays cacheable).  ``llc_lines``/``ways``
    override the LLC geometry while the trace stays at the reference
    scale; in multicore mode ``llc_lines`` overrides the *shared*
    capacity (default: ``num_cores * scale.llc_lines``).  ``num_cores``
    defaults to the named mix's own core count (one benchmark per
    core); setting it explicitly to a different value is an error.
    ``memory`` names the main-memory backend -- a registry name, a
    canonical ``"name:key=value"`` spec string, or a
    :class:`~repro.mem.spec.BackendSpec`; the default ``"dram"`` keeps
    the flat-latency fast paths and is bit-identical to having no
    backend at all.  ``kernel`` selects the batch-replay driver the same
    way (see :class:`~repro.kernels.spec.KernelSpec`): the default
    ``"native"`` kernel falls back per replay to the Python drivers (the
    ``"dict"`` batch loops; the scalar interleave for a multicore run)
    on unsupported shapes, and all are bit-identical, so the kernel is
    an execution choice that stays out of :attr:`label`.

    The spec holds the coerced forms: ``policy``, ``memory`` and
    ``kernel`` become their spec objects and, outside multicore mode,
    ``workload`` its :class:`~repro.trace.workload.WorkloadSpec`, so
    equal runs are equal (and equally hashed) specs whichever spelling
    or entry point built them -- the one key of the
    :func:`simulate_cached` memo.  The kernel stays in that key, so a
    ``"dict"`` rerun of a cell (the conformance checks do this) never
    reads the native run's memo entry.
    """

    workload: Union[str, WorkloadSpec]
    policy: Union[str, PolicySpec] = "lru"
    mode: str = "llc"
    scale: ExperimentScale = ExperimentScale()
    llc_lines: Optional[int] = None
    ways: Optional[int] = None
    num_cores: Optional[int] = None  # multicore mode; None = mix's count
    memory: Union[str, BackendSpec] = "dram"
    kernel: Union[str, KernelSpec] = DEFAULT_KERNEL

    def __post_init__(self) -> None:
        if self.mode not in SIMULATION_MODES:
            raise ValueError(
                f"unknown simulation mode {self.mode!r}; "
                f"known: {', '.join(SIMULATION_MODES)}"
            )
        # Hold the coerced specs, so a bad --memory or --kernel string
        # fails at spec construction, not deep inside a run, and equal
        # runs are equal memo keys however their fields were spelled.
        # Multicore workloads stay mix names (their own registry); every
        # other mode's workload must parse as a WorkloadSpec reference.
        object.__setattr__(self, "policy", PolicySpec.coerce(self.policy))
        object.__setattr__(self, "memory", BackendSpec.coerce(self.memory))
        object.__setattr__(self, "kernel", KernelSpec.coerce(self.kernel))
        if self.mode != "multicore":
            object.__setattr__(
                self, "workload", WorkloadSpec.coerce(self.workload)
            )

    @property
    def core_count(self) -> int:
        """The core count to simulate: explicit, or the mix's own."""
        if self.num_cores is not None:
            return self.num_cores
        if self.mode == "multicore":
            from repro.trace.mixes import get_mix

            return get_mix(self.workload).core_count
        return 1

    @property
    def geometry_lines(self) -> int:
        """The simulated LLC capacity in lines, override applied."""
        if self.llc_lines is not None:
            return self.llc_lines
        if self.mode == "multicore":
            return self.core_count * self.scale.llc_lines
        return self.scale.llc_lines

    @property
    def geometry_ways(self) -> int:
        return self.ways if self.ways is not None else self.scale.ways

    @property
    def workload_key(self) -> str:
        """Canonical string form of the workload (store/label friendly).

        A plain model workload keys as the bare benchmark name (the
        historical form); multicore mix names pass through untouched.
        """
        if self.mode == "multicore":
            return self.workload
        return self.workload.store_key()

    @property
    def policy_key(self) -> str:
        """Canonical string form of the policy (store/label friendly)."""
        return self.policy.key()

    @property
    def memory_key(self) -> str:
        """Canonical string form of the memory backend."""
        return self.memory.key()

    @property
    def uses_default_memory(self) -> bool:
        return self.memory.is_default

    @property
    def kernel_key(self) -> str:
        """Canonical string form of the batch kernel."""
        return self.kernel.key()

    @property
    def label(self) -> str:
        base = f"{self.mode}:{self.workload_key}/{self.policy_key}"
        if not self.uses_default_memory:
            base = f"{base}+{self.memory_key}"
        if self.llc_lines is None and self.ways is None:
            return base
        return f"{base}@{self.geometry_lines}x{self.geometry_ways}"

    def hierarchy_config(self):
        """The :class:`~repro.common.config.HierarchyConfig` to simulate."""
        return default_hierarchy(
            llc_size=self.geometry_lines * LINE_SIZE,
            llc_ways=self.geometry_ways,
        )


def simulate(spec: SimulationSpec):
    """Execute one spec; the one place simulations are launched.

    Returns a :class:`~repro.cpu.core.RunResult` for ``llc`` and
    ``hierarchy`` modes, a :class:`~repro.multicore.shared.SharedRunResult`
    for ``multicore``.  Deterministic: equal specs produce bit-identical
    results (which is what :func:`simulate_cached` and the engine's
    content-addressed store rely on).
    """
    global _LAST_KERNEL_INFO
    _LAST_KERNEL_INFO = None
    if spec.mode == "multicore":
        return _simulate_multicore(spec)
    scale = spec.scale
    trace = cached_trace(
        spec.workload, scale.llc_lines, scale.total_accesses, scale.seed
    )
    policy = make_llc_policy(spec.policy, spec.geometry_lines)
    config = spec.hierarchy_config()
    backend = None
    if not spec.uses_default_memory:
        from repro.mem import make_backend

        backend = make_backend(spec.memory, config)
    if spec.mode == "hierarchy":
        from repro.cpu.core import HierarchyRunner

        runner: "Union[HierarchyRunner, object]" = HierarchyRunner(
            config, policy, backend=backend
        )
        target = runner.hierarchy
    else:
        from repro.cpu.core import LLCRunner

        runner = LLCRunner(config, policy, backend=backend)
        target = runner.llc
    attach_kernel(target, spec.kernel)
    result = runner.run(trace, warmup=scale.warmup)
    _record_kernel(target, spec)
    return result


#: Kernel disposition of the most recent kernel-backed :func:`simulate`
#: in this process (``None`` after a ``dict`` run).  A reporting side
#: channel for the CLI -- deliberately NOT part of the result objects,
#: so kernel runs stay bit-comparable to dict runs (the conformance
#: contract above).
_LAST_KERNEL_INFO: Optional[dict] = None


def last_kernel_info() -> Optional[dict]:
    """Disposition of the most recent kernel-backed :func:`simulate`.

    ``{"requested": <kernel key>, "backend": <active backend>}`` plus a
    ``"fallback"`` reason when the runtime declined the run and a Python
    driver served it instead; ``None`` when the last run used the
    ``dict`` kernel.  Lets ``repro run`` report a requested kernel
    that silently fell back, without polluting result equality.
    """
    return _LAST_KERNEL_INFO


def _record_kernel(target, spec: SimulationSpec) -> None:
    """Capture the runtime's disposition into the side channel."""
    global _LAST_KERNEL_INFO
    runtime = getattr(target, "kernel", None)
    if runtime is None:
        llc = getattr(target, "llc", None)
        runtime = getattr(llc, "kernel", None)
    if runtime is None and hasattr(target, "all_caches"):
        for cache in target.all_caches():
            runtime = cache.kernel
            break
    if runtime is None:
        return
    info = {
        "requested": spec.kernel_key,
        "backend": runtime.active_backend,
    }
    if runtime.fallback_reason is not None:
        info["fallback"] = runtime.fallback_reason
    _LAST_KERNEL_INFO = info


def _simulate_multicore(spec: SimulationSpec):
    """One mix through the shared-LLC system (kernel, else scalar)."""
    from repro.multicore.shared import SharedLLCSystem
    from repro.trace.mixes import get_mix

    scale = spec.scale
    mix = get_mix(spec.workload)
    benchmarks = mix.benchmarks
    num_cores = spec.core_count
    if len(benchmarks) != num_cores:
        raise ValueError(
            f"mix {spec.workload} has {len(benchmarks)} benchmarks, "
            f"need {num_cores}"
        )
    if mix.sharing is not None:
        from repro.experiments.runner import cached_shared_mix

        traces = list(
            cached_shared_mix(
                spec.workload, scale.llc_lines, scale.total_accesses,
                scale.seed,
            )
        )
    else:
        traces = [
            cached_trace(
                bench, scale.llc_lines, scale.total_accesses, scale.seed
            )
            for bench in benchmarks
        ]
    config = spec.hierarchy_config()
    backends = None
    if not spec.uses_default_memory:
        from repro.mem import make_backend

        # One backend instance per core, matching the per-core write
        # buffers of the flat model (no shared-channel contention yet).
        backends = [
            make_backend(spec.memory, config) for _ in range(num_cores)
        ]
    system = SharedLLCSystem(
        config,
        num_cores,
        make_llc_policy(spec.policy, spec.geometry_lines, num_cores),
        backends=backends,
    )
    attach_kernel(system, spec.kernel)
    result = system.run(traces, warmup=scale.warmup)
    _record_kernel(system, spec)
    return result


@lru_cache(maxsize=4096)
def simulate_cached(spec: SimulationSpec):
    """Memoized :func:`simulate` for single-result modes.

    The one in-process memo of simulation results: ``RunJob.execute``,
    ``run_benchmark``, the multicore alone runs and every harness reach
    it with the same canonical spec.  Runs are deterministic, so
    harnesses that share a baseline (every figure normalizes to LRU)
    never re-simulate it.  Multicore specs are
    excluded: a ``SharedRunResult`` carries per-core mutable state and
    the mix harness caches at the :class:`~repro.engine.MixJob` level
    instead.
    """
    if spec.mode == "multicore":
        raise ValueError(
            "multicore specs are not memoized here; call simulate() "
            "(MixJob/the result store provide caching)"
        )
    return simulate(spec)
