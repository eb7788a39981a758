"""System-level differential verification: batched vs. scalar replay.

The single-cache conformance harness (:mod:`repro.verify.differ`) pins
the batched LLC driver to an independent oracle.  This module extends
the lockstep idea one level up, to the two drivers that *compose* the
batched pipeline:

* :func:`diff_hierarchy` -- the staged L1/L2/LLC replay
  (:meth:`~repro.hierarchy.system.MemoryHierarchy.run_trace`) against
  the per-access scalar walk it must be bit-identical to, on fresh
  hierarchies, comparing per-level service counts, every cache's final
  set contents and statistics, the memory read/write counters, and (in
  collect mode) the per-access service levels and memory-write
  attribution the timing replay consumes.
* :func:`diff_multicore` -- the shared-LLC interleave on the native
  kernel (:meth:`~repro.multicore.shared.SharedLLCSystem.run` with a
  kernel attached) against its scalar specification
  (:meth:`run_scalar`), comparing every per-core result field
  (instructions, exact cycle floats, hit/miss counts), the shared LLC's
  final state and statistics.

``repro verify --system-fuzz N`` fans :class:`SystemFuzzJob`\\ s out
through the engine; geometry and scenario rotate per job, so a handful
of jobs covers multi-level pressure (tiny L1s forcing deep writeback
chains) and multicore contention (many cores on a small shared LLC).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Dict, List, Optional, Sequence, Tuple

from repro.common.config import CacheConfig, HierarchyConfig
from repro.engine.keys import job_key
from repro.verify.differ import VERIFY_RWP_EPOCH
from repro.verify.fuzzer import SCENARIOS, fuzz_trace

#: LLC policies exercised by hierarchy system fuzzing (oracle-backed
#: single-core set; the L1/L2 are always LRU).
HIERARCHY_VERIFY_POLICIES = (
    "lru",
    "dip",
    "drrip",
    "ship",
    "rrp",
    "rwp",
)

#: shared-LLC policies exercised by multicore system fuzzing, including
#: the core-aware partitioning policies the single-cache oracle cannot
#: model.
MULTICORE_VERIFY_POLICIES = (
    "lru",
    "dip",
    "drrip",
    "ship",
    "rwp",
    "rwp-core",
    "ucp",
    "tadrrip",
    "pipp",
)

#: shared-mix (global-address) policy rotation: the kernel-supported
#: policies first, so a 48-job slate runs each of them shared on the
#: kernel twice, then the rest of the multicore menu.
SHARED_VERIFY_POLICIES = ("lru", "rwp", "rwp-core") + tuple(
    policy
    for policy in MULTICORE_VERIFY_POLICIES
    if policy not in ("lru", "rwp", "rwp-core")
)

#: (l1 sets/ways, l2 sets/ways, llc sets/ways) menu for hierarchy jobs.
#: Tiny upper levels keep miss+writeback substreams dense; the LLC is
#: always the largest, as in every shipped config.
HIERARCHY_GEOMETRIES: Tuple[Tuple[Tuple[int, int], ...], ...] = (
    ((4, 2), (8, 4), (16, 4)),
    ((8, 2), (16, 4), (32, 8)),
    ((4, 4), (8, 8), (64, 4)),
    ((8, 4), (8, 8), (16, 8)),
)

#: (num_cores, llc sets, ways) menu for multicore jobs.  Includes a
#: single-core row (the interleave must degenerate cleanly) and an
#: oversubscribed 6-core row.
MULTICORE_GEOMETRIES: Tuple[Tuple[int, int, int], ...] = (
    (1, 16, 4),
    (2, 16, 4),
    (4, 32, 4),
    (4, 64, 8),
    (6, 32, 8),
    (8, 64, 16),  # appended: golden specs index into this tuple
    (8, 32, 16),  # shared-mix row: 8 cores contending on a small global LLC
)

#: index of the geometry row shared (global-address) multicore jobs pin:
#: 8 cores on a deliberately small LLC keeps cross-core line overlap and
#: sharer-directory churn high.
SHARED_GEOMETRY_INDEX = len(MULTICORE_GEOMETRIES) - 1

SYSTEM_TRACE_LENGTH = 1024


@dataclass
class SystemDivergence:
    """One difference between the batched driver and its scalar spec."""

    target: str  # "hierarchy" | "multicore"
    policy: str
    kind: str  # which comparison failed
    expected: object  # the scalar reference's value
    actual: object  # the batched driver's value
    kernel: str = "dict"  # the batch kernel the batched side ran under

    def _driver(self) -> str:
        if self.kernel == "dict":
            return "batched replay"
        return f"batched replay (kernel {self.kernel!r})"

    def describe(self) -> str:
        return (
            f"{self.target} {self._driver()} diverged from the scalar "
            f"walk for policy {self.policy!r}: {self.kind} -- scalar says "
            f"{self.expected!r}, batched says {self.actual!r}"
        )

    def to_dict(self) -> dict:
        return {
            "target": self.target,
            "policy": self.policy,
            "kind": self.kind,
            "expected": repr(self.expected),
            "actual": repr(self.actual),
            "kernel": self.kernel,
        }


def small_hierarchy(
    geometry: Sequence[Tuple[int, int]],
) -> HierarchyConfig:
    """A fuzz-scale three-level config from ((sets, ways), ...) rows."""
    (l1s, l1w), (l2s, l2w), (llcs, llcw) = geometry
    return HierarchyConfig(
        l1=CacheConfig(size=l1s * l1w * 64, ways=l1w, hit_latency=3, name="L1D"),
        l2=CacheConfig(size=l2s * l2w * 64, ways=l2w, hit_latency=10, name="L2"),
        llc=CacheConfig(
            size=llcs * llcw * 64, ways=llcw, hit_latency=30, name="LLC"
        ),
    )


def _as_global(trace):
    """The same access stream, re-tagged into the global address space.

    Shared fuzz jobs reuse the per-core coverage-biased streams but
    drop the per-core address offsetting (global traces replay with a
    zero core stride), so identical low addresses from different cores
    land on the same LLC lines -- exactly the overlap the sharer
    directory exists to track.
    """
    from repro.trace.access import Trace

    return Trace(
        trace.addresses,
        trace.is_write,
        trace.pcs,
        trace.instr_gaps,
        name=f"{trace.name}-global",
        address_space="global",
    )


def _system_policy(name: str, num_cores: int = 1):
    """A fresh LLC policy for one system run (short RWP epoch)."""
    from repro.cache.policy import make_policy

    if name == "rwp":
        from repro.core.rwp import RWPPolicy

        return RWPPolicy(epoch=VERIFY_RWP_EPOCH)
    if name == "rwp-core":
        from repro.core.rwp import CoreAwareRWPPolicy

        return CoreAwareRWPPolicy(num_cores=num_cores, epoch=VERIFY_RWP_EPOCH)
    if name == "ucp":
        from repro.cache.ucp import UCPPolicy

        return UCPPolicy(num_cores=num_cores)
    if name == "tadrrip":
        from repro.cache.rrip import TADRRIPPolicy

        return TADRRIPPolicy(num_cores=num_cores)
    if name == "pipp":
        from repro.cache.pipp import PIPPPolicy

        return PIPPPolicy(num_cores=num_cores)
    return make_policy(name)


def _cache_state(cache) -> List[List[Tuple[int, bool]]]:
    return [
        sorted((line.tag, bool(line.dirty)) for line in s.lines if line.valid)
        for s in cache.sets
    ]


def _hierarchy_snapshot(hierarchy) -> Dict[str, object]:
    """Everything two equivalent hierarchy replays must agree on."""
    state = {
        f"{cache.config.name}[{index}]": _cache_state(cache)
        for index, cache in enumerate(hierarchy.all_caches())
    }
    return {
        "state": state,
        "stats": hierarchy.snapshot(),
        "memory_reads": hierarchy.memory.reads,
        "memory_writes": hierarchy.memory.writes,
        "back_invalidations": hierarchy.back_invalidations,
        "ticks": [cache.tick for cache in hierarchy.all_caches()],
    }


def diff_hierarchy(
    policy: str,
    trace,
    config: HierarchyConfig,
    kernel: Optional[str] = None,
) -> Optional[SystemDivergence]:
    """Replay one trace both ways through fresh hierarchies.

    Runs the comparison twice: once in plain counting mode (which takes
    the fast LLC-residue path when the policy allows it) and once in
    ``collect`` mode (per-access service levels and memory-write
    attribution, the timing replay's inputs).  With ``kernel``, the
    batched side runs under that SoA batch kernel (the scalar side
    never does), so the comparison pins the kernel to the scalar walk.
    ``None`` means the batched pipeline is bit-identical here.
    """
    from repro.hierarchy.system import MemoryHierarchy

    for collect in (False, True):
        batched = MemoryHierarchy(config, _system_policy(policy))
        if kernel is not None:
            from repro.kernels import attach_kernel

            attach_kernel(batched, kernel)
        scalar = MemoryHierarchy(config, _system_policy(policy))
        if not batched._batch_supported(0):
            # The staged replay would fall back to the scalar walk;
            # comparing scalar to scalar proves nothing.
            return None
        got = batched.run_trace(trace, collect=collect)
        want = scalar._run_trace_scalar(
            trace, core=0, start=0, stop=len(trace), collect=collect
        )
        if collect:
            got_counts, got_levels, got_mem = got
            want_counts, want_levels, want_mem = want
            if got_levels != want_levels:
                first = next(
                    i
                    for i, (g, w) in enumerate(zip(got_levels, want_levels))
                    if g != w
                )
                return SystemDivergence(
                    "hierarchy",
                    policy,
                    f"collect levels at access #{first}",
                    want_levels[first],
                    got_levels[first],
                    kernel=kernel or "dict",
                )
            if got_mem != want_mem:
                first = next(
                    i
                    for i, (g, w) in enumerate(zip(got_mem, want_mem))
                    if g != w
                )
                return SystemDivergence(
                    "hierarchy",
                    policy,
                    f"collect memory writes at access #{first}",
                    want_mem[first],
                    got_mem[first],
                    kernel=kernel or "dict",
                )
        else:
            got_counts, want_counts = got, want
        if got_counts != want_counts:
            return SystemDivergence(
                "hierarchy", policy, "service-level counts",
                want_counts, got_counts, kernel=kernel or "dict",
            )
        got_snap = _hierarchy_snapshot(batched)
        want_snap = _hierarchy_snapshot(scalar)
        for key in want_snap:
            if got_snap[key] != want_snap[key]:
                return SystemDivergence(
                    "hierarchy", policy, key, want_snap[key], got_snap[key],
                    kernel=kernel or "dict",
                )
    return None


def diff_multicore(
    policy: str,
    traces: Sequence,
    config: HierarchyConfig,
    num_cores: int,
    warmup: int = 0,
    kernel: str = "native",
) -> Optional[SystemDivergence]:
    """Run one mix through ``run`` under ``kernel`` and ``run_scalar``.

    Fresh systems (fresh policy instances) on both sides; compares every
    ``CoreResult`` field -- including the exact IEEE cycle floats, which
    is the strongest possible statement that the interleave matched --
    then the shared LLC's final contents, statistics, and tick.  For
    global-address (data-sharing) mixes it also compares the
    ``shared.*`` counters and the sharer directory's full line table
    (sharer masks + last writers), so the kernel's directory updates
    are pinned access-for-access to the scalar walk.  Without a kernel
    ``run`` is ``run_scalar``, so ``kernel="dict"`` raises
    ``ValueError``; where ``kernel`` declines (a policy outside its
    matrix, a host without a compiler) the check compares the scalar
    interleave with itself.
    """
    from repro.kernels import KernelSpec, attach_kernel
    from repro.multicore.shared import SharedLLCSystem

    if KernelSpec.coerce(kernel).name == "dict":
        raise ValueError(
            "without a kernel SharedLLCSystem.run is run_scalar: "
            "nothing to compare"
        )
    batched_system = SharedLLCSystem(
        config, num_cores, _system_policy(policy, num_cores)
    )
    attach_kernel(batched_system, kernel)
    scalar_system = SharedLLCSystem(
        config, num_cores, _system_policy(policy, num_cores)
    )
    got = batched_system.run(traces, warmup=warmup)
    want = scalar_system.run_scalar(traces, warmup=warmup)
    for core, (g, w) in enumerate(zip(got.cores, want.cores)):
        if g != w:
            return SystemDivergence(
                "multicore", policy, f"core {core} result", w, g,
                kernel=kernel,
            )
    got_state = _cache_state(batched_system.llc)
    want_state = _cache_state(scalar_system.llc)
    if got_state != want_state:
        first = next(
            i
            for i, (g, w) in enumerate(zip(got_state, want_state))
            if g != w
        )
        return SystemDivergence(
            "multicore", policy, f"llc set {first}",
            want_state[first], got_state[first], kernel=kernel,
        )
    got_stats = batched_system.llc.snapshot()
    want_stats = scalar_system.llc.snapshot()
    if got_stats != want_stats:
        return SystemDivergence(
            "multicore", policy, "llc stats", want_stats, got_stats,
            kernel=kernel,
        )
    if batched_system.llc.tick != scalar_system.llc.tick:
        return SystemDivergence(
            "multicore", policy, "llc tick",
            scalar_system.llc.tick, batched_system.llc.tick,
            kernel=kernel,
        )
    if got.shared != want.shared:
        return SystemDivergence(
            "multicore", policy, "shared stats", want.shared, got.shared,
            kernel=kernel,
        )
    got_dir = batched_system.sharer_directory
    want_dir = scalar_system.sharer_directory
    if (got_dir is None) != (want_dir is None):
        return SystemDivergence(
            "multicore", policy, "sharer directory presence",
            want_dir is not None, got_dir is not None,
            kernel=kernel,
        )
    if got_dir is not None and got_dir.table != want_dir.table:
        keys = set(got_dir.table) | set(want_dir.table)
        first = min(
            k for k in keys if got_dir.table.get(k) != want_dir.table.get(k)
        )
        return SystemDivergence(
            "multicore", policy, f"sharer directory entry for block {first}",
            want_dir.table.get(first), got_dir.table.get(first),
            kernel=kernel,
        )
    return None


@dataclass(frozen=True)
class SystemFuzzJob:
    """One hierarchy or multicore batched-vs-scalar differential run."""

    target: str  # "hierarchy" | "multicore"
    policy: str
    scenario: str
    seed: int
    geometry: int  # index into the target's geometry menu
    length: int = SYSTEM_TRACE_LENGTH
    kernel: str = "dict"  # batch kernel on the batched side
    shared: bool = False  # multicore only: global-address (data-sharing) mix

    kind: ClassVar[str] = "verify-system"

    @property
    def label(self) -> str:
        base = (
            f"verify:{self.target}:{self.policy}/{self.scenario}"
            f"@g{self.geometry}#{self.seed}"
        )
        if self.shared:
            base = f"{base}:shared"
        if self.kernel != "dict":
            base = f"{base}~{self.kernel}"
        return base

    def payload(self) -> Dict[str, object]:
        # The resolved geometry, not the menu index: re-ordering the
        # menu must not serve stale store entries.
        if self.target == "hierarchy":
            geometry = [list(row) for row in HIERARCHY_GEOMETRIES[self.geometry]]
        else:
            geometry = list(MULTICORE_GEOMETRIES[self.geometry])
        payload: Dict[str, object] = {
            "kind": self.kind,
            "target": self.target,
            "policy": self.policy,
            "scenario": self.scenario,
            "seed": self.seed,
            "geometry": geometry,
            "length": self.length,
        }
        # Same convention as RunJob: the default dict kernel is omitted
        # so pre-kernel store entries stay warm, while every non-default
        # kernel keys (and caches) separately.  Likewise ``shared`` only
        # appears for global-address jobs -- private-job keys predate it.
        if self.kernel != "dict":
            payload["kernel"] = self.kernel
        if self.shared:
            payload["shared"] = True
        return payload

    def key(self) -> str:
        return job_key(self.payload())

    def execute(self) -> Dict[str, object]:
        divergence = self.run()
        result: Dict[str, object] = {
            "target": self.target,
            "policy": self.policy,
            "scenario": self.scenario,
            "seed": self.seed,
            "kernel": self.kernel,
            "shared": self.shared,
            "ok": divergence is None,
        }
        if divergence is not None:
            result["divergence"] = divergence.to_dict()
        return result

    def run(self) -> Optional[SystemDivergence]:
        if self.target == "hierarchy":
            geometry = HIERARCHY_GEOMETRIES[self.geometry]
            config = small_hierarchy(geometry)
            llc_sets = geometry[2][0]
            trace = fuzz_trace(
                self.scenario, self.seed, llc_sets, geometry[2][1], self.length
            )
            kernel = None if self.kernel == "dict" else self.kernel
            return diff_hierarchy(self.policy, trace, config, kernel=kernel)
        num_cores, llc_sets, ways = MULTICORE_GEOMETRIES[self.geometry]
        config = small_hierarchy(
            ((4, 2), (8, 4), (llc_sets, ways))
        )
        # One trace per core, each from a rotated scenario and seed, so
        # the cores pressure the shared LLC with different shapes.
        traces = [
            fuzz_trace(
                SCENARIOS[(SCENARIOS.index(self.scenario) + core) % len(SCENARIOS)],
                self.seed + core,
                llc_sets,
                ways,
                self.length,
            )
            for core in range(num_cores)
        ]
        if self.shared:
            # Re-tag as one global address space: the per-core fuzz
            # streams all cluster near address zero, so cross-core line
            # overlap is dense and the sharer directory works hard.
            traces = [_as_global(trace) for trace in traces]
        return diff_multicore(
            self.policy, traces, config, num_cores,
            warmup=self.length // 4, kernel=self.kernel,
        )

    @staticmethod
    def encode(result: Dict[str, object]) -> Dict[str, object]:
        return result

    @staticmethod
    def decode(data: Dict[str, object]) -> Dict[str, object]:
        return data


def plan_system_jobs(
    count: int,
    base_seed: int = 2014,
    length: int = SYSTEM_TRACE_LENGTH,
    kernel: str = "native",
) -> List[SystemFuzzJob]:
    """A deterministic slate alternating hierarchy and multicore jobs.

    Policies rotate fastest within each target, scenarios and geometries
    at different strides, every job with a distinct seed -- mirroring
    :func:`repro.verify.jobs.plan_fuzz_jobs`.  Every third hierarchy job
    pins the batched side to ``kernel`` (default ``native``), so a
    standard ``repro verify --system-fuzz N`` sweep exercises the SoA
    batch kernels against the scalar walk alongside the dict driver.
    Every multicore job pins ``kernel``: without one,
    ``SharedLLCSystem.run`` is the scalar interleave itself, so
    ``kernel="dict"`` plans a slate of hierarchy jobs only.  Every
    fourth multicore job runs a *shared* (global-address) mix pinned to
    the 8-core shared geometry row, so sharer-directory tracking and the
    shared-claimant arbitration paths are fuzzed by default.  Shared
    jobs rotate through :data:`SHARED_VERIFY_POLICIES`, each policy
    twice in a row (two seeds).
    """
    jobs: List[SystemFuzzJob] = []
    private_rows = SHARED_GEOMETRY_INDEX  # rotation excludes the shared row
    h = m = 0
    for index in range(count):
        seed = base_seed * 1_000_003 + 7_777 + index
        if index % 2 == 0 or kernel == "dict":
            jobs.append(
                SystemFuzzJob(
                    target="hierarchy",
                    policy=HIERARCHY_VERIFY_POLICIES[
                        h % len(HIERARCHY_VERIFY_POLICIES)
                    ],
                    scenario=SCENARIOS[
                        (h // len(HIERARCHY_VERIFY_POLICIES)) % len(SCENARIOS)
                    ],
                    seed=seed,
                    geometry=h % len(HIERARCHY_GEOMETRIES),
                    length=length,
                    kernel=kernel if index % 3 == 2 else "dict",
                )
            )
            h += 1
        else:
            shared = m % 4 == 3
            if shared:
                policy = SHARED_VERIFY_POLICIES[
                    (m // 8) % len(SHARED_VERIFY_POLICIES)
                ]
            else:
                policy = MULTICORE_VERIFY_POLICIES[
                    m % len(MULTICORE_VERIFY_POLICIES)
                ]
            jobs.append(
                SystemFuzzJob(
                    target="multicore",
                    policy=policy,
                    scenario=SCENARIOS[
                        (m // len(MULTICORE_VERIFY_POLICIES)) % len(SCENARIOS)
                    ],
                    seed=seed,
                    geometry=SHARED_GEOMETRY_INDEX if shared
                    else m % private_rows,
                    length=length,
                    kernel=kernel,
                    shared=shared,
                )
            )
            m += 1
    return jobs
