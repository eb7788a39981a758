"""System-level differential verification: batched vs. scalar replay.

The single-cache conformance harness (:mod:`repro.verify.differ`) pins
the batched LLC driver to an independent oracle.  This module extends
the lockstep idea one level up, to the drivers that *compose* the
batched pipeline:

* :func:`diff_hierarchy` -- the staged L1/L2/LLC replay
  (:meth:`~repro.hierarchy.system.MemoryHierarchy.run_trace`), under
  the dict driver and under the native kernel, against the per-access
  scalar walk it must be bit-identical to, on fresh hierarchies,
  comparing per-level service counts, every cache's final set contents
  and statistics, the memory read/write counters, and (in collect mode)
  the per-access service levels and memory-write attribution the timing
  replay consumes.
* :func:`diff_multicore` -- the shared-LLC interleave on the native
  kernel (:meth:`~repro.multicore.shared.SharedLLCSystem.run` with a
  kernel attached) against its scalar specification
  (:meth:`run_scalar`), comparing every per-core result field
  (instructions, exact cycle floats, hit/miss counts), the shared LLC's
  final state and statistics.

A driver that declines a configuration hands it to a Python path, so
each check also reports which batched drivers served the replay in
full.  ``repro verify --system-fuzz N`` fans :class:`SystemFuzzJob`\\ s
out through the engine; geometry and scenario rotate per job, so a
handful of jobs covers multi-level pressure (tiny L1s forcing deep
writeback chains) and multicore contention (many cores on a small
shared LLC).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Dict, List, Optional, Sequence, Tuple

from repro.common.config import CacheConfig, HierarchyConfig
from repro.engine.keys import job_key
from repro.verify.differ import make_sut_policy
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
    """One difference between a batched driver and its scalar spec."""

    target: str  # "hierarchy" | "multicore"
    policy: str
    kind: str  # which comparison failed
    expected: object  # the scalar reference's value
    actual: object  # the batched driver's value
    driver: str  # the kernel the diverging batched side ran under

    def describe(self) -> str:
        return (
            f"{self.target} batched replay (kernel {self.driver!r}) "
            f"diverged from the scalar walk for policy {self.policy!r}: "
            f"{self.kind} -- scalar says {self.expected!r}, batched says "
            f"{self.actual!r}"
        )

    def to_dict(self) -> dict:
        return {
            "target": self.target,
            "policy": self.policy,
            "kind": self.kind,
            "expected": repr(self.expected),
            "actual": repr(self.actual),
            "driver": self.driver,
        }


#: what a system check returns: the first divergence (None when every
#: driver matched) and the kernels whose batched replay served the run
#: in full, with no stage handed to a Python fallback.
SystemCheck = Tuple[Optional[SystemDivergence], List[str]]


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


def _first_difference(got: Sequence, want: Sequence) -> int:
    return next(i for i, (g, w) in enumerate(zip(got, want)) if g != w)


def _served(system) -> bool:
    """True when ``system``'s kernel, if any, recorded no fallback.

    Every cache a hierarchy or shared-LLC system owns shares the one
    runtime ``attach_kernel`` installed, so the LLC's speaks for all.
    """
    runtime = system.llc.kernel
    return runtime is None or runtime.fallback_reason is None


def diff_hierarchy(
    policy: str, trace, config: HierarchyConfig
) -> Optional[SystemDivergence]:
    """Replay one trace through fresh hierarchies, every driver vs. scalar.

    Runs the comparison in plain counting mode (which takes the fast
    LLC-residue path when the policy allows it) and in ``collect`` mode
    (per-access service levels and memory-write attribution, the timing
    replay's inputs), each time under every kernel in
    :data:`~repro.kernels.KERNEL_NAMES` (the scalar side never runs
    one).  ``None`` means every batched driver is bit-identical here.
    """
    return _check_hierarchy(policy, trace, config)[0]


def _check_hierarchy(policy: str, trace, config: HierarchyConfig) -> SystemCheck:
    from repro.hierarchy.system import MemoryHierarchy
    from repro.kernels import KERNEL_NAMES, attach_kernel

    served = list(KERNEL_NAMES)
    for collect in (False, True):
        scalar = MemoryHierarchy(config, make_sut_policy(policy))
        if not scalar._batch_supported(0):
            # The staged replay would fall back to the scalar walk;
            # comparing scalar to scalar proves nothing.
            return None, []
        want = scalar._run_trace_scalar(
            trace, core=0, start=0, stop=len(trace), collect=collect
        )
        want_snap = _hierarchy_snapshot(scalar)
        for driver in KERNEL_NAMES:
            batched = MemoryHierarchy(config, make_sut_policy(policy))
            attach_kernel(batched, driver)
            got = batched.run_trace(trace, collect=collect)
            if not _served(batched) and driver in served:
                served.remove(driver)
            divergence = _compare_hierarchy(
                policy, driver, collect, got, want, batched, want_snap
            )
            if divergence is not None:
                return divergence, served
    return None, served


def _compare_hierarchy(
    policy, driver, collect, got, want, batched, want_snap
) -> Optional[SystemDivergence]:
    def diverged(kind, expected, actual):
        return SystemDivergence(
            "hierarchy", policy, kind, expected, actual, driver
        )

    got_counts, want_counts = got, want
    if collect:
        got_counts, got_levels, got_mem = got
        want_counts, want_levels, want_mem = want
        for what, g, w in (
            ("levels", got_levels, want_levels),
            ("memory writes", got_mem, want_mem),
        ):
            if g != w:
                first = _first_difference(g, w)
                return diverged(
                    f"collect {what} at access #{first}", w[first], g[first]
                )
    if got_counts != want_counts:
        return diverged("service-level counts", want_counts, got_counts)
    got_snap = _hierarchy_snapshot(batched)
    for key in want_snap:
        if got_snap[key] != want_snap[key]:
            return diverged(key, want_snap[key], got_snap[key])
    return None


def diff_multicore(
    policy: str,
    traces: Sequence,
    config: HierarchyConfig,
    num_cores: int,
    warmup: int = 0,
) -> Optional[SystemDivergence]:
    """Run one mix through ``run`` on the native kernel and ``run_scalar``.

    Fresh systems (fresh policy instances) on both sides; compares every
    ``CoreResult`` field -- including the exact IEEE cycle floats, which
    is the strongest possible statement that the interleave matched --
    then the shared LLC's final contents, statistics, and tick.  For
    global-address (data-sharing) mixes it also compares the
    ``shared.*`` counters and the sharer directory's full line table
    (sharer masks + last writers), so the kernel's directory updates
    are pinned access-for-access to the scalar walk.  The native
    interleave is the only batched multicore driver (a kernel-free
    ``run`` is ``run_scalar``); where the kernel declines (a policy
    outside its matrix, a host without a compiler) the check compares
    the scalar interleave with itself, and the verify job reports that
    no driver served.
    """
    return _check_multicore(policy, traces, config, num_cores, warmup)[0]


def _check_multicore(
    policy: str,
    traces: Sequence,
    config: HierarchyConfig,
    num_cores: int,
    warmup: int,
) -> SystemCheck:
    from repro.kernels import attach_kernel
    from repro.multicore.shared import SharedLLCSystem

    batched_system = SharedLLCSystem(
        config, num_cores, make_sut_policy(policy, num_cores)
    )
    attach_kernel(batched_system, "native")
    scalar_system = SharedLLCSystem(
        config, num_cores, make_sut_policy(policy, num_cores)
    )
    got = batched_system.run(traces, warmup=warmup)
    want = scalar_system.run_scalar(traces, warmup=warmup)
    divergence = _compare_multicore(
        policy, got, want, batched_system, scalar_system
    )
    return divergence, ["native"] if _served(batched_system) else []


def _compare_multicore(
    policy, got, want, batched_system, scalar_system
) -> Optional[SystemDivergence]:
    def diverged(kind, expected, actual):
        return SystemDivergence(
            "multicore", policy, kind, expected, actual, "native"
        )

    for core, (g, w) in enumerate(zip(got.cores, want.cores)):
        if g != w:
            return diverged(f"core {core} result", w, g)
    got_state = _cache_state(batched_system.llc)
    want_state = _cache_state(scalar_system.llc)
    if got_state != want_state:
        first = _first_difference(got_state, want_state)
        return diverged(
            f"llc set {first}", want_state[first], got_state[first]
        )
    got_stats = batched_system.llc.snapshot()
    want_stats = scalar_system.llc.snapshot()
    if got_stats != want_stats:
        return diverged("llc stats", want_stats, got_stats)
    if batched_system.llc.tick != scalar_system.llc.tick:
        return diverged(
            "llc tick", scalar_system.llc.tick, batched_system.llc.tick
        )
    if got.shared != want.shared:
        return diverged("shared stats", want.shared, got.shared)
    got_dir = batched_system.sharer_directory
    want_dir = scalar_system.sharer_directory
    if (got_dir is None) != (want_dir is None):
        return diverged(
            "sharer directory presence",
            want_dir is not None, got_dir is not None,
        )
    if got_dir is not None and got_dir.table != want_dir.table:
        keys = set(got_dir.table) | set(want_dir.table)
        first = min(
            k for k in keys if got_dir.table.get(k) != want_dir.table.get(k)
        )
        return diverged(
            f"sharer directory entry for block {first}",
            want_dir.table.get(first), got_dir.table.get(first),
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
    shared: bool = False  # multicore only: global-address (data-sharing) mix

    kind: ClassVar[str] = "verify-system"

    @property
    def label(self) -> str:
        base = (
            f"verify:{self.target}:{self.policy}/{self.scenario}"
            f"@g{self.geometry}#{self.seed}"
        )
        return f"{base}:shared" if self.shared else base

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
        # ``shared`` only appears for global-address jobs -- private-job
        # keys predate it.
        if self.shared:
            payload["shared"] = True
        return payload

    def key(self) -> str:
        return job_key(self.payload())

    def execute(self) -> Dict[str, object]:
        divergence, drivers = self.run()
        result: Dict[str, object] = {
            "target": self.target,
            "policy": self.policy,
            "scenario": self.scenario,
            "seed": self.seed,
            "shared": self.shared,
            "drivers": drivers,
            "ok": divergence is None,
        }
        if divergence is not None:
            result["divergence"] = divergence.to_dict()
            result["report"] = divergence.describe()
        return result

    def run(self) -> SystemCheck:
        if self.target == "hierarchy":
            geometry = HIERARCHY_GEOMETRIES[self.geometry]
            config = small_hierarchy(geometry)
            llc_sets = geometry[2][0]
            trace = fuzz_trace(
                self.scenario, self.seed, llc_sets, geometry[2][1], self.length
            )
            return _check_hierarchy(self.policy, trace, config)
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
        return _check_multicore(
            self.policy, traces, config, num_cores, warmup=self.length // 4
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
) -> List[SystemFuzzJob]:
    """A deterministic slate alternating hierarchy and multicore jobs.

    Policies rotate fastest within each target, scenarios and geometries
    at different strides, every job with a distinct seed -- mirroring
    :func:`repro.verify.jobs.plan_fuzz_jobs`.  Every hierarchy job
    checks the dict and the native stage replay, every multicore job
    the native interleave.  Every fourth multicore job runs a *shared*
    (global-address) mix pinned to the 8-core shared geometry row, so
    sharer-directory tracking and the shared-claimant arbitration paths
    are fuzzed by default.  Shared jobs rotate through
    :data:`SHARED_VERIFY_POLICIES`, each policy twice in a row (two
    seeds).
    """
    jobs: List[SystemFuzzJob] = []
    private_rows = SHARED_GEOMETRY_INDEX  # rotation excludes the shared row
    h = m = 0
    for index in range(count):
        seed = base_seed * 1_000_003 + 7_777 + index
        if index % 2 == 0:
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
                    shared=shared,
                )
            )
            m += 1
    return jobs
