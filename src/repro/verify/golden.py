"""Golden conformance corpus: pinned digests of cache behavior.

For every covered policy and a fixed menu of fuzz traces
(:data:`GOLDEN_SPECS`), the corpus records the production model's full
statistics and a digest of its final set contents.  The corpus is
checked into the repository (``goldens.json`` next to this module) and
re-checked by the tier-1 suite and CI, so *any* behavioral drift in the
cache core or a policy -- intended or not -- fails loudly with a message
naming the policy, the trace, and the first diverging statistic.

Intentional changes regenerate the corpus::

    python -m repro verify --regen-goldens
    # or: python scripts/regen_goldens.py

and the regenerated file is reviewed like any other source change.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from repro.common.config import CacheConfig
from repro.verify.differ import COMPARED_STATS, make_sut_cache
from repro.verify.fuzzer import fuzz_trace
from repro.verify.jobs import VERIFY_POLICIES

#: corpus format version; bump when the record layout changes.
#: v2 added the ``hierarchy`` and ``multicore`` system sections (the
#: per-policy single-cache records are unchanged from v1); v3 added the
#: ``hierarchy_pcm`` section pinning the full-stack timing replay over
#: the asymmetric-write ``pcm`` memory backend; v4 added the
#: ``multicore_shared`` section pinning global-address (data-sharing)
#: mixes -- sharer-directory counters included -- with every v3 section
#: byte-identical.
GOLDEN_VERSION = 4

#: the backend spec the ``hierarchy_pcm`` section pins.  Fixed here so
#: the corpus guards one canonical asymmetric configuration.
PCM_GOLDEN_SPEC = "pcm:write_mult=4"


@dataclass(frozen=True)
class GoldenSpec:
    """One fixed trace of the corpus."""

    name: str
    scenario: str
    seed: int
    num_sets: int
    ways: int
    length: int

    def config(self) -> CacheConfig:
        return CacheConfig(
            size=self.num_sets * self.ways * 64, ways=self.ways, name="golden"
        )

    def trace(self):
        return fuzz_trace(
            self.scenario, self.seed, self.num_sets, self.ways, self.length
        )


#: the corpus menu: every scenario represented, two geometries, fixed
#: seeds.  Kept small enough that the tier-1 golden check stays fast.
GOLDEN_SPECS = (
    GoldenSpec("conflict_16x4", "conflict", 1101, 16, 4, 2048),
    GoldenSpec("dirty_storm_16x8", "dirty_storm", 2202, 16, 8, 2048),
    GoldenSpec("bypass_pc_32x4", "bypass_pc", 3303, 32, 4, 2048),
    GoldenSpec("phase_shift_128x4", "phase_shift", 4404, 128, 4, 2048),
    GoldenSpec("mixed_16x4", "mixed", 5505, 16, 4, 2048),
)


@dataclass(frozen=True)
class SystemGoldenSpec:
    """One fixed system-level (hierarchy or multicore) corpus trace.

    ``geometry`` indexes the menus in :mod:`repro.verify.system`; the
    resolved geometry is recorded alongside the results, so a menu
    reshuffle shows up as golden drift instead of silently re-keying.
    """

    name: str
    target: str  # "hierarchy" | "multicore"
    scenario: str
    seed: int
    geometry: int
    length: int
    shared: bool = False  # multicore only: global-address (data-sharing) mix


#: LLC policies pinned at the system level.  A subset of the verified
#: single-cache set (plus UCP, which only exists multicore) -- enough to
#: cover the stamp-LRU fast path, RRIP machinery, partitioning, and RWP.
HIERARCHY_GOLDEN_POLICIES = ("lru", "drrip", "rwp")
MULTICORE_GOLDEN_POLICIES = ("lru", "ucp", "rwp", "rwp-core")

SYSTEM_GOLDEN_SPECS = (
    SystemGoldenSpec("hier_mixed_g1", "hierarchy", "mixed", 6606, 1, 2048),
    SystemGoldenSpec(
        "hier_dirty_storm_g0", "hierarchy", "dirty_storm", 7707, 0, 2048
    ),
    SystemGoldenSpec("mc4_mixed_g2", "multicore", "mixed", 8808, 2, 1024),
    SystemGoldenSpec(
        "mc2_conflict_g1", "multicore", "conflict", 9909, 1, 1024
    ),
)

#: the v4 ``multicore_shared`` menu: 8-core global-address mixes on the
#: shared geometry row (see SHARED_GEOMETRY_INDEX in
#: :mod:`repro.verify.system`).  dirty_storm maximizes write-sharing
#: and writer migration; mixed covers every scenario's access shapes
#: under one sharer directory.
SHARED_GOLDEN_SPECS = (
    SystemGoldenSpec(
        "mc8s_dirty_storm_g6", "multicore", "dirty_storm", 11011, 6, 1024,
        shared=True,
    ),
    SystemGoldenSpec(
        "mc8s_mixed_g6", "multicore", "mixed", 12012, 6, 1024, shared=True
    ),
)


def default_goldens_path() -> Path:
    """The checked-in corpus file, next to this module."""
    return Path(__file__).resolve().parent / "goldens.json"


def _state_digest(sut) -> str:
    """SHA-256 over the canonical final (set -> sorted (tag, dirty))."""
    state = [
        sorted([line.tag, bool(line.dirty)] for line in s.lines if line.valid)
        for s in sut.sets
    ]
    blob = json.dumps(state, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def golden_record(
    policy: str, spec: GoldenSpec, check_batched: bool = False
) -> Dict[str, object]:
    """Run one (policy, trace) cell and summarize the outcome.

    Deliberately the *scalar* replay -- one ``access()`` per record --
    so the corpus stays independent of the batch driver it also guards.
    With ``check_batched`` (regeneration time), a second fresh cache
    replays the same trace through ``run_trace`` -- and, where the
    configuration is kernel-eligible, a third one through the
    ``native`` SoA batch kernel -- and all must agree exactly; a golden
    is never written from a driver that disagrees with its own scalar
    path.
    """
    trace = spec.trace()
    sut = make_sut_cache(policy, spec.config())
    for address, is_write, pc, _gap in trace:
        sut.access(address, is_write, pc)
    stats = {name: getattr(sut, name) for name in COMPARED_STATS}
    record = {"state_digest": _state_digest(sut), "stats": stats}
    if check_batched:
        for driver, kernel in (("batched", None), ("kernel", "native")):
            batched = make_sut_cache(policy, spec.config())
            if kernel is not None:
                from repro.kernels import attach_kernel

                attach_kernel(batched, kernel)
            batched.run_trace(trace.decoded(spec.config()))
            batched_stats = {
                name: getattr(batched, name) for name in COMPARED_STATS
            }
            if batched_stats != stats or _state_digest(batched) != record[
                "state_digest"
            ]:
                raise AssertionError(
                    f"scalar and {driver} replay disagree for policy "
                    f"{policy!r} on trace {spec.name!r}: scalar {stats} / "
                    f"{record['state_digest']}, {driver} {batched_stats} / "
                    f"{_state_digest(batched)} -- refusing to regenerate "
                    "goldens from an inconsistent driver"
                )
    return record


def _jsonify(record: Dict[str, object]) -> Dict[str, object]:
    """Normalize a record through a JSON round trip (tuples -> lists),
    so comparisons against the loaded corpus are apples-to-apples."""
    return json.loads(json.dumps(record))


def system_golden_record(
    policy: str,
    spec: SystemGoldenSpec,
    check_scalar: bool = False,
    kernel: "str | None" = None,
) -> Dict[str, object]:
    """Run one system-level cell (production batched path) and pin it.

    With ``check_scalar`` (regeneration time), the batched-vs-scalar
    system differ must pass first -- on a hierarchy for the dict driver
    *and* the ``native`` SoA batch kernel, on a shared LLC for the
    kernel (without one, ``run`` is the scalar interleave) -- so a
    golden is never written from a driver that disagrees with its own
    scalar specification.  With
    ``kernel``, the pinned replay itself runs under that batch kernel
    (used by the conformance tests; the checked-in corpus is recorded
    kernel-free).
    """
    from repro.verify.system import (
        HIERARCHY_GEOMETRIES,
        MULTICORE_GEOMETRIES,
        _system_policy,
        diff_hierarchy,
        diff_multicore,
        small_hierarchy,
    )
    from repro.verify.fuzzer import CLASSIC_SCENARIOS

    if spec.target == "hierarchy":
        from repro.hierarchy.system import MemoryHierarchy

        geometry = HIERARCHY_GEOMETRIES[spec.geometry]
        config = small_hierarchy(geometry)
        llc_sets, llc_ways = geometry[2]
        trace = fuzz_trace(
            spec.scenario, spec.seed, llc_sets, llc_ways, spec.length
        )
        if check_scalar:
            for check_kernel in (None, "native"):
                divergence = diff_hierarchy(
                    policy, trace, config, kernel=check_kernel
                )
                if divergence is not None:
                    raise AssertionError(divergence.describe())
        hierarchy = MemoryHierarchy(config, _system_policy(policy))
        if kernel is not None:
            from repro.kernels import attach_kernel

            attach_kernel(hierarchy, kernel)
        counts = hierarchy.run_trace(trace)
        blob = json.dumps(
            {
                "stats": hierarchy.snapshot(),
                "state": [
                    sorted(
                        [line.tag, bool(line.dirty)]
                        for line in s.lines
                        if line.valid
                    )
                    for cache in hierarchy.all_caches()
                    for s in cache.sets
                ],
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return {
            "geometry": [list(row) for row in geometry],
            "counts": counts,
            "memory_reads": hierarchy.memory.reads,
            "memory_writes": hierarchy.memory.writes,
            "state_digest": hashlib.sha256(
                blob.encode("utf-8")
            ).hexdigest()[:16],
        }

    from repro.multicore.shared import SharedLLCSystem
    from repro.verify.system import _as_global

    num_cores, llc_sets, ways = MULTICORE_GEOMETRIES[spec.geometry]
    config = small_hierarchy(((4, 2), (8, 4), (llc_sets, ways)))
    # The rotation is pinned to CLASSIC_SCENARIOS: the corpus was
    # recorded before the stress scenarios existed, and adding fuzz
    # scenarios must never re-derive the pinned traces.
    traces = [
        fuzz_trace(
            CLASSIC_SCENARIOS[
                (CLASSIC_SCENARIOS.index(spec.scenario) + core)
                % len(CLASSIC_SCENARIOS)
            ],
            spec.seed + core,
            llc_sets,
            ways,
            spec.length,
        )
        for core in range(num_cores)
    ]
    if spec.shared:
        traces = [_as_global(trace) for trace in traces]
    warmup = spec.length // 4
    if check_scalar:
        divergence = diff_multicore(
            policy, traces, config, num_cores, warmup, kernel="native"
        )
        if divergence is not None:
            raise AssertionError(divergence.describe())
    system = SharedLLCSystem(config, num_cores, _system_policy(policy, num_cores))
    if kernel is not None:
        from repro.kernels import attach_kernel

        attach_kernel(system, kernel)
    result = system.run(traces, warmup=warmup)
    record = {
        "geometry": [num_cores, llc_sets, ways],
        "cores": [
            {
                "instructions": core.instructions,
                "cycles": core.cycles,
                "read_hits": core.read_hits,
                "read_misses": core.read_misses,
                "write_hits": core.write_hits,
                "write_misses": core.write_misses,
            }
            for core in result.cores
        ],
        "llc_digest": _state_digest(system.llc),
    }
    if spec.shared:
        # Pin the sharer-directory counters too: any drift in sharer
        # bitmask or last-writer maintenance shows up here by name.
        record["shared"] = result.shared
    return record


def pcm_golden_record(policy: str, spec: SystemGoldenSpec) -> Dict[str, object]:
    """Run one hierarchy cell over the ``pcm`` backend and pin it.

    Covers what the plain ``hierarchy`` section cannot: the write-log
    collection, the address-carrying timing replay, and the backend's
    partition/pause/queue state machine.  Pins the timing result
    (instructions, cycles, stall breakdown), the memory traffic, and
    every ``pcm.*`` counter.
    """
    from repro.cpu.core import HierarchyRunner
    from repro.mem import make_backend
    from repro.verify.system import (
        HIERARCHY_GEOMETRIES,
        _system_policy,
        small_hierarchy,
    )

    geometry = HIERARCHY_GEOMETRIES[spec.geometry]
    config = small_hierarchy(geometry)
    llc_sets, llc_ways = geometry[2]
    trace = fuzz_trace(
        spec.scenario, spec.seed, llc_sets, llc_ways, spec.length
    )
    runner = HierarchyRunner(
        config,
        _system_policy(policy),
        backend=make_backend(PCM_GOLDEN_SPEC, config),
    )
    result = runner.run(trace, warmup=spec.length // 4)
    return {
        "geometry": [list(row) for row in geometry],
        "backend_spec": PCM_GOLDEN_SPEC,
        "instructions": result.instructions,
        "cycles": result.cycles,
        "read_stall_cycles": result.read_stall_cycles,
        "write_stall_cycles": result.write_stall_cycles,
        "memory_reads": runner.hierarchy.memory.reads,
        "memory_writes": runner.hierarchy.memory.writes,
        "backend": runner.backend.stats(),
    }


def compute_goldens(policies=VERIFY_POLICIES) -> Dict[str, object]:
    """The full corpus: per-policy single-cache records plus the
    hierarchy and multicore system sections, with trace metadata."""
    corpus: Dict[str, object] = {
        "version": GOLDEN_VERSION,
        "traces": {
            spec.name: {
                "scenario": spec.scenario,
                "seed": spec.seed,
                "num_sets": spec.num_sets,
                "ways": spec.ways,
                "length": spec.length,
            }
            for spec in GOLDEN_SPECS
        },
        "policies": {
            policy: {
                spec.name: golden_record(policy, spec, check_batched=True)
                for spec in GOLDEN_SPECS
            }
            for policy in policies
        },
        "system_traces": {
            spec.name: {
                "target": spec.target,
                "scenario": spec.scenario,
                "seed": spec.seed,
                "geometry": spec.geometry,
                "length": spec.length,
            }
            for spec in SYSTEM_GOLDEN_SPECS
        },
        "hierarchy": {
            policy: {
                spec.name: system_golden_record(policy, spec, check_scalar=True)
                for spec in SYSTEM_GOLDEN_SPECS
                if spec.target == "hierarchy"
            }
            for policy in HIERARCHY_GOLDEN_POLICIES
        },
        "hierarchy_pcm": {
            policy: {
                spec.name: pcm_golden_record(policy, spec)
                for spec in SYSTEM_GOLDEN_SPECS
                if spec.target == "hierarchy"
            }
            for policy in HIERARCHY_GOLDEN_POLICIES
        },
        "multicore": {
            policy: {
                spec.name: system_golden_record(policy, spec, check_scalar=True)
                for spec in SYSTEM_GOLDEN_SPECS
                if spec.target == "multicore"
            }
            for policy in MULTICORE_GOLDEN_POLICIES
        },
        "shared_traces": {
            spec.name: {
                "target": spec.target,
                "scenario": spec.scenario,
                "seed": spec.seed,
                "geometry": spec.geometry,
                "length": spec.length,
                "shared": spec.shared,
            }
            for spec in SHARED_GOLDEN_SPECS
        },
        "multicore_shared": {
            policy: {
                spec.name: system_golden_record(policy, spec, check_scalar=True)
                for spec in SHARED_GOLDEN_SPECS
            }
            for policy in MULTICORE_GOLDEN_POLICIES
        },
    }
    return corpus


def write_goldens(path: "Path | str | None" = None) -> Path:
    """Regenerate the corpus file (pretty-printed for reviewable diffs)."""
    path = Path(path) if path is not None else default_goldens_path()
    corpus = compute_goldens()
    path.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n")
    return path


def load_goldens(path: "Path | str | None" = None) -> Dict[str, object]:
    path = Path(path) if path is not None else default_goldens_path()
    return json.loads(path.read_text())


def check_goldens(path: "Path | str | None" = None) -> List[str]:
    """Compare current behavior against the corpus; [] means clean.

    Each returned message is self-contained and actionable: it names the
    policy, the trace, and the first diverging statistic (or the state
    digest), with both values and the regeneration command.
    """
    try:
        corpus = load_goldens(path)
    except FileNotFoundError:
        return [
            "golden corpus not found: run `python -m repro verify "
            "--regen-goldens` to create it"
        ]
    if corpus.get("version") != GOLDEN_VERSION:
        return [
            f"golden corpus version {corpus.get('version')!r} != "
            f"{GOLDEN_VERSION}: regenerate with `python -m repro verify "
            "--regen-goldens`"
        ]
    problems: List[str] = []
    recorded_policies: Dict[str, Dict] = corpus.get("policies", {})
    for policy in VERIFY_POLICIES:
        recorded_traces = recorded_policies.get(policy)
        if recorded_traces is None:
            problems.append(
                f"policy {policy!r} missing from the golden corpus: "
                "regenerate with `python -m repro verify --regen-goldens`"
            )
            continue
        for spec in GOLDEN_SPECS:
            recorded = recorded_traces.get(spec.name)
            if recorded is None:
                problems.append(
                    f"policy {policy!r} has no golden for trace "
                    f"{spec.name!r}: regenerate with `python -m repro "
                    "verify --regen-goldens`"
                )
                continue
            problem = _compare_record(policy, spec, recorded)
            if problem is not None:
                problems.append(problem)
    problems.extend(_check_system_section(corpus, "hierarchy"))
    problems.extend(_check_system_section(corpus, "multicore"))
    problems.extend(_check_system_section(corpus, "hierarchy_pcm"))
    problems.extend(_check_system_section(corpus, "multicore_shared"))
    return problems


def _check_system_section(corpus: Dict[str, object], target: str) -> List[str]:
    """Re-run and compare one system section of the corpus.

    ``hierarchy_pcm`` shares the hierarchy specs and policy roster but
    replays through :func:`pcm_golden_record` instead of the plain
    system runner; ``multicore_shared`` uses the multicore roster over
    its own global-address spec menu (:data:`SHARED_GOLDEN_SPECS`).
    """
    problems: List[str] = []
    policies = (
        MULTICORE_GOLDEN_POLICIES
        if target in ("multicore", "multicore_shared")
        else HIERARCHY_GOLDEN_POLICIES
    )
    spec_target = (
        "multicore" if target in ("multicore", "multicore_shared")
        else "hierarchy"
    )
    spec_menu = (
        SHARED_GOLDEN_SPECS
        if target == "multicore_shared"
        else SYSTEM_GOLDEN_SPECS
    )
    record_fn = (
        pcm_golden_record
        if target == "hierarchy_pcm"
        else system_golden_record
    )
    recorded_section: Dict[str, Dict] = corpus.get(target, {})
    for policy in policies:
        recorded_traces = recorded_section.get(policy)
        if recorded_traces is None:
            problems.append(
                f"{target} policy {policy!r} missing from the golden "
                "corpus: regenerate with `python -m repro verify "
                "--regen-goldens`"
            )
            continue
        for spec in spec_menu:
            if spec.target != spec_target:
                continue
            recorded = recorded_traces.get(spec.name)
            if recorded is None:
                problems.append(
                    f"{target} policy {policy!r} has no golden for trace "
                    f"{spec.name!r}: regenerate with `python -m repro "
                    "verify --regen-goldens`"
                )
                continue
            current = _jsonify(record_fn(policy, spec))
            if current != recorded:
                keys = [
                    key for key in current if current[key] != recorded.get(key)
                ]
                problems.append(
                    f"golden drift: {target} policy {policy!r} on trace "
                    f"{spec.name!r}: diverging field(s) {keys} (golden "
                    f"{ {k: recorded.get(k) for k in keys} }, current "
                    f"{ {k: current[k] for k in keys} }).  If this change "
                    "is intentional, regenerate with `python -m repro "
                    "verify --regen-goldens` and review the diff; "
                    "otherwise the batched system drivers regressed."
                )
    return problems


def _compare_record(
    policy: str, spec: GoldenSpec, recorded: Dict[str, object]
) -> Optional[str]:
    current = golden_record(policy, spec)
    recorded_stats: Dict[str, object] = recorded.get("stats", {})
    for name in COMPARED_STATS:
        want = recorded_stats.get(name)
        got = current["stats"][name]
        if got != want:
            return (
                f"golden drift: policy {policy!r} on trace {spec.name!r}: "
                f"first diverging stat {name!r} (golden {want}, current "
                f"{got}).  If this change is intentional, regenerate with "
                "`python -m repro verify --regen-goldens` and review the "
                "diff; otherwise the cache core or this policy regressed."
            )
    if current["state_digest"] != recorded.get("state_digest"):
        return (
            f"golden drift: policy {policy!r} on trace {spec.name!r}: "
            f"stats match but the final set-state digest differs (golden "
            f"{recorded.get('state_digest')}, current "
            f"{current['state_digest']}).  Lines ended up in different "
            "places; regenerate with `python -m repro verify "
            "--regen-goldens` if intentional."
        )
    return None
