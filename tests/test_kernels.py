"""Kernel-conformance harness: SoA batch kernel vs dict driver vs scalar.

Pins the load-bearing invariant of the :mod:`repro.kernels` layer: for
every supported configuration the native SoA kernel, the dict-driven
batch drivers, and the one-access-at-a-time scalar walk produce
bit-identical statistics, final set state (line-by-line,
including stamps and read/write-seen bits), lookup tables (as key sets
-- insertion order is driver-dependent and not semantically
observable), and downstream writeback streams.  And for every
*unsupported* configuration -- a policy outside the kernel matrix, a
missing compiler, numpy absent -- the kernel layer must fall back
silently and change nothing.

Runs under the tier-1 suite at modest Hypothesis example counts and
under the deep-conformance CI job (``REPRO_DEEP_TESTS=1``) at many
more.
"""

from __future__ import annotations

import pytest

import repro.experiments  # noqa: F401  pre-imports the experiments package
# (repro.sim and repro.experiments import each other; importing the
# package first resolves the cycle the same way the CLI does)

from repro.cache.line import CacheLine
from repro.cache.policy import make_policy
from repro.common.config import CacheConfig, default_hierarchy
from repro.cpu.core import HierarchyRunner, LLCRunner
from repro.engine.jobs import MixJob, RunJob
from repro.experiments.runner import (
    ExperimentScale,
    cached_shared_mix,
    cached_trace,
    make_llc_policy,
)
from repro.engine.sweepspec import SweepSpec
from repro.kernels import (
    KernelSpec,
    attach_kernel,
    native_available,
    reset_native_cache,
)
from repro.mem import make_backend
from repro.multicore.shared import SharedLLCSystem
from repro.sim.spec import (
    SimulationSpec,
    last_kernel_info,
    simulate,
    simulate_cached,
)
from repro.trace.access import Trace
from repro.trace.decode import DecodedTrace
from repro.trace.generator import LINE_SIZE
from repro.verify.differ import COMPARED_STATS, make_sut_cache, make_sut_policy
from repro.verify.fuzzer import FUZZ_GEOMETRIES, fuzz_trace
from repro.verify.system import small_hierarchy

try:
    from hypothesis import given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover
    HAVE_HYPOTHESIS = False

#: the policies the kernel also serves on the shared-LLC paths.
KERNEL_POLICIES = ("lru", "rwp", "rwp-core")

#: the paper's comparators, served on single-cache replays only.
COMPARATOR_POLICIES = ("dip", "drrip", "ship", "rrp")

#: every policy a single-cache replay runs on the kernel.
SINGLE_POLICIES = KERNEL_POLICIES + COMPARATOR_POLICIES

#: policies outside the matrix: attaching a kernel must be a no-op.
FALLBACK_POLICIES = ("srrip", "lfu")

#: kernel edge shapes beyond the fuzz menu: one set, one way, 64 ways.
EDGE_GEOMETRIES = ((1, 1), (1, 16), (4, 1), (2, 64), (4, 64))

#: the widest tag the kernel's int64 streams hold
MAX_TAG = (1 << 63) - 1

needs_native = pytest.mark.skipif(
    not native_available(), reason="no C compiler for the native kernel"
)


def _config(num_sets: int, ways: int) -> CacheConfig:
    return CacheConfig(size=num_sets * ways * 64, ways=ways, name="ktest")


def _trace_from(num_sets, set_indices, tags, writes) -> Trace:
    addresses = [
        (tag * num_sets + si) * 64 for si, tag in zip(set_indices, tags)
    ]
    pcs = [4 * (i % 97) for i in range(len(addresses))]
    return Trace(addresses, list(writes), pcs)


def _max_width_trace(num_sets: int, length: int = 1024) -> Trace:
    """Tags within 11 of the widest int64 tag, every third access a write."""
    return _trace_from(
        num_sets,
        [i % num_sets for i in range(length)],
        [MAX_TAG - (7 * i) % 11 for i in range(length)],
        [i % 3 == 0 for i in range(length)],
    )


def _stats(cache) -> dict:
    return {name: getattr(cache, name) for name in COMPARED_STATS}


def _full_line_state(cache) -> list:
    """Every field the kernels touch, line by line, in way order."""
    return [
        [
            (
                line.tag,
                line.valid,
                line.dirty,
                line.stamp,
                line.owner,
                line.read_seen,
                line.write_seen,
                line.rrpv,
                line.signature,
                line.outcome,
            )
            for line in s.lines
        ]
        for s in cache.sets
    ]


def _policy_state(cache) -> dict:
    """The policy state a kernel run must scatter back, and describe()."""
    policy = cache.policy
    dueling = getattr(policy, "_dueling", None)
    coin = getattr(policy, "_coin", None)
    table = getattr(policy, "_shct", None) or getattr(policy, "_table", None)
    return {
        "clock": getattr(policy, "_clock", None),
        "psel": None if dueling is None else dueling.psel.value,
        "coin": None if coin is None else coin.state,
        "table": None if table is None else list(table),
        "bypassed_writes": getattr(policy, "bypassed_writes", None),
        "describe": policy.describe(),
    }


def _lookup_keysets(cache) -> list:
    # Key *sets*: the kernel scatter leaves lookup in stamp order, the
    # dict loop in insertion order; victim selection never depends on
    # dict order, so order is not part of the contract.
    return [frozenset(s.lookup) for s in cache.sets]


def _set_invariants(cache) -> list:
    return [(s.filled, s.dirty_lines) for s in cache.sets]


def _clock(cache):
    stamp = cache.plan.stamp_policy
    return None if stamp is None else stamp._clock


def _run(policy: str, trace: Trace, config: CacheConfig, kernel=None):
    cache = make_sut_cache(policy, config)
    if kernel is not None:
        attach_kernel(cache, kernel)
    cache.run_trace(trace.decoded(config))
    return cache


def _scalar(policy: str, trace: Trace, config: CacheConfig):
    cache = make_sut_cache(policy, config)
    for address, is_write, pc, _gap in trace:
        cache.access(address, is_write, pc)
    return cache


def assert_field_for_field(kern, ref, scalar=None):
    assert _stats(kern) == _stats(ref)
    assert _full_line_state(kern) == _full_line_state(ref)
    assert _lookup_keysets(kern) == _lookup_keysets(ref)
    assert _set_invariants(kern) == _set_invariants(ref)
    assert _clock(kern) == _clock(ref)
    assert _policy_state(kern) == _policy_state(ref)
    assert kern.tick == ref.tick
    if scalar is not None:
        assert _stats(kern) == _stats(scalar)
        assert _full_line_state(kern) == _full_line_state(scalar)
        assert _policy_state(kern) == _policy_state(scalar)


class TestKernelConformance:
    """native kernel == dict driver == scalar, field for field."""

    @needs_native
    @pytest.mark.parametrize("policy", SINGLE_POLICIES)
    @pytest.mark.parametrize("geometry", FUZZ_GEOMETRIES + EDGE_GEOMETRIES)
    def test_fuzz_geometries(self, policy, geometry):
        num_sets, ways = geometry
        if policy in ("dip", "drrip") and num_sets < 4:
            pytest.skip("set dueling needs at least 4 sets")
        config = _config(num_sets, ways)
        trace = fuzz_trace("mixed", 71 + num_sets + ways, num_sets, ways, 1024)
        kern = _run(policy, trace, config, kernel="native")
        assert kern.kernel.fallback_reason is None
        ref = _run(policy, trace, config)
        scalar = _scalar(policy, trace, config)
        assert_field_for_field(kern, ref, scalar)

    @needs_native
    @pytest.mark.parametrize("policy", SINGLE_POLICIES)
    def test_max_width_tags(self, policy):
        num_sets, ways = 4, 4
        config = _config(num_sets, ways)
        trace = _max_width_trace(num_sets)
        kern = _run(policy, trace, config, kernel="native")
        assert kern.kernel.fallback_reason is None
        ref = _run(policy, trace, config)
        scalar = _scalar(policy, trace, config)
        assert_field_for_field(kern, ref, scalar)

    @needs_native
    @pytest.mark.parametrize("policy", SINGLE_POLICIES)
    def test_max_width_tags_timed(self, policy):
        # A dirty line's block address is past int64 at these tags;
        # the timed replay must still count and time its writeback.
        num_sets, ways = 4, 4
        trace = _max_width_trace(num_sets)
        config = default_hierarchy(
            llc_size=num_sets * ways * LINE_SIZE, llc_ways=ways
        )
        results = []
        for kernel in ("native", "dict"):
            runner = LLCRunner(config, make_sut_policy(policy))
            attach_kernel(runner.llc, kernel)
            results.append(runner.run(trace, warmup=128))
            if kernel == "native":
                assert runner.llc.kernel.fallback_reason is None
        kern, ref = results
        assert kern == ref
        assert ref.extra["writebuffer"]["writebuffer.writes"] > 0

    @needs_native
    @pytest.mark.parametrize("policy", ("lru", "rwp"))
    def test_max_width_tags_collect(self, policy):
        # A filter stage or an attributed LLC replay emits block
        # addresses; past int64 they decline, naming the overflow.
        num_sets, ways = 4, 4
        trace = _max_width_trace(num_sets)
        config = small_hierarchy(((4, 2), (8, 2), (num_sets, ways)))
        results = []
        for kernel in ("native", "dict"):
            runner = HierarchyRunner(config, make_policy(policy))
            attach_kernel(runner.hierarchy, kernel)
            results.append(runner.run(trace, warmup=128))
            if kernel == "native":
                assert runner.hierarchy.llc.kernel.fallback_reason == (
                    "a block address overflows the int64 kernel ABI"
                )
        kern, ref = results
        assert kern == ref
        assert ref.extra["hierarchy"]["memory.writes"] > 0

    @needs_native
    @pytest.mark.parametrize("policy", SINGLE_POLICIES)
    @pytest.mark.parametrize(
        "scenario", ("conflict", "dirty_storm", "phase_shift")
    )
    def test_scenarios(self, policy, scenario):
        num_sets, ways = 16, 4
        config = _config(num_sets, ways)
        trace = fuzz_trace(scenario, 1234, num_sets, ways, 2048)
        kern = _run(policy, trace, config, kernel="native")
        ref = _run(policy, trace, config)
        assert_field_for_field(kern, ref)

    @needs_native
    @pytest.mark.parametrize("policy", SINGLE_POLICIES)
    @pytest.mark.parametrize("scenario", ("bypass_pc", "mixed"))
    def test_split_replay_matches_one_dict_run(self, policy, scenario):
        # Dict, native, scalar access(), native, dict: the image a
        # kernel call leaves resident, the line objects access()
        # rebuilds from it and the image gathered back from them must
        # carry every bit of state (columns, clock, samplers, PSEL,
        # coin, table) into the next driver, and no driver may keep
        # tables over objects a kernel call replaced.  128 sets give
        # DIP/DRRIP follower sets, so PSEL steers fills.
        num_sets, ways = 128, 4
        config = _config(num_sets, ways)
        trace = fuzz_trace(scenario, 555, num_sets, ways, 3000)
        decoded = trace.decoded(config)
        split = make_sut_cache(policy, config)
        split.run_trace(decoded, 0, 300)
        attach_kernel(split, "native")
        split.run_trace(decoded, 300, 1000)
        assert "sets" not in split.__dict__
        for i in range(1000, 1400):
            split.access(trace.addresses[i], trace.is_write[i], trace.pcs[i])
        split.run_trace(decoded, 1400, 2200)
        assert split.kernel.fallback_reason is None
        attach_kernel(split, "dict")
        split.run_trace(decoded, 2200, len(decoded))
        ref = _run(policy, trace, config)
        assert_field_for_field(split, ref)

    @needs_native
    def test_split_filter_matches_one_dict_run(self):
        # The same ownership hand-offs through run_lru_filter, whose
        # dict loop also trusts the lookup dicts' recency order.
        config = _config(8, 2)
        trace = fuzz_trace("conflict", 17, 8, 2, 1600)
        decoded = trace.decoded(config)
        outputs = []
        for kernel in ("native", "dict"):
            cache = make_sut_cache("lru", config)
            emitted = ([], [], [])

            def replay(start, stop):
                return cache.run_lru_filter(
                    decoded.set_indices, decoded.tags, decoded.is_write,
                    start, stop, *emitted,
                )

            served = [replay(0, 200)]
            attach_kernel(cache, kernel)
            served.append(replay(200, 500))
            for i in range(500, 800):
                cache.access(
                    trace.addresses[i], trace.is_write[i], trace.pcs[i]
                )
            served.append(replay(800, 1200))
            if kernel == "native":
                assert cache.kernel.fallback_reason is None
            attach_kernel(cache, "dict")
            served.append(replay(1200, len(decoded)))
            outputs.append(
                (served, emitted, _stats(cache), _full_line_state(cache),
                 _lookup_keysets(cache), _set_invariants(cache),
                 _clock(cache), cache.tick)
            )
        assert outputs[0] == outputs[1]

    if HAVE_HYPOTHESIS:

        @needs_native
        @settings(deadline=None)
        @given(
            geometry=st.sampled_from(FUZZ_GEOMETRIES),
            policy=st.sampled_from(SINGLE_POLICIES),
            data=st.data(),
        )
        def test_random_traces(self, geometry, policy, data):
            num_sets, ways = geometry
            n = data.draw(st.integers(16, 300), label="length")
            set_indices = data.draw(
                st.lists(
                    st.integers(0, num_sets - 1), min_size=n, max_size=n
                ),
                label="sets",
            )
            tags = data.draw(
                st.lists(st.integers(0, 2 * ways), min_size=n, max_size=n),
                label="tags",
            )
            writes = data.draw(
                st.lists(st.booleans(), min_size=n, max_size=n),
                label="writes",
            )
            trace = _trace_from(num_sets, set_indices, tags, writes)
            config = _config(num_sets, ways)
            kern = _run(policy, trace, config, kernel="native")
            ref = _run(policy, trace, config)
            scalar = _scalar(policy, trace, config)
            assert_field_for_field(kern, ref, scalar)

    @needs_native
    @pytest.mark.parametrize(
        "policy,mode",
        [
            (policy, mode)
            for policy in ("lru", "rwp")
            for mode in ("llc", "hierarchy")
        ]
        + [(policy, "llc") for policy in COMPARATOR_POLICIES],
    )
    def test_timed_runs_identical(self, mode, policy):
        scale = ExperimentScale(
            llc_lines=256, warmup_factor=2, measure_factor=6, seed=7
        )
        base = dict(workload="mcf", policy=policy, mode=mode, scale=scale)
        ref = simulate(SimulationSpec(**base, kernel="dict"))
        kern = simulate(SimulationSpec(**base, kernel="native"))
        if mode == "llc":
            assert "fallback" not in last_kernel_info()
        assert kern == ref
        if policy == "rrp":
            # bypassed writes went through the write buffer
            assert ref.llc_bypasses > 0
            assert ref.extra["policy_state"]["bypassed_writes"] > 0


class TestKernelFallback:
    """Unsupported shapes must fall back to the dict driver unchanged."""

    @needs_native
    @pytest.mark.parametrize("policy", FALLBACK_POLICIES)
    def test_unsupported_policy(self, policy):
        num_sets, ways = 16, 4
        config = _config(num_sets, ways)
        trace = fuzz_trace("mixed", 99, num_sets, ways, 1024)
        kern = _run(policy, trace, config, kernel="native")
        ref = _run(policy, trace, config)
        assert _stats(kern) == _stats(ref)
        assert _full_line_state(kern) == _full_line_state(ref)
        assert kern.kernel.fallback_reason == (
            f"{type(kern.policy).__name__} has no kernel counterpart"
        )

    @needs_native
    def test_comparator_subclass_declines(self):
        # Recognition is by hook identity: overriding one hook makes
        # the policy something the kernel does not port.
        from repro.cache.cache import SetAssociativeCache
        from repro.cache.rrip import DRRIPPolicy

        class PatchedDRRIP(DRRIPPolicy):
            def on_hit(self, cache_set, line, set_index, is_write, pc, core):
                super().on_hit(cache_set, line, set_index, is_write, pc, core)

        config = _config(16, 4)
        trace = fuzz_trace("mixed", 99, 16, 4, 1024)
        caches = []
        for kernel in ("native", "dict"):
            cache = SetAssociativeCache(config, PatchedDRRIP())
            attach_kernel(cache, kernel)
            cache.run_trace(trace.decoded(config))
            caches.append(cache)
        assert caches[0].kernel.fallback_reason == (
            "PatchedDRRIP has no kernel counterpart"
        )
        assert _full_line_state(caches[0]) == _full_line_state(caches[1])

    @needs_native
    @pytest.mark.parametrize("policy", COMPARATOR_POLICIES)
    def test_comparator_declines_collect_replay(self, policy):
        # A timed hierarchy run attributes every LLC access to its
        # demand access; that entry point names itself when it declines.
        simulate_cached.cache_clear()
        spec = SimulationSpec(
            "mcf", policy, mode="hierarchy", scale=_SMALL, kernel="native"
        )
        result = simulate(spec)
        name = type(make_policy(policy)).__name__
        assert last_kernel_info()["fallback"] == (
            f"{name} runs natively only through run_trace: the LLC-residue "
            "collect replay carries no PC stream or bypass attribution"
        )
        assert result == simulate(
            SimulationSpec(
                "mcf", policy, mode="hierarchy", scale=_SMALL, kernel="dict"
            )
        )

    @needs_native
    def test_comparator_declines_multicore(self):
        traces = [
            fuzz_trace("mixed", 808 + core, 16, 4, 512) for core in range(2)
        ]
        config = default_hierarchy(llc_size=64 * LINE_SIZE, llc_ways=4)
        system = SharedLLCSystem(config, 2, make_llc_policy("dip", 64, 2))
        attach_kernel(system, "native")
        system.run(traces, warmup=64)
        assert system.llc.kernel.fallback_reason == (
            "DIPPolicy runs natively only through run_trace: the multicore "
            "interleave carries no PC stream or bypass attribution"
        )

    @needs_native
    def test_tag_overflow_declines(self):
        # One tag past int64: the single-cache replay and the multicore
        # interleave both decline, name the overflow, and match dict.
        reason = "a tag or instruction gap overflows the int64 kernel ABI"
        num_sets, ways = 4, 4
        config = _config(num_sets, ways)
        length = 512
        trace = _trace_from(
            num_sets,
            [i % num_sets for i in range(length)],
            [MAX_TAG + 1 - (7 * i) % 11 for i in range(length)],
            [i % 3 == 0 for i in range(length)],
        )
        kern = _run("lru", trace, config, kernel="native")
        assert kern.kernel.fallback_reason == reason
        assert_field_for_field(kern, _run("lru", trace, config))

        shared = [
            Trace(trace.addresses, trace.is_write, trace.pcs,
                  address_space="global")
            for _ in range(2)
        ]
        hierarchy = default_hierarchy(
            llc_size=num_sets * ways * LINE_SIZE, llc_ways=ways
        )
        systems = []
        for kernel in ("native", "dict"):
            system = SharedLLCSystem(hierarchy, 2, make_llc_policy("lru", 16, 2))
            attach_kernel(system, kernel)
            systems.append(system)
        got, want = [system.run(shared, warmup=64) for system in systems]
        assert systems[0].llc.kernel.fallback_reason == reason
        assert got == want

    @pytest.mark.parametrize("kernel", ("native",))
    def test_forced_fallback_without_native(self, kernel, monkeypatch):
        # With REPRO_NO_NATIVE set the kernel degrades to the dict
        # driver, naming why.
        monkeypatch.setenv("REPRO_NO_NATIVE", "1")
        reset_native_cache()
        try:
            num_sets, ways = 16, 4
            config = _config(num_sets, ways)
            trace = fuzz_trace("dirty_storm", 5, num_sets, ways, 768)
            kern = _run("rwp", trace, config, kernel=kernel)
            ref = _run("rwp", trace, config)
            assert_field_for_field(kern, ref)
            assert kern.kernel.active_backend is None
            assert kern.kernel.fallback_reason == (
                "no native kernel library available"
            )
        finally:
            monkeypatch.delenv("REPRO_NO_NATIVE")
            reset_native_cache()

    def test_attach_dict_detaches(self):
        config = _config(16, 4)
        cache = make_sut_cache("lru", config)
        attach_kernel(cache, "native")
        attach_kernel(cache, "dict")
        assert cache.kernel is None


class TestFilterStream:
    """run_lru_filter: kernel and dict emit identical downstream ops."""

    @needs_native
    def test_filter_streams_identical(self):
        config = _config(8, 2)
        trace = fuzz_trace("conflict", 17, 8, 2, 512)
        decoded = trace.decoded(config)
        outputs = []
        for kernel in (None, "native"):
            cache = make_sut_cache("lru", config)
            if kernel is not None:
                attach_kernel(cache, kernel)
            assert cache.lru_filter_eligible()
            out_blocks: list = []
            out_write: list = []
            out_origin: list = []
            levels = [0] * len(decoded)
            served = cache.run_lru_filter(
                decoded.set_indices,
                decoded.tags,
                decoded.is_write,
                0,
                len(decoded),
                out_blocks,
                out_write,
                out_origin,
                origins=list(range(len(decoded))),
                levels=levels,
                level=1,
            )
            outputs.append(
                (served, out_blocks, out_write, out_origin, levels,
                 _stats(cache), _full_line_state(cache))
            )
        assert outputs[0] == outputs[1]


class TestSystemKernels:
    """Hierarchy and multicore replays under the kernel match scalar."""

    @needs_native
    @pytest.mark.parametrize("policy", ("lru", "rwp"))
    def test_hierarchy_kernel_conformant(self, policy):
        from repro.verify.system import (
            HIERARCHY_GEOMETRIES,
            diff_hierarchy,
            small_hierarchy,
        )

        geometry = HIERARCHY_GEOMETRIES[1]
        trace = fuzz_trace(
            "mixed", 404, geometry[2][0], geometry[2][1], 1024
        )
        config = small_hierarchy(geometry)
        assert diff_hierarchy(policy, trace, config, kernel="native") is None

    @needs_native
    @pytest.mark.parametrize("policy", ("lru", "rwp", "rwp-core"))
    def test_multicore_kernel_conformant(self, policy):
        from repro.verify.fuzzer import SCENARIOS
        from repro.verify.system import (
            MULTICORE_GEOMETRIES,
            diff_multicore,
            small_hierarchy,
        )

        num_cores, llc_sets, ways = MULTICORE_GEOMETRIES[2]
        config = small_hierarchy(((4, 2), (8, 4), (llc_sets, ways)))
        traces = [
            fuzz_trace(
                SCENARIOS[core % len(SCENARIOS)],
                808 + core,
                llc_sets,
                ways,
                768,
            )
            for core in range(num_cores)
        ]
        assert (
            diff_multicore(
                policy, traces, config, num_cores, warmup=128,
                kernel="native",
            )
            is None
        )


#: one data-sharing mix per core count the shared conformance covers
SHARED_KERNEL_MIXES = (
    "mix2s01_prodcons",
    "mix4s03_migratory",
    "mix8s01_prodcons",
    "mix16s01_prodcons",
)


def _shared_policy(policy: str, lines: int, num_cores: int):
    # Short epochs and dense sampling put the shared-claimant sampler
    # routing and the repartition callback on many accesses.
    if policy != "lru" and ":" not in policy:
        policy = f"{policy}:epoch=64:sampling=1"
    return make_llc_policy(policy, lines, num_cores)


def _global_traces(per_core_ops):
    """One global-address trace per core from ``(line, is_write)`` ops."""
    return [
        Trace(
            [line * LINE_SIZE for line, _ in ops],
            [w for _, w in ops],
            [0x400 + 4 * (line % 8) for line, _ in ops],
            [1] * len(ops),
            name=f"fuzz-c{core}",
            address_space="global",
        )
        for core, ops in enumerate(per_core_ops)
    ]


def _shared_outcomes(policy, traces, config, warmup, runs=1):
    """(kernel, dict, scalar) outcomes of the same shared run(s).

    Each outcome is everything a shared run leaves behind: the result
    (``shared.*`` included), every LLC line, the full directory table,
    the LLC statistics, tick and policy clock.  ``runs`` > 1 replays the
    traces again on the same system, so later runs start with resident
    lines the fresh directory does not track.
    """
    num_cores = len(traces)
    lines = config.llc.num_sets * config.llc.ways
    outcomes = []
    fallbacks = []
    for driver in ("kernel", "dict", "scalar"):
        system = SharedLLCSystem(
            config, num_cores, _shared_policy(policy, lines, num_cores)
        )
        if driver == "kernel":
            attach_kernel(system, "native")
        run = system.run_scalar if driver == "scalar" else system.run
        results = [run(traces, warmup=warmup) for _ in range(runs)]
        llc = system.llc
        outcomes.append(
            (
                results,
                _full_line_state(llc),
                system.sharer_directory.table,
                llc.snapshot(),
                llc.tick,
                _clock(llc),
            )
        )
        if driver == "kernel":
            fallbacks.append(llc.kernel.fallback_reason)
    return outcomes, fallbacks[0]


def assert_shared_identical(outcomes):
    kern, ref, scalar = outcomes
    assert kern[0][-1].shared is not None
    for got, want in ((kern, scalar), (ref, scalar)):
        for field, (g, w) in enumerate(zip(got, want)):
            assert g == w, field


class TestSharedKernels:
    """Shared-LLC replays with sharer tracking run on the kernel."""

    @needs_native
    @pytest.mark.parametrize("policy", KERNEL_POLICIES)
    @pytest.mark.parametrize("mix", SHARED_KERNEL_MIXES)
    def test_shared_mixes_served(self, policy, mix):
        traces = cached_shared_mix(mix, 64, 1024, 7)
        num_cores = len(traces)
        config = default_hierarchy(
            llc_size=64 * num_cores * LINE_SIZE, llc_ways=16
        )
        outcomes, fallback = _shared_outcomes(policy, traces, config, 128)
        assert fallback is None
        assert_shared_identical(outcomes)

    @needs_native
    @pytest.mark.parametrize("policy", KERNEL_POLICIES)
    def test_second_run_meets_untracked_lines(self, policy):
        traces = cached_shared_mix("mix4s01_prodcons", 64, 768, 3)
        config = default_hierarchy(llc_size=256 * LINE_SIZE, llc_ways=8)
        outcomes, fallback = _shared_outcomes(
            policy, traces, config, 96, runs=2
        )
        assert fallback is None
        assert_shared_identical(outcomes)

    if HAVE_HYPOTHESIS:

        @needs_native
        @settings(deadline=None)
        @given(
            policy=st.sampled_from(KERNEL_POLICIES),
            num_cores=st.sampled_from((2, 4, 8)),
            data=st.data(),
        )
        def test_random_shared_streams(self, policy, num_cores, data):
            ops = st.lists(
                st.tuples(st.integers(0, 47), st.booleans()),
                min_size=1,
                max_size=120,
            )
            per_core = [
                data.draw(ops, label=f"core{core}")
                for core in range(num_cores)
            ]
            # 4 sets x 8 ways = 32 lines for 48 distinct line addresses.
            config = default_hierarchy(llc_size=32 * LINE_SIZE, llc_ways=8)
            outcomes, fallback = _shared_outcomes(
                policy, _global_traces(per_core), config, 0
            )
            assert fallback is None
            assert_shared_identical(outcomes)

    @needs_native
    def test_blend_still_declines(self):
        traces = cached_shared_mix("mix4s01_prodcons", 64, 512, 5)
        config = default_hierarchy(llc_size=256 * LINE_SIZE, llc_ways=8)
        outcomes, fallback = _shared_outcomes(
            "rwp-core:blend=true", traces, config, 64
        )
        assert fallback == "rwp-core blend arbitration is dict-only"
        assert_shared_identical(outcomes)

    @needs_native
    def test_stray_directory_entry_declines(self, monkeypatch):
        # An entry for a line the LLC does not hold has no column to
        # live in: the kernel must decline, naming why, and the dict
        # driver must still match the scalar walk.
        stray = (1 << 40, [0b11, 1])
        original = SharedLLCSystem._bind_directory

        def planted(self):
            directory = original(self)
            directory.table[stray[0]] = list(stray[1])
            return directory

        monkeypatch.setattr(SharedLLCSystem, "_bind_directory", planted)
        traces = cached_shared_mix("mix2s01_prodcons", 64, 512, 9)
        config = default_hierarchy(llc_size=128 * LINE_SIZE, llc_ways=8)
        outcomes, fallback = _shared_outcomes("rwp-core", traces, config, 64)
        assert fallback == (
            "sharer directory tracks 1 line(s) not resident in the cache"
        )
        assert_shared_identical(outcomes)
        assert outcomes[0][2][stray[0]] == stray[1]


class TestKernelSpec:
    def test_parse_and_roundtrip(self):
        spec = KernelSpec.parse("native")
        assert spec.name == "native" and spec.kwargs == ()
        assert str(spec) == "native" == spec.key()
        assert KernelSpec.coerce(spec) is spec
        assert KernelSpec.from_dict(spec.to_dict()) == spec

    def test_unknown_name_rejected(self):
        for name in ("fortran", "auto"):
            with pytest.raises(ValueError, match="unknown kernel"):
                KernelSpec.parse(name)

    def test_bad_parameter_rejected(self):
        with pytest.raises(ValueError):
            KernelSpec.parse("native:oops")
        # A kernel takes no parameters at all.
        for text in ("native:threads=2", "dict:x=1"):
            name = text.split(":")[0]
            with pytest.raises(ValueError, match=f"kernel '{name}' takes no"):
                KernelSpec.parse(text)


class TestStoreKeying:
    """The kernel is an execution choice: no key, label or sweep id."""

    def test_runjob_payload_omits_default_kernel(self):
        scale = ExperimentScale(llc_lines=256)
        native = RunJob("mcf", "lru", scale, kernel="native")
        plain = RunJob("mcf", "lru", scale, kernel="dict")
        assert "kernel" not in native.payload()
        assert native.payload() == plain.payload()
        assert native.key() == plain.key() == RunJob("mcf", "lru", scale).key()
        assert native.label == plain.label == "mcf/lru"

    def test_mixjob_payload_omits_kernel(self):
        scale = ExperimentScale(llc_lines=256)
        mix = "mix01_all_sensitive"
        native = MixJob(mix, "rwp-core", scale, kernel="native")
        plain = MixJob(mix, "rwp-core", scale, kernel="dict")
        assert "kernel" not in native.payload()
        assert native.key() == plain.key()
        assert native.label == plain.label == f"{mix}/rwp-core"

    def test_spec_label_and_key(self):
        native = SimulationSpec("mcf", "lru", kernel="native")
        plain = SimulationSpec("mcf", "lru", kernel="dict")
        assert native.kernel_key == "native"
        assert SimulationSpec("mcf", "lru").kernel_key == "native"
        assert native.label == plain.label == "llc:mcf/lru"

    def test_sweep_id_ignores_kernel(self):
        grid = dict(workloads=("mcf",), policies=("lru", "rwp"))
        native = SweepSpec(kernel="native", **grid)
        plain = SweepSpec(kernel="dict", **grid)
        assert "kernel" not in native.journal_payload()
        assert native.sweep_id() == plain.sweep_id()

    def test_system_fuzz_job_keying(self):
        from repro.verify.system import SystemFuzzJob

        base = dict(
            target="hierarchy", policy="lru", scenario="mixed",
            seed=1, geometry=0,
        )
        default = SystemFuzzJob(**base)
        kerneled = SystemFuzzJob(**base, kernel="native")
        assert "kernel" not in default.payload()
        assert kerneled.payload()["kernel"] == "native"
        assert kerneled.key() != default.key()
        assert kerneled.label.endswith("~native")


#: small enough to run in a second, unusual enough (seed) that the
#: memoized trace is this test's own.
_SMALL = ExperimentScale(
    llc_lines=256, warmup_factor=1, measure_factor=2, seed=4099
)


class TestDefaultKernel:
    """Jobs run on the native kernel unless told otherwise."""

    @needs_native
    def test_default_run_is_served_natively(self):
        simulate_cached.cache_clear()
        job = RunJob("mcf", "rwp", _SMALL)
        result = job.execute()
        info = last_kernel_info()
        assert info["backend"] == "native"
        assert "fallback" not in info
        plain = RunJob("mcf", "rwp", _SMALL, kernel="dict")
        assert job.encode(result) == plain.encode(plain.execute())
        assert last_kernel_info() is None

    @needs_native
    @pytest.mark.parametrize("policy", COMPARATOR_POLICIES)
    def test_default_comparator_run_is_served_natively(self, policy):
        simulate_cached.cache_clear()
        job = RunJob("mcf", policy, _SMALL)
        result = job.execute()
        info = last_kernel_info()
        assert info["backend"] == "native"
        assert "fallback" not in info
        plain = RunJob("mcf", policy, _SMALL, kernel="dict")
        assert job.encode(result) == plain.encode(plain.execute())

    def test_declined_dispatch_builds_no_streams(self):
        from repro.experiments.runner import cached_trace

        simulate_cached.cache_clear()
        job = RunJob("omnetpp", "srrip", _SMALL)
        job.execute()
        spec = SimulationSpec("omnetpp", "srrip", scale=_SMALL)
        trace = cached_trace(
            "omnetpp", _SMALL.llc_lines, _SMALL.total_accesses, _SMALL.seed
        )
        decoded = trace.decoded(spec.hierarchy_config().llc)
        assert decoded._np_streams is None


class TestStreamChecks:
    """Malformed streams raise before a native call, naming the array."""

    @staticmethod
    def _out_of_range_trace(config) -> DecodedTrace:
        # A hand-built decode: set index num_sets passes run_trace's
        # geometry check but has no set in the cache.
        sets = [0, 3, 1, config.num_sets, 2]
        n = len(sets)
        return DecodedTrace(
            sets, [5] * n, [False] * n, [0] * n, [1] * n,
            config.offset_bits, config.index_bits,
        )

    @needs_native
    @pytest.mark.parametrize("policy", ("lru", "rwp", "drrip", "ship"))
    def test_out_of_range_set_raises(self, policy):
        config = _config(16, 4)
        decoded = self._out_of_range_trace(config)
        cache = make_sut_cache(policy, config)
        attach_kernel(cache, "native")
        before = _full_line_state(cache)
        with pytest.raises(ValueError, match="set stream holds index 16"):
            cache.run_trace(decoded)
        # The kernel never ran.
        assert _full_line_state(cache) == before
        assert cache.tick == 0 and cache.accesses == 0
        with pytest.raises(IndexError):
            make_sut_cache(policy, config).run_trace(decoded)

    def test_check_streams_names_the_array(self):
        np = pytest.importorskip("numpy")
        from repro.kernels.soa import check_streams

        good = np.zeros(8, dtype=np.int64)
        write = np.zeros(8, dtype=np.uint8)
        check_streams(16, 0, 8, set=good, tag=good, write=write)
        cases = (
            (dict(set=good.astype(np.int32)), "set stream has dtype int32"),
            (dict(set=good, tag=np.zeros(16, np.int64)[::2]),
             "tag stream is not a C-contiguous"),
            (dict(set=good, write=write[:7]), "write stream has 7 entries"),
            (dict(set=good - 1), "set stream holds index -1"),
        )
        for streams, message in cases:
            with pytest.raises(ValueError, match=message):
                check_streams(16, 0, 8, **streams)
        with pytest.raises(ValueError, match=r"origin stream holds index 8"):
            check_streams(16, 0, 8, origin_limit=8, set=good, origin=good + 8)
        with pytest.raises(ValueError, match="access range"):
            check_streams(16, 0, 9, set=good)


def _all_line_slots(cache) -> list:
    """Every CacheLine slot plus the set fields, set by set."""
    return [
        (
            [tuple(getattr(line, name) for name in CacheLine.__slots__)
             for line in s.lines],
            sorted(s.lookup),
            s.filled,
            s.dirty_lines,
        )
        for s in cache.sets
    ]


class TestResidentImage:
    """Line state lives in the kernel image between native calls."""

    def test_fresh_image_materializes_a_fresh_cache(self):
        pytest.importorskip("numpy")
        from repro.kernels import soa

        config = _config(16, 4)
        cache = make_sut_cache("rwp", config)
        soa.scatter_lines(cache, soa.gather_lines(cache, comparator=True))
        assert "sets" not in cache.__dict__
        assert _all_line_slots(cache) == _all_line_slots(
            make_sut_cache("rwp", config)
        )
        assert "sets" in cache.__dict__ and cache._image is None

    @needs_native
    @pytest.mark.parametrize("memory", ("dram", "pcm:write_mult=10"))
    def test_hierarchy_run_builds_no_line_objects(self, memory):
        lines = 256
        config = default_hierarchy(llc_size=lines * LINE_SIZE, llc_ways=16)
        backend = None if memory == "dram" else make_backend(memory, config)
        runner = HierarchyRunner(
            config, make_llc_policy("rwp", lines), backend=backend
        )
        attach_kernel(runner.hierarchy, "native")
        runner.run(cached_trace("lbm", lines, 6144, 7), warmup=1024)
        assert runner.hierarchy.llc.kernel.fallback_reason is None
        for cache in runner.hierarchy.all_caches():
            assert "sets" not in cache.__dict__

    @needs_native
    @pytest.mark.parametrize("policy", ("lru", "rwp", "drrip"))
    @pytest.mark.parametrize(
        "corrupt,message",
        (
            (lambda image: setattr(image, "tag", image.tag[:-1]),
             "tag column has 63 entries, the cache 64"),
            (lambda image: setattr(image, "dirty_lines", image.dirty_lines[:3]),
             "dirty_lines column has 3 entries"),
            (lambda image: setattr(image, "stamp", image.stamp.astype("int32")),
             "stamp column has dtype int32"),
            (lambda image: image.filled.__setitem__(0, 5),
             r"filled column holds 5, outside \[0, 4\]"),
            (lambda image: image.valid.__setitem__(0, 0),
             "filled column disagrees with the valid column"),
        ),
        ids=("truncated", "short-set-column", "dtype", "overfull", "invalid"),
    )
    def test_corrupted_image_raises(self, policy, corrupt, message):
        config = _config(16, 4)
        trace = fuzz_trace("mixed", 31, 16, 4, 512)
        decoded = trace.decoded(config)
        cache = make_sut_cache(policy, config)
        attach_kernel(cache, "native")
        cache.run_trace(decoded, 0, 256)
        corrupt(cache._image)
        with pytest.raises(ValueError, match=message):
            cache.run_trace(decoded, 256, len(decoded))

    @needs_native
    def test_truncated_comparator_column_raises(self):
        config = _config(16, 4)
        decoded = fuzz_trace("mixed", 31, 16, 4, 512).decoded(config)
        cache = make_sut_cache("ship", config)
        attach_kernel(cache, "native")
        cache.run_trace(decoded, 0, 256)
        cache._image.signature = cache._image.signature[:10]
        with pytest.raises(ValueError, match="signature column has 10"):
            cache.run_trace(decoded, 256, len(decoded))

    def test_sanitized_build_has_its_own_key(self, monkeypatch):
        from repro.kernels import build

        monkeypatch.delenv("REPRO_KERNEL_SANITIZE", raising=False)
        default = build._build_digest(build.cflags())
        monkeypatch.setenv("REPRO_KERNEL_SANITIZE", "1")
        assert build.cflags() == build.SANITIZE_CFLAGS
        assert "-fsanitize=address,undefined" in build.cflags()
        assert build._build_digest(build.cflags()) != default


#: the PCM shapes the native walk is held to the Python walk on
PCM_WALK_GRID = tuple(
    f"pcm:line_size={line}:partitions={parts}:pause_slices={slices}"
    f":queue_entries={queue}:write_mult={mult}"
    for mult in (1, 4, 10)
    for queue in (1, 64)
    for parts in (1, 8)
    for slices in (1, 8)
    for line in (64, 128)
)

#: small enough that lbm's writebacks reach memory in a short trace
_WALK_CONFIG = small_hierarchy(((16, 2), (32, 4), (64, 8)))


def _typed(value):
    """A value with the type of every leaf: int counters must stay int."""
    if isinstance(value, dict):
        return {key: _typed(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_typed(item) for item in value]
    return (type(value).__name__, value)


def _hierarchy_result(memory: str, kernel: str):
    """(result, kernel runtime) of one timed hierarchy run of lbm."""
    backend = None
    if memory != "dram":
        backend = make_backend(memory, _WALK_CONFIG)
    runner = HierarchyRunner(
        _WALK_CONFIG, make_sut_policy("rwp"), backend=backend
    )
    attach_kernel(runner.hierarchy, kernel)
    result = runner.run(cached_trace("lbm", 256, 6144, 7), warmup=1024)
    return result, runner.hierarchy.llc.kernel


class TestTimingWalk:
    """rw_timing_walk == HierarchyRunner's Python walk, bit for bit."""

    @needs_native
    @pytest.mark.parametrize("memory", ("dram",) + PCM_WALK_GRID)
    def test_native_walk_matches_python_walk(self, memory, monkeypatch):
        native, runtime = _hierarchy_result(memory, "native")
        assert runtime.fallback_reason is None
        # The same native stage replay with the walk forced to Python,
        # and the all-dict run.
        import repro.kernels.runner as kernels_runner

        monkeypatch.setattr(
            kernels_runner._TimingWalk, "bind",
            classmethod(lambda cls, *args: "walk forced to Python"),
        )
        python, runtime = _hierarchy_result(memory, "native")
        assert runtime.fallback_reason == "walk forced to Python"
        reference, _ = _hierarchy_result(memory, "dict")
        for result in (native, python):
            assert result == reference
            assert _typed(result.to_dict()) == _typed(reference.to_dict())

    @needs_native
    def test_walk_grid_exercises_the_pcm_model(self):
        # The grid above reaches every PCM branch: pausing, read
        # queueing and a full write queue.
        totals = {
            "pcm.writes": 0,
            "pcm.pause_events": 0,
            "pcm.queue_full_stalls": 0,
        }
        for memory in PCM_WALK_GRID:
            result, _ = _hierarchy_result(memory, "native")
            for key in totals:
                totals[key] += result.extra["backend"][key]
        assert all(totals.values()), totals

    @needs_native
    @pytest.mark.parametrize(
        "memory,backend",
        (
            ("dram:banked=true", "DRAMBackend"),
            ("dram:writeback_cost=30", "DRAMBackend"),
            ("nvm", "NVMBackend"),
        ),
    )
    def test_other_backends_keep_the_python_walk(self, memory, backend):
        native, runtime = _hierarchy_result(memory, "native")
        assert runtime.fallback_reason == (
            f"the {backend} timing walk runs in Python"
        )
        reference, _ = _hierarchy_result(memory, "dict")
        assert _typed(native.to_dict()) == _typed(reference.to_dict())


class TestNumpyAbsent:
    """With numpy stubbed out everything degrades, bit-identically."""

    @pytest.fixture
    def no_numpy(self, monkeypatch):
        import repro.kernels.runner as kernels_runner
        import repro.kernels.soa as kernels_soa
        import repro.trace.decode as trace_decode

        monkeypatch.setattr(trace_decode, "np", None)
        monkeypatch.setattr(kernels_soa, "np", None)
        monkeypatch.setattr(kernels_runner, "np", None)

    def test_decode_pure_python_parity(self, no_numpy):
        trace = fuzz_trace("mixed", 2024, 16, 4, 512)
        config = _config(16, 4)
        stubbed = trace.decoded(config)
        assert stubbed.kernel_streams() is None
        assert stubbed.kernel_cycles(0.5) is None
        pure_cycles = stubbed.cycle_gaps(0.5)
        pure_cumsum = stubbed.gap_cumsum()

        # A second decode of the same records with numpy restored must
        # produce the same values (the fallback mirrors the vector
        # path's IEEE arithmetic element by element).
        fresh = Trace(
            list(trace.addresses), list(trace.is_write), list(trace.pcs)
        )
        import numpy  # noqa: F401  (restored outside the fixture scope)
        import repro.trace.decode as trace_decode

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(trace_decode, "np", numpy)
            vectored = fresh.decoded(config)
            assert vectored.cycle_gaps(0.5) == pure_cycles
            assert vectored.gap_cumsum() == pure_cumsum

    def test_kernel_layer_falls_back(self, no_numpy):
        config = _config(16, 4)
        trace = fuzz_trace("dirty_storm", 11, 16, 4, 512)
        kern = _run("rwp", trace, config, kernel="native")
        ref = _run("rwp", trace, config)
        assert_field_for_field(kern, ref)
