"""Kernel-conformance harness: SoA batch kernel vs dict driver vs scalar.

Pins the load-bearing invariant of the :mod:`repro.kernels` layer: for
every supported configuration the native SoA kernel, the dict-driven
batch drivers, and the one-access-at-a-time scalar walk produce
bit-identical statistics, final set state (line-by-line,
including stamps and read/write-seen bits), lookup tables (as key sets
-- insertion order is driver-dependent and not semantically
observable), and downstream writeback streams.  And for every
*unsupported* configuration -- a policy outside the kernel matrix, a
missing compiler, a resident block past int64 -- the kernel layer must
fall back, name why, and change nothing.

Runs under the tier-1 suite at modest Hypothesis example counts and
under the deep-conformance CI job (``REPRO_DEEP_TESTS=1``) at many
more.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

import repro.experiments  # noqa: F401  pre-imports the experiments package
# (repro.sim and repro.experiments import each other; importing the
# package first resolves the cycle the same way the CLI does)

from repro.cache.cache import SetAssociativeCache
from repro.cache.line import CacheLine
from repro.cache.policy import make_policy
from repro.common.config import CacheConfig, default_hierarchy
from repro.core.rwp import CoreAwareRWPPolicy
from repro.cpu.core import HierarchyRunner, LLCRunner
from repro.cpu.timing import TimingModel
from repro.engine.jobs import MixJob, RunJob
from repro.experiments.runner import (
    ExperimentScale,
    cached_shared_mix,
    cached_trace,
    make_llc_policy,
)
from repro.engine.sweepspec import SweepSpec
from repro.hierarchy.system import MemoryHierarchy
from repro.kernels import (
    KernelSpec,
    attach_kernel,
    native_available,
    reset_native_cache,
)
from repro.kernels.build import LaneCtx
from repro.kernels.runner import (
    _comparator_kind,
    _fill_lane_timing,
    _flush_lane_timing,
    _gather_comparator,
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
from repro.trace.spec import make_model
from repro.verify.differ import (
    COMPARED_STATS,
    VERIFY_RWP_EPOCH,
    make_sut_cache,
    make_sut_policy,
)
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


def _wide_records(num_sets: int, length: int = 1024) -> list:
    """``(set, tag, write, pc)`` records with tags within 11 of the widest
    int64 tag, every third access a write."""
    return [
        (i % num_sets, MAX_TAG - (7 * i) % 11, i % 3 == 0, 4 * (i % 97))
        for i in range(length)
    ]


def _wide_fill(target, records, config) -> None:
    """Replay ``records`` through scalar ``access()`` on a cache or a
    hierarchy: their byte addresses are past int64, so no trace can
    hold them, but resident state can."""
    shift = config.offset_bits + config.index_bits
    for si, tag, w, pc in records:
        target.access((tag << shift) | (si << config.offset_bits), w, pc)


def _wide_decode(records, config) -> DecodedTrace:
    """``records`` as a hand-built decode: the tags fit its int64 streams."""
    sets, tags, writes, pcs = (list(column) for column in zip(*records))
    return DecodedTrace(
        sets, tags, writes, pcs, [1] * len(records),
        config.offset_bits, config.index_bits,
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


#: a fuzz-scale stack whose LLC the 16-set fuzz traces overflow
_STACK = small_hierarchy(((8, 2), (16, 2), (16, 4)))


def _stack_state(hierarchy) -> list:
    """Every level's statistics, lines, lookup keys, set counters, clock,
    policy and tick, plus the hierarchy's and memory's counters."""
    return [
        (_stats(cache), _full_line_state(cache), _lookup_keysets(cache),
         _set_invariants(cache), _clock(cache), _policy_state(cache),
         cache.tick)
        for cache in hierarchy.all_caches()
    ] + [hierarchy.snapshot()]


def _resident(caches) -> bool:
    """True when every cache's lines are still in the kernel's arrays."""
    return not any("sets" in cache.__dict__ for cache in caches)


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
        # Scalar access() fills the cache at tags near 2^63; the kernel
        # then gathers, hits, evicts and writes back those lines from a
        # decode whose tag stream holds the same widths.
        config = _config(4, 4)
        records = _wide_records(4)
        caches = []
        for side in ("native", "dict", "scalar"):
            cache = make_sut_cache(policy, config)
            _wide_fill(cache, records[:512], config)
            if side == "scalar":
                _wide_fill(cache, records[512:], config)
            else:
                attach_kernel(cache, side)
                cache.run_trace(_wide_decode(records[512:], config))
            caches.append(cache)
        assert caches[0].kernel.fallback_reason is None
        assert_field_for_field(*caches)

    @needs_native
    @pytest.mark.parametrize("policy", SINGLE_POLICIES)
    def test_max_width_tags_timed(self, policy):
        # A dirty line's block address is past int64 at these tags;
        # the timed replay must still count and time its writeback.
        num_sets, ways = 4, 4
        config = default_hierarchy(
            llc_size=num_sets * ways * LINE_SIZE, llc_ways=ways
        )
        trace = fuzz_trace("dirty_storm", 1203, num_sets, ways, 1024)
        results = []
        for kernel in ("native", "dict", "scalar"):
            runner = LLCRunner(config, make_sut_policy(policy))
            _wide_fill(runner.llc, _wide_records(num_sets, 64), config.llc)
            if kernel == "scalar":
                results.append(runner._run_scalar(trace, 0))
                continue
            attach_kernel(runner.llc, kernel)
            results.append(runner.run(trace, warmup=0))
            if kernel == "native":
                assert runner.llc.kernel.fallback_reason is None
        kern, ref, scalar = results
        assert kern == ref == scalar
        assert ref.extra["writebuffer"]["writebuffer.writes"] > 0

    @needs_native
    @pytest.mark.parametrize("policy", ("lru", "rwp"))
    def test_max_width_tags_collect(self, policy):
        # A filter stage or an attributed LLC replay emits block
        # addresses; past int64 they decline, naming the overflow.
        num_sets, ways = 4, 4
        config = small_hierarchy(((4, 2), (8, 2), (num_sets, ways)))
        trace = fuzz_trace("dirty_storm", 1207, num_sets, ways, 1024)
        results = []
        for kernel in ("native", "dict"):
            runner = HierarchyRunner(config, make_policy(policy))
            _wide_fill(runner.hierarchy, _wide_records(num_sets, 64), config.llc)
            attach_kernel(runner.hierarchy, kernel)
            results.append(runner.run(trace, warmup=0))
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
        # The same ownership hand-offs through the hierarchy's stage
        # replay, whose dict filters also trust the lookup dicts'
        # recency order.
        trace = fuzz_trace("conflict", 17, 16, 4, 1600)
        outputs = []
        for kernel in ("native", "dict"):
            stack = MemoryHierarchy(_STACK, make_sut_policy("lru"))

            def replay(start, stop):
                return stack.run_trace(
                    trace, start=start, stop=stop, collect=True
                )

            served = [replay(0, 200)]
            attach_kernel(stack, kernel)
            served.append(replay(200, 500))
            if kernel == "native":
                assert _resident(stack.all_caches())
            for i in range(500, 800):
                stack.access(
                    trace.addresses[i], trace.is_write[i], trace.pcs[i]
                )
            served.append(replay(800, 1200))
            if kernel == "native":
                assert _resident(stack.all_caches())
                assert stack.llc.kernel.fallback_reason is None
            attach_kernel(stack, "dict")
            served.append(replay(1200, len(trace)))
            outputs.append((served, _stack_state(stack)))
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
        # demand access; the stage replay names itself when it declines
        # the LLC (and still filters L1 and L2).
        simulate_cached.cache_clear()
        spec = SimulationSpec(
            "mcf", policy, mode="hierarchy", scale=_SMALL, kernel="native"
        )
        result = simulate(spec)
        name = type(make_policy(policy)).__name__
        assert last_kernel_info()["fallback"] == (
            f"{name} runs natively only through run_trace: the hierarchy "
            "stage replay carries no PC stream or bypass attribution"
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

    def test_forced_fallback_hierarchy(self, monkeypatch):
        # The stage replay names a missing library itself, so a run
        # with no warmup window still says why the dict filters ran.
        monkeypatch.setenv("REPRO_NO_NATIVE", "1")
        reset_native_cache()
        try:
            trace = fuzz_trace("mixed", 6, 16, 4, 1024)
            results = []
            for kernel in ("native", "dict"):
                runner = HierarchyRunner(_STACK, make_sut_policy("rwp"))
                attach_kernel(runner.hierarchy, kernel)
                results.append(runner.run(trace, warmup=0))
                if kernel == "native":
                    assert runner.hierarchy.llc.kernel.fallback_reason == (
                        "no native kernel library available"
                    )
            assert results[0] == results[1]
        finally:
            monkeypatch.delenv("REPRO_NO_NATIVE")
            reset_native_cache()

    def _scalar_llc_runner(self, memory=None, prefetcher=None) -> LLCRunner:
        # LLCRunner runs a memory backend or a prefetcher in its scalar
        # loop and never offers the kernel the run.
        config = default_hierarchy(llc_size=64 * LINE_SIZE, llc_ways=4)
        backend = None if memory is None else make_backend(memory, config)
        runner = LLCRunner(config, make_policy("rwp"), prefetcher, backend)
        attach_kernel(runner.llc, "native")
        runner.run(fuzz_trace("mixed", 7, 16, 4, 512))
        return runner

    def test_scalar_llc_runner_names_backend(self):
        runner = self._scalar_llc_runner(memory="pcm:write_mult=10")
        assert runner.llc.kernel.fallback_reason == (
            "memory timing backend is active"
        )

    def test_scalar_llc_runner_names_prefetcher(self):
        from repro.hierarchy.prefetch import NextLinePrefetcher

        runner = self._scalar_llc_runner(prefetcher=NextLinePrefetcher())
        assert runner.llc.kernel.fallback_reason == "a prefetcher is active"

    def test_attach_dict_detaches(self):
        config = _config(16, 4)
        cache = make_sut_cache("lru", config)
        attach_kernel(cache, "native")
        attach_kernel(cache, "dict")
        assert cache.kernel is None


class TestFilterStream:
    """The stage replay's C filters emit the dict filters' op stream."""

    @needs_native
    def test_filter_streams_identical(self, monkeypatch):
        # An SRRIP LLC, which the stage replay declines, so both drivers
        # hand the L2's downstream op stream to the Python LLC stage.
        handed = []
        llc_stage = MemoryHierarchy._llc_stage

        def recording(self, decoded, l1_hits, l2_hits, blocks, write,
                      origins, levels, core):
            handed.append(
                (l1_hits, l2_hits, blocks, write, origins,
                 None if levels is None else list(levels))
            )
            return llc_stage(self, decoded, l1_hits, l2_hits, blocks,
                             write, origins, levels, core)

        monkeypatch.setattr(MemoryHierarchy, "_llc_stage", recording)
        trace = fuzz_trace("conflict", 17, 16, 4, 1024)
        outputs = []
        for kernel in ("native", "dict"):
            handed.clear()
            stack = MemoryHierarchy(_STACK, make_policy("srrip"))
            attach_kernel(stack, kernel)
            served = [
                stack.run_trace(trace, stop=512),
                stack.run_trace(trace, start=512, collect=True),
            ]
            if kernel == "native":
                assert _resident(stack.l1s + stack.l2s)
            outputs.append((served, list(handed), _stack_state(stack)))
        assert outputs[0] == outputs[1]
        for _, _, blocks, write, origins, _ in outputs[0][1]:
            assert blocks and _python_values(blocks, int)
            assert _python_values(write, bool) and any(write)
            assert _python_values(origins, int)


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
        assert diff_hierarchy(policy, trace, config) is None

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
            diff_multicore(policy, traces, config, num_cores, warmup=128)
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
    """(kernel, scalar) outcomes of the same shared run(s).

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
    for driver in ("kernel", "scalar"):
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
    kern, scalar = outcomes
    assert kern[0][-1].shared is not None
    for field, (g, w) in enumerate(zip(kern, scalar)):
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
        assert fallback == "rwp-core blend arbitration has no kernel counterpart"
        assert_shared_identical(outcomes)

    @needs_native
    def test_stray_directory_entry_declines(self, monkeypatch):
        # An entry for a line the LLC does not hold has no column to
        # live in: the kernel must decline, naming why, and leave the
        # system to the scalar walk.
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

    @needs_native
    def test_only_dict_replays_build_lists(self, monkeypatch):
        # Arrays are a trace's only representation up to the kernel; a
        # list is built only when a Python replay path reads it.
        views = []
        offset = DecodedTrace.with_core_offset

        def recording(self, *args):
            views.append(offset(self, *args))
            return views[-1]

        monkeypatch.setattr(DecodedTrace, "with_core_offset", recording)
        lines = 256
        config = default_hierarchy(llc_size=lines * LINE_SIZE, llc_ways=16)
        traces = [
            make_model(name, lines).generate(3072, seed=4099)
            for name in ("mcf", "lbm", "soplex", "omnetpp")
        ]
        llc_runner = LLCRunner(config, make_llc_policy("rwp", lines))
        attach_kernel(llc_runner.llc, "native")
        llc_runner.run(traces[0], warmup=1024)
        pcm = HierarchyRunner(
            config,
            make_llc_policy("rwp", lines),
            backend=make_backend("pcm:write_mult=10", config),
        )
        attach_kernel(pcm.hierarchy, "native")
        pcm.run(traces[1], warmup=1024)
        shared_config = default_hierarchy(
            llc_size=4 * lines * LINE_SIZE, llc_ways=16
        )
        system = SharedLLCSystem(
            shared_config, 4, make_llc_policy("rwp-core", 4 * lines, 4)
        )
        attach_kernel(system, "native")
        system.run(traces, warmup=512)
        for runtime in (llc_runner.llc, pcm.hierarchy.llc, system.llc):
            assert runtime.kernel.fallback_reason is None
        assert len(views) == 4 and len(set(map(id, views))) == 4
        for trace in traces:
            assert _built_lists(trace, views) == []

        # A declined dispatch builds lists on the decode it replays, and
        # nowhere else.
        fresh = make_model("omnetpp", lines).generate(3072, seed=4099)
        srrip = LLCRunner(config, make_llc_policy("srrip", lines))
        attach_kernel(srrip.llc, "native")
        srrip.run(fresh, warmup=1024)
        assert srrip.llc.kernel.fallback_reason is not None
        decoded = fresh.decoded(config.llc)
        assert _built_lists(fresh) == [
            (decoded.name, "DecodedTrace", column) for column in (0, 1, 2)
        ]


def _built_lists(trace, views=()) -> list:
    """``(name, holder type, column)`` of every list built on ``trace``,
    its cached decodes and ``views``."""
    holders = [trace, *trace._decoded.values(), *views]
    return [
        (holder.name, type(holder).__name__, column)
        for holder in holders
        for column, values in enumerate(holder._lists)
        if values is not None
    ]


def _python_values(values: list, kind: type) -> bool:
    return all(type(value) is kind for value in values)


class TestArrayResidentTraces:
    """Array-built traces and decodes: lists on demand, equal and typed."""

    @staticmethod
    def _generated(seed: int = 31) -> Trace:
        return make_model("soplex", 256).generate(2048, seed=seed)

    def test_lists_equal_arrays_and_hold_python_values(self):
        trace = self._generated()
        arrays = trace.arrays()
        assert _built_lists(trace) == []
        columns = (trace.addresses, trace.is_write, trace.pcs, trace.instr_gaps)
        for values, array in zip(columns, arrays):
            assert values == array.tolist()
        assert _python_values(trace.addresses, int)
        assert _python_values(trace.is_write, bool)
        assert _python_values(trace.pcs, int)
        assert _python_values(trace.instr_gaps, int)
        assert any(trace.is_write) and not all(trace.is_write)

        config = _config(64, 4)
        decoded = trace.decoded(config)
        mask = config.num_sets - 1
        tag_shift = config.offset_bits + config.index_bits
        assert decoded.set_indices == [
            (a >> config.offset_bits) & mask for a in trace.addresses
        ]
        assert decoded.tags == [a >> tag_shift for a in trace.addresses]
        assert decoded.is_write == trace.is_write
        assert decoded.pcs == trace.pcs
        assert decoded.instr_gaps == trace.instr_gaps
        assert _python_values(decoded.set_indices, int)
        assert _python_values(decoded.tags, int)
        assert _python_values(decoded.is_write, bool)
        assert _python_values(decoded.pcs, int)
        assert _python_values(decoded.instr_gaps, int)
        total = decoded.gap_total(0, len(decoded))
        assert type(total) is int and total == sum(trace.instr_gaps)
        assert _python_values(decoded.cycle_gaps(0.5), float)

    def test_view_shares_base_streams(self):
        from repro.multicore.shared import CORE_ADDRESS_STRIDE, CORE_PC_STRIDE

        config = _config(64, 4)
        base = self._generated().decoded(config)
        cycles = base.kernel_cycles(0.5)
        view = base.with_core_offset(3, CORE_ADDRESS_STRIDE, CORE_PC_STRIDE)
        sets, tags, writes, gaps = base.kernel_streams()
        view_sets, view_tags, view_writes, view_gaps = view.kernel_streams()
        assert view_sets is sets and view_writes is writes and view_gaps is gaps
        assert view._np_cycles is base._np_cycles
        assert view.kernel_cycles(0.5) is cycles
        tag_offset = 3 * (CORE_ADDRESS_STRIDE >> (6 + config.index_bits))
        assert view.tags == [tag + tag_offset for tag in base.tags]
        assert view.pcs == [pc + 3 * CORE_PC_STRIDE for pc in base.pcs]
        assert _python_values(view.tags, int)
        assert base.with_core_offset(0, CORE_ADDRESS_STRIDE, 0) is base
        for array in (view_tags, view.kernel_pcs(), cycles, sets):
            assert not array.flags.writeable

    def test_view_past_the_offset_guard_raises(self):
        # PCs near the int64 ceiling: the per-core PC offset could wrap,
        # so the view refuses, naming the stream.
        from repro.multicore.shared import CORE_ADDRESS_STRIDE, CORE_PC_STRIDE

        trace = Trace([64, 128], [False, True], [0, (1 << 63) - 1])
        base = trace.decoded(_config(4, 4))
        assert base.with_core_offset(1, CORE_ADDRESS_STRIDE, 0).tags == [
            tag + (CORE_ADDRESS_STRIDE >> 8) for tag in base.tags
        ]
        with pytest.raises(ValueError, match="per-core PC offset of 0x40000000"):
            base.with_core_offset(1, CORE_ADDRESS_STRIDE, CORE_PC_STRIDE)

    @pytest.mark.parametrize("kernel", (None, "native"))
    def test_from_arrays_normalizes_any_layout(self, kernel):
        np = pytest.importorskip("numpy")
        rng = np.random.default_rng(5)
        n = 1536
        wide = np.zeros((n, 2), dtype=np.int64)
        wide[:, 0] = rng.integers(0, 4096, size=n) * LINE_SIZE
        writes = rng.random(n) < 0.3
        pcs = (rng.integers(0, 64, size=n) * 4).astype(np.uint32)
        gaps = rng.integers(1, 9, size=n).astype(np.int32)
        strided = wide[:, 0]
        assert not strided.flags.c_contiguous
        built = Trace.from_arrays(strided, writes, pcs, gaps)
        listed = Trace(
            strided.tolist(), writes.tolist(), pcs.tolist(), gaps.tolist()
        )
        addresses, is_write, pc_array, gap_array = built.arrays()
        assert (addresses.dtype, is_write.dtype) == (np.int64, np.uint8)
        assert (pc_array.dtype, gap_array.dtype) == (np.int64, np.int64)
        assert all(a.flags.c_contiguous for a in built.arrays())
        assert list(built) == list(listed)
        config = _config(64, 4)
        for policy in ("rwp", "ship", "srrip"):
            assert_field_for_field(
                _run(policy, built, config, kernel=kernel),
                _run(policy, listed, config, kernel=kernel),
            )

    def test_pickle_is_the_list_five_tuple(self):
        import pickle

        trace = self._generated()
        state = trace.__getstate__()
        assert len(state) == 5 and state[4] == trace.name
        assert all(type(column) is list for column in state[:4])
        copy = pickle.loads(pickle.dumps(trace))
        assert list(copy) == list(trace) and copy.name == trace.name
        assert copy.address_space == "private"
        assert [a.tolist() for a in copy.arrays()] == [
            a.tolist() for a in trace.arrays()
        ]

    def test_save_npz_builds_no_lists(self, tmp_path):
        import numpy as np

        from repro.trace.ingest import load_npz, save_npz

        trace = self._generated()
        save_npz(trace, tmp_path / "t.npz")
        assert _built_lists(trace) == []
        # The archive holds what converting the list columns gives.
        expected = {
            "addresses": np.asarray(trace.addresses, dtype=np.int64),
            "is_write": np.asarray(trace.is_write, dtype=bool),
            "pcs": np.asarray(trace.pcs, dtype=np.int64),
            "instr_gaps": np.asarray(trace.instr_gaps, dtype=np.int64),
            "name": np.array(trace.name),
            "address_space": np.array(trace.address_space),
        }
        with np.load(tmp_path / "t.npz") as saved:
            assert sorted(saved.files) == sorted(expected)
            for name, want in expected.items():
                assert saved[name].dtype == want.dtype
                assert np.array_equal(saved[name], want)
        loaded = load_npz(tmp_path / "t.npz")
        assert [a.dtype for a in loaded.arrays()] == [
            a.dtype for a in trace.arrays()
        ]
        assert list(loaded) == list(trace) and loaded.name == trace.name

    def test_phased_trace_is_array_resident(self):
        from repro.trace.generator import MixtureGenerator
        from repro.trace.phases import PHASE_ADDRESS_STRIDE, PhasedWorkload

        workload = PhasedWorkload.of(
            (make_model("micro_dead_writes", 256), 700),
            (make_model("micro_rmw", 256), 500),
            (make_model("mcf", 256), 300),
        )
        trace = workload.generate(seed=9)
        assert trace._arrays is not None and _built_lists(trace) == []
        # The list construction phase by phase.
        columns = ([], [], [], [])
        for index, phase in enumerate(workload.phases):
            segment = MixtureGenerator(phase.model, seed=9 + index).generate(
                phase.accesses
            )
            columns[0].extend(
                a + index * PHASE_ADDRESS_STRIDE for a in segment.addresses
            )
            columns[1].extend(segment.is_write)
            columns[2].extend(p + index * (1 << 24) for p in segment.pcs)
            columns[3].extend(segment.instr_gaps)
        assert [trace.addresses, trace.is_write, trace.pcs,
                trace.instr_gaps] == list(columns)
        assert _python_values(trace.is_write, bool)

    def test_slice_stays_array_resident(self):
        trace = self._generated()
        part = trace.slice(100, 400)
        assert len(part) == 300 and _built_lists(part) == []
        assert list(part) == list(trace)[100:400]


#: the top of the accepted range
_TOP_ADDRESS = (1 << 63) - LINE_SIZE
_TOP_PC = (1 << 63) - 1


def _top_trace(num_sets: int, ways: int, seed: int) -> Trace:
    """A fuzz trace moved to the top of the range a trace accepts:
    addresses up to 2^63 - 64, PCs up to 2^63 - 1."""
    base = fuzz_trace("mixed", seed, num_sets, ways, 1024)
    low_address = min(base.addresses)
    low_pc = min(base.pcs)
    return Trace(
        [_TOP_ADDRESS - (address - low_address) for address in base.addresses],
        base.is_write,
        [_TOP_PC - (pc - low_pc) for pc in base.pcs],
        base.instr_gaps,
        name=f"top-{seed}",
    )


class TestTraceDoor:
    """Both Trace constructors check every column once, at construction,
    and every trace they accept replays equal on every driver."""

    #: case -> (column, values, how the refusal names them)
    REFUSED = {
        "negative-address": ("addresses", [64, -64], "addresses[1] = -64 "),
        "address-2**63": ("addresses", [64, 1 << 63], f"addresses[1] = {1 << 63} "),
        "uint64-address": (
            "addresses",
            np.array([64, (1 << 63) + 64], dtype=np.uint64),
            f"addresses[1] = {(1 << 63) + 64} ",
        ),
        "float-address": ("addresses", np.array([64.0, 128.0]), "addresses[0] = 64.0 "),
        "pc-2**63": ("pcs", [0, 1 << 63], f"pcs[1] = {1 << 63} "),
        "gap-2**63": ("instr_gaps", [1, 1 << 63], f"instr_gaps[1] = {1 << 63} "),
    }

    @pytest.mark.parametrize("build", ("Trace", "from_arrays"))
    @pytest.mark.parametrize("case", list(REFUSED))
    def test_refuses_values_a_trace_cannot_hold(self, case, build):
        column, values, named = self.REFUSED[case]
        columns = {
            "addresses": [64, 128],
            "is_write": [False, True],
            "pcs": [0, 4],
            "instr_gaps": [1, 1],
            column: values,
        }
        if build == "Trace":
            construct = Trace
        else:
            construct = Trace.from_arrays
            # uint64 holds 2^63; numpy would make a float column of it
            columns = {
                name: np.asarray(v, np.uint64 if max(v) >= 1 << 63 else None)
                for name, v in columns.items()
            }
        with pytest.raises(
            ValueError, match=re.escape(named + "is not an integer in [0, 2**63)")
        ):
            construct(**columns)

    def test_top_of_the_range_decodes_exactly(self):
        trace = _top_trace(16, 4, 3)
        config = _config(16, 4)
        decoded = trace.decoded(config)
        assert max(trace.addresses) == _TOP_ADDRESS
        assert max(trace.pcs) == _TOP_PC
        assert decoded.tags == [a >> 10 for a in trace.addresses]
        assert decoded.set_indices == [(a >> 6) & 15 for a in trace.addresses]
        assert decoded.kernel_pcs().tolist() == trace.pcs

    @needs_native
    @pytest.mark.parametrize("policy", ("rwp", "ship"))
    def test_top_of_the_range_llc_runner(self, policy):
        config = default_hierarchy(llc_size=64 * LINE_SIZE, llc_ways=4)
        trace = _top_trace(16, 4, 5)
        results = []
        for side in ("native", "dict", "scalar"):
            runner = LLCRunner(config, make_sut_policy(policy))
            if side == "scalar":
                results.append(runner._run_scalar(trace, 128))
                continue
            attach_kernel(runner.llc, side)
            results.append(runner.run(trace, warmup=128))
            if side == "native":
                assert runner.llc.kernel.fallback_reason is None
        assert results[0] == results[1] == results[2]

    @needs_native
    def test_top_of_the_range_hierarchy_runner(self, monkeypatch):
        config = small_hierarchy(((4, 2), (8, 2), (16, 4)))
        trace = _top_trace(16, 4, 7)

        def run(kernel):
            runner = HierarchyRunner(config, make_sut_policy("rwp"))
            attach_kernel(runner.hierarchy, kernel)
            return runner.run(trace, warmup=128), runner.hierarchy.llc.kernel

        native, runtime = run("native")
        assert runtime.fallback_reason is None
        reference, _ = run("dict")
        monkeypatch.setattr(MemoryHierarchy, "_batch_supported", lambda *_: False)
        scalar, _ = run("dict")
        assert native == reference == scalar

    @needs_native
    def test_top_of_the_range_shared_system(self):
        # Core 1's PCs plus its PC stride pass the per-core view guard:
        # run() records why and replays the scalar interleave.
        traces = [_top_trace(16, 4, 11 + core) for core in range(2)]
        config = default_hierarchy(llc_size=64 * LINE_SIZE, llc_ways=4)
        results = []
        for side in ("native", "dict", "scalar"):
            system = SharedLLCSystem(config, 2, make_llc_policy("rwp-core", 64, 2))
            if side == "scalar":
                results.append(system.run_scalar(traces, warmup=64))
                continue
            attach_kernel(system, side)
            results.append(system.run(traces, warmup=64))
            if side == "native":
                assert system.llc.kernel.fallback_reason == (
                    "a per-core PC offset of 0x40000000 would carry the PC "
                    "stream past the int64 guard (2**62)"
                )
        assert results[0] == results[1] == results[2]


class TestInstructionOverflow:
    """Retired instructions past int64 stay exact on every path."""

    #: two gaps of 2^62: each fits int64, their sum does not
    GAPS = [1 << 62, 1 << 62]

    CONFIG = default_hierarchy(llc_size=64 * LINE_SIZE, llc_ways=4)

    def _trace(self) -> Trace:
        return Trace([64, 128], [False, True], instr_gaps=self.GAPS)

    def test_gap_total_is_exact(self):
        decoded = self._trace().decoded(self.CONFIG.llc)
        assert decoded.gap_total(0, 2) == 1 << 63
        assert decoded.gap_total(1, 2) == 1 << 62
        assert decoded.gap_total(1, 1) == 0

    @needs_native
    def test_llc_runner(self):
        for side in ("dict", "native", "scalar"):
            runner = LLCRunner(self.CONFIG, make_policy("lru"))
            if side == "scalar":
                result = runner._run_scalar(self._trace(), 0)
            else:
                attach_kernel(runner.llc, side)
                result = runner.run(self._trace())
            assert result.instructions == 1 << 63, side
            if side == "native":
                # The lane counts in 128 bits, so the kernel serves it.
                assert runner.llc.kernel.fallback_reason is None

    @needs_native
    @pytest.mark.parametrize("memory", (None, "pcm:write_mult=4"))
    def test_hierarchy_runner(self, memory, monkeypatch):
        def run(kernel):
            backend = None if memory is None else make_backend(memory, self.CONFIG)
            runner = HierarchyRunner(self.CONFIG, make_policy("lru"), backend)
            attach_kernel(runner.hierarchy, kernel)
            return runner.run(self._trace()), runner.hierarchy.llc.kernel

        native, runtime = run("native")
        assert runtime.fallback_reason is None
        reference, _ = run("dict")
        monkeypatch.setattr(MemoryHierarchy, "_batch_supported", lambda *_: False)
        scalar, _ = run("dict")
        for result in (native, reference, scalar):
            assert result.instructions == 1 << 63
        assert native == reference == scalar

    def _timing(self, count: int) -> TimingModel:
        config = self.CONFIG
        timing = TimingModel(config.core, config.memory, config.llc.hit_latency)
        timing.instructions = count
        return timing

    @pytest.mark.parametrize(
        "count", (0, -1, 1 << 63, -(1 << 63) - 1, (1 << 127) - 1, -(1 << 127))
    )
    def test_lane_count_round_trips(self, count):
        # A lane holds the count as a low and a high word.
        timing = self._timing(count)
        lane = LaneCtx()
        ring = _fill_lane_timing(lane, timing, np.zeros(1))
        timing.instructions = None
        _flush_lane_timing(timing, lane, ring)
        assert timing.instructions == count

    @pytest.mark.parametrize("count", (1 << 127, -(1 << 127) - 1))
    def test_lane_count_range_checked(self, count):
        # ctypes would wrap a too-wide count silently.
        with pytest.raises(OverflowError):
            _fill_lane_timing(LaneCtx(), self._timing(count), np.zeros(1))


#: 128 sets give DIP/DRRIP follower sets; the trace spans six RWP epochs
_WARM_CONFIG = default_hierarchy(llc_size=512 * LINE_SIZE, llc_ways=4)
_WARM_TRACE = make_model("mcf", 512).generate(3072, seed=4099)


def _warm_runner(policy: str, kernel=None) -> LLCRunner:
    runner = LLCRunner(_WARM_CONFIG, make_sut_policy(policy))
    if kernel is not None:
        attach_kernel(runner.llc, kernel)
    return runner


class TestWarmupWindow:
    """``run_trace(warmup=)``: LLCRunner's warmup and measured window in
    one call, one binding on the kernel."""

    @needs_native
    @pytest.mark.parametrize("policy", SINGLE_POLICIES)
    @pytest.mark.parametrize(
        "warmup",
        (0, 1, VERIFY_RWP_EPOCH - 1, VERIFY_RWP_EPOCH, VERIFY_RWP_EPOCH + 1,
         len(_WARM_TRACE) - 1),
    )
    def test_one_call_matches_dict_split_and_scalar(self, policy, warmup):
        native = _warm_runner(policy, "native")
        split = _warm_runner(policy)
        scalar = _warm_runner(policy)
        results = [
            native.run(_WARM_TRACE, warmup),
            split.run(_WARM_TRACE, warmup),
            scalar._run_scalar(_WARM_TRACE, warmup),
        ]
        assert native.llc.kernel.fallback_reason is None
        # cycles, instructions, statistics, extra["writebuffer"] and
        # extra["policy_state"] are RunResult fields
        assert results[0] == results[1] == results[2]
        llcs = [runner.llc for runner in (native, split, scalar)]
        assert _stats(llcs[0]) == _stats(llcs[1]) == _stats(llcs[2])
        assert (
            _policy_state(llcs[0]) == _policy_state(llcs[1])
            == _policy_state(llcs[2])
        )
        assert llcs[0].tick == llcs[1].tick == len(_WARM_TRACE)

    @needs_native
    def test_kernel_binds_once_per_run(self, monkeypatch):
        from repro.kernels import runner as kernel_runner

        binds = []
        bind_cache = kernel_runner.bind_cache

        def counting(cache, *args):
            binds.append(cache)
            return bind_cache(cache, *args)

        monkeypatch.setattr(kernel_runner, "bind_cache", counting)
        runner = _warm_runner("ship", "native")
        runner.run(_WARM_TRACE, 1024)
        assert binds == [runner.llc]

    @needs_native
    @pytest.mark.parametrize("kernel", ("dict", "native"))
    @pytest.mark.parametrize("warmup", (9, 101))
    def test_warmup_outside_the_range_raises(self, kernel, warmup):
        cache = make_sut_cache("lru", _WARM_CONFIG.llc)
        attach_kernel(cache, kernel)
        decoded = _WARM_TRACE.decoded(_WARM_CONFIG.llc)
        with pytest.raises(ValueError, match=f"warmup {warmup} outside"):
            cache.run_trace(decoded, 10, 100, warmup=warmup)
        assert cache.tick == 0

    @needs_native
    @pytest.mark.parametrize("kernel", ("dict", "native"))
    def test_epoch_exception_before_warmup_propagates_unreset(self, kernel):
        # The first epoch fires 512 accesses in, before the warmup
        # boundary: the exception leaves what the same call without a
        # warmup leaves -- nothing zeroed.
        config = _WARM_CONFIG
        decoded = _WARM_TRACE.decoded(config.llc)

        def boom():
            raise RuntimeError("boom")

        outcomes = []
        for warmup in (None, 2 * VERIFY_RWP_EPOCH):
            cache = make_sut_cache("rwp", config.llc)
            attach_kernel(cache, kernel)
            timing = TimingModel(
                config.core, config.memory, config.llc.hit_latency
            )
            cache.run_trace(decoded, 0, 100, timing=timing)
            cache.policy._repartition = boom
            with pytest.raises(RuntimeError, match="boom"):
                cache.run_trace(decoded, 100, timing=timing, warmup=warmup)
            if kernel == "native":
                assert cache.kernel.fallback_reason is None
            assert cache.read_hits + cache.read_misses > 0
            assert timing.instructions > 0
            outcomes.append((
                _stats(cache), timing.cycles, timing.instructions,
                timing.write_buffer.snapshot(),
            ))
        assert outcomes[0] == outcomes[1]


    @needs_native
    @pytest.mark.parametrize("timed", (False, True), ids=("untimed", "timed"))
    @pytest.mark.parametrize("warmup", (None, 700), ids=("whole", "warmup"))
    @pytest.mark.parametrize("raising", (1, 3), ids=("first", "third"))
    def test_epoch_exception_leaves_what_scalar_leaves(
        self, raising, warmup, timed
    ):
        # The epoch hook raises at the given epoch: every driver leaves
        # the access it raised in counted in tick, its gap and its
        # cycles, and nowhere in the statistics.
        config = _WARM_CONFIG
        decoded = _WARM_TRACE.decoded(config.llc)
        outcomes = []
        for side in ("native", "dict", "scalar"):
            runner = _warm_runner("rwp", None if side == "scalar" else side)
            llc = runner.llc
            calls = []

            def repartition():
                calls.append(None)
                if len(calls) == raising:
                    raise RuntimeError("boom")

            llc.policy._repartition = repartition
            with pytest.raises(RuntimeError, match="boom"):
                if side == "native" or side == "dict":
                    llc.run_trace(
                        decoded, timing=runner.timing if timed else None,
                        warmup=warmup,
                    )
                elif timed:
                    runner._run_scalar(_WARM_TRACE, warmup or 0)
                else:
                    for position, (address, w, pc, _) in enumerate(_WARM_TRACE):
                        if position == warmup:
                            llc.reset_stats()
                        llc.access(address, w, pc)
            if side == "native":
                assert llc.kernel.fallback_reason is None
            timing = runner.timing
            outcomes.append((
                _stats(llc), llc.tick, llc._epoch_left, _clock(llc),
                _full_line_state(llc),
                (timing.cycles, timing.instructions, timing.read_stall_cycles,
                 timing.write_stall_cycles, timing.write_buffer.snapshot()),
            ))
        assert outcomes[0] == outcomes[1] == outcomes[2]
        stats, tick = outcomes[1][:2]
        assert tick == raising * VERIFY_RWP_EPOCH
        counted = stats["read_hits"] + stats["read_misses"] + stats[
            "write_hits"] + stats["write_misses"]
        assert counted == tick - 1 - (0 if warmup is None or tick < warmup else warmup)

    #: (policy, hook) pairs whose dict plan calls a hook after the
    #: access's hit/miss counter moved
    POST_COUNT_HOOKS = (
        ("lru", "_victim"),
        ("srrip", "_on_hit"),
        ("srrip", "_on_fill"),
        ("rrp", "_should_bypass"),
        ("ship", "_on_evict"),
        ("lru", "eviction_listener"),
    )

    @pytest.mark.parametrize("timed", (False, True), ids=("untimed", "timed"))
    @pytest.mark.parametrize("warmup", (None, 700), ids=("whole", "warmup"))
    @pytest.mark.parametrize("raising", (5, 400))
    @pytest.mark.parametrize(
        "policy,hook", POST_COUNT_HOOKS,
        ids=[f"{p}-{h.lstrip('_')}" for p, h in POST_COUNT_HOOKS],
    )
    def test_post_count_hook_exception_leaves_what_scalar_leaves(
        self, policy, hook, raising, warmup, timed
    ):
        # The hook raises at its given call, after the access it raised
        # in was counted: the dict loop leaves that access counted in
        # tick, its gap, its cycles and the statistics, as access() does.
        config = _WARM_CONFIG
        decoded = _WARM_TRACE.decoded(config.llc)
        outcomes = []
        for side in ("dict", "scalar"):
            runner = _warm_runner(policy)
            llc = runner.llc
            real = getattr(llc, hook)
            calls = []

            def hooked(*args, real=real, calls=calls):
                calls.append(None)
                if len(calls) == raising:
                    raise RuntimeError("boom")
                return None if real is None else real(*args)

            setattr(llc, hook, hooked)
            with pytest.raises(RuntimeError, match="boom"):
                if side == "dict":
                    llc.run_trace(
                        decoded, timing=runner.timing if timed else None,
                        warmup=warmup,
                    )
                elif timed:
                    runner._run_scalar(_WARM_TRACE, warmup or 0)
                else:
                    for position, (address, w, pc, _) in enumerate(_WARM_TRACE):
                        if position == warmup:
                            llc.reset_stats()
                        llc.access(address, w, pc)
            timing = runner.timing
            outcomes.append((
                _stats(llc), llc.tick, _clock(llc), _full_line_state(llc),
                _policy_state(llc),
                (timing.cycles, timing.instructions, timing.read_stall_cycles,
                 timing.write_stall_cycles, timing.write_buffer.snapshot()),
            ))
        assert outcomes[0] == outcomes[1]
        stats, tick = outcomes[0][:2]
        counted = stats["read_hits"] + stats["read_misses"] + stats[
            "write_hits"] + stats["write_misses"]
        assert counted == tick - (
            warmup if warmup is not None and tick > warmup else 0
        )


class TestCounterTableBuffer:
    """SHiP's SHCT and RRP's predictor are int64 buffers the kernel
    trains in place."""

    TABLES = (("ship", "_shct"), ("rrp", "_table"))

    @needs_native
    @pytest.mark.parametrize("policy,attr", TABLES)
    def test_kernel_trains_the_policy_table_in_place(self, policy, attr):
        native = _warm_runner(policy, "native")
        table = getattr(native.llc.policy, attr)
        assert table.typecode == "q"
        native.run(_WARM_TRACE, 1024)
        assert native.llc.kernel.fallback_reason is None
        assert getattr(native.llc.policy, attr) is table
        reference = _warm_runner(policy)
        reference.run(_WARM_TRACE, 1024)
        assert table == getattr(reference.llc.policy, attr)
        assert len(set(table)) > 1  # the run trained it
        image = _gather_comparator(native.llc, _comparator_kind(native.llc))
        assert np.shares_memory(image.counters, np.asarray(table))

    @needs_native
    @pytest.mark.parametrize("policy,attr", TABLES)
    @pytest.mark.parametrize("kind", ("list", "array-i"))
    def test_foreign_table_declines(self, policy, attr, kind):
        from array import array

        native = _warm_runner(policy, "native")
        table = getattr(native.llc.policy, attr)
        foreign = list(table) if kind == "list" else array("i", table)
        setattr(native.llc.policy, attr, foreign)
        result = native.run(_WARM_TRACE, 1024)
        assert native.llc.kernel.fallback_reason == (
            f"{type(native.llc.policy).__name__} state is not "
            "SoA-representable"
        )
        reference = _warm_runner(policy)
        assert result == reference.run(_WARM_TRACE, 1024)
        assert list(foreign) == list(getattr(reference.llc.policy, attr))


class TestVictimBranches:
    """rwp-core's rarer victim branches on the kernel, field for field
    against the dict driver and the scalar walk.

    RWP's empty-partition fallback needs no test of its own here: the
    rwp cases of ``test_scenarios`` and ``test_shared_mixes_served``
    meet it in both partitions.
    """

    CONFIG = _config(8, 4)

    #: 8 sets x 11 tags, so every set keeps missing; every third access
    #: a write
    TRACE = _trace_from(
        8,
        [(i * 5) % 8 for i in range(1536)],
        [(i * 7 + i // 8) % 11 for i in range(1536)],
        [i % 3 == 0 for i in range(1536)],
    )

    def _three_ways(self, policy, cores, budget=None):
        """(kernel, dict, scalar) caches after one replay of the trace,
        its chunks of 64 accesses issued by ``cores`` in turn.  A
        ``budget`` pins every group's targets after attach."""
        trace = self.TRACE
        chunks = [
            (start, start + 64, cores[n % len(cores)])
            for n, start in enumerate(range(0, len(trace), 64))
        ]
        caches = []
        for driver in ("native", "dict", "scalar"):
            cache = SetAssociativeCache(self.CONFIG, policy())
            if budget is not None:
                groups = cache.policy.num_cores
                cache.policy.clean_targets = [budget] * groups
                cache.policy.dirty_targets = [budget] * groups
            if driver == "scalar":
                for start, stop, core in chunks:
                    for i in range(start, stop):
                        cache.access(
                            trace.addresses[i], trace.is_write[i],
                            trace.pcs[i], core,
                        )
            else:
                attach_kernel(cache, driver)
                decoded = trace.decoded(self.CONFIG)
                for start, stop, core in chunks:
                    cache.run_trace(decoded, start, stop, core=core)
            caches.append(cache)
        assert caches[0].kernel.fallback_reason is None
        return caches

    @needs_native
    def test_rwp_core_every_group_under_budget(self):
        # Budgets of 3 ways per (core, partition) group in 4-way sets,
        # and no epoch to reset them: a set is over budget only while
        # one group holds 3 lines, so most misses find every occupied
        # group under budget and take whole-set LRU.
        def policy():
            return CoreAwareRWPPolicy(num_cores=2, epoch=1 << 30)

        assert_field_for_field(*self._three_ways(policy, (0, 1), budget=3))

    @needs_native
    def test_rwp_core_owner_past_its_cores(self):
        # Lines filled by cores 2..4 of a 2-core policy belong to group
        # owner % 2; a short epoch also routes their samples that way.
        def policy():
            return CoreAwareRWPPolicy(num_cores=2, epoch=128)

        assert_field_for_field(*self._three_ways(policy, (0, 3, 1, 4, 2)))


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


#: LLC policies the stage replay declines: SRRIP and UCP have no kernel
#: counterpart, DRRIP and RRP (which bypasses writes) run natively only
#: through run_trace
DECLINED_LLC_POLICIES = ("srrip", "drrip", "rrp", "ucp")


def _stage_decline(policy: str) -> str:
    """The reason the stage replay records for ``policy``'s LLC."""
    name = type(make_sut_policy(policy)).__name__
    if policy in COMPARATOR_POLICIES:
        return (
            f"{name} runs natively only through run_trace: the hierarchy "
            "stage replay carries no PC stream or bypass attribution"
        )
    return f"{name} has no kernel counterpart"


class TestDeclinedLLC:
    """A declined LLC: L1 and L2 still filter in C, the LLC in Python."""

    @needs_native
    @pytest.mark.parametrize("collect", (False, True), ids=("counts", "collect"))
    @pytest.mark.parametrize("policy", DECLINED_LLC_POLICIES)
    def test_matches_dict_and_scalar(self, policy, collect):
        trace = fuzz_trace("dirty_storm", 4242, 16, 4, 2048)
        outputs = {}
        for side in ("native", "dict", "scalar"):
            stack = MemoryHierarchy(_STACK, make_sut_policy(policy))
            if side == "scalar":
                got = stack._run_trace_scalar(
                    trace, 0, 0, len(trace), collect
                )
            else:
                attach_kernel(stack, side)
                got = stack.run_trace(trace, collect=collect)
            if side == "native":
                assert _resident(stack.l1s + stack.l2s)
                reason = stack.llc.kernel.fallback_reason
            outputs[side] = (got, _stack_state(stack))
        assert outputs["native"] == outputs["dict"] == outputs["scalar"]
        assert outputs["native"][1][-1]["memory.writes"] > 0
        if collect:
            assert reason == _stage_decline(policy)
        elif policy == "rrp":
            # RRP's bypassing LLC walks the residue access by access.
            assert reason == (
                "RRPPolicy can bypass, so the hierarchy's LLC stage walks "
                "the residue per access"
            )
        elif policy in COMPARATOR_POLICIES:
            # The residue replays through llc.run_trace, which serves
            # DRRIP.
            assert reason is None
        else:
            # llc.run_trace declines the residue in its own words.
            assert reason == _stage_decline(policy)

    @needs_native
    @pytest.mark.parametrize("policy", DECLINED_LLC_POLICIES)
    def test_timed_pcm_run_matches_dict(self, policy):
        results = []
        for kernel in ("native", "dict"):
            runner = HierarchyRunner(
                _WALK_CONFIG,
                make_sut_policy(policy),
                backend=make_backend("pcm:write_mult=4", _WALK_CONFIG),
            )
            attach_kernel(runner.hierarchy, kernel)
            results.append(
                runner.run(cached_trace("lbm", 256, 6144, 7), warmup=1024)
            )
            if kernel == "native":
                hierarchy = runner.hierarchy
                assert _resident(hierarchy.l1s + hierarchy.l2s)
                assert hierarchy.llc.kernel.fallback_reason == (
                    _stage_decline(policy)
                )
        native, reference = results
        assert native == reference
        assert _typed(native.to_dict()) == _typed(reference.to_dict())
        assert reference.extra["backend"]["pcm.writes"] > 0

    @needs_native
    def test_llc_block_overflow_declines_only_the_llc(self):
        # Lines that scalar access() filled at tags near 2^63 survive
        # only in the LLC: its attributed lane would build writeback
        # blocks past int64, so the Python LLC stage takes the residue
        # while L1 and L2 still filter in C.
        config = small_hierarchy(((4, 2), (8, 2), (16, 8)))
        # Lines of LLC sets 0-7 only: every L1 and L2 set, half the LLC.
        flush = Trace([(16 * k + s) * 64 for k in range(8) for s in range(8)],
                      [False] * 64)
        narrow = fuzz_trace("dirty_storm", 77, 16, 8, 1024)
        outputs = []
        for kernel in ("native", "dict"):
            stack = MemoryHierarchy(config, make_sut_policy("rwp"))
            _wide_fill(stack, _wide_records(16, 256), config.llc)
            attach_kernel(stack, kernel)
            stack.run_trace(flush)
            stack.memory.write_log = []
            got = stack.run_trace(narrow, collect=True)
            if kernel == "native":
                assert _resident(stack.l1s + stack.l2s)
                assert stack.llc.kernel.fallback_reason == (
                    "a block address overflows the int64 kernel ABI"
                )
            outputs.append((got, stack.memory.write_log, _stack_state(stack)))
        assert outputs[0] == outputs[1]
        # A surviving wide line was written back, block and all.
        assert max(outputs[0][1]) >> 6 > MAX_TAG

    @needs_native
    @pytest.mark.parametrize("policy", ("lru", "rwp"))
    def test_untimed_block_overflow_walks_the_residue(self, policy):
        # L1 and L2 write back lines filled at tags near 2^63: no decode
        # holds those blocks, so an untimed LLC stage walks the residue
        # access by access instead of replaying it through run_trace.
        config = small_hierarchy(((4, 2), (8, 2), (16, 8)))
        narrow = fuzz_trace("dirty_storm", 79, 16, 8, 1024)
        outputs = {}
        for side in ("native", "dict", "scalar"):
            stack = MemoryHierarchy(config, make_sut_policy(policy))
            _wide_fill(stack, _wide_records(16, 256), config.llc)
            stack.memory.write_log = []
            if side == "scalar":
                got = stack._run_trace_scalar(narrow, 0, 0, len(narrow), False)
            else:
                attach_kernel(stack, side)
                got = stack.run_trace(narrow)
            if side == "native":
                assert stack.llc.kernel.fallback_reason == (
                    "a block address overflows the int64 kernel ABI"
                )
            outputs[side] = (got, stack.memory.write_log, _stack_state(stack))
        assert outputs["native"] == outputs["dict"] == outputs["scalar"]
        assert max(outputs["dict"][1]) >> 6 > MAX_TAG
