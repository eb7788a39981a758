"""The shared-LLC kernel (``rw_multicore``) against the scalar interleave.

``SharedLLCSystem.run`` offers every run to an attached kernel and
otherwise is ``run_scalar``, so each check attaches ``native`` on the
``run`` side and skips where no kernel builds: without one both sides
would be the same scalar walk.
"""

from __future__ import annotations

import pytest

from repro.common.config import default_hierarchy
from repro.kernels import attach_kernel, native_available
from repro.mem import make_backend
from repro.multicore.shared import SharedLLCSystem
from repro.trace.access import Trace
from repro.verify.fuzzer import SCENARIOS, fuzz_trace
from repro.verify.differ import make_sut_policy
from repro.verify.system import _cache_state

try:
    from hypothesis import given, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is a dev extra
    HAVE_HYPOTHESIS = False

LLC_SETS, LLC_WAYS = 32, 4
CONFIG = default_hierarchy(llc_size=LLC_SETS * LLC_WAYS * 64, llc_ways=LLC_WAYS)

needs_native = pytest.mark.skipif(
    not native_available(), reason="no C compiler for the native kernel"
)


def run_both_ways(policy, traces, num_cores, warmup=0):
    batched = SharedLLCSystem(CONFIG, num_cores, make_sut_policy(policy, num_cores))
    attach_kernel(batched, "native")
    scalar = SharedLLCSystem(CONFIG, num_cores, make_sut_policy(policy, num_cores))
    got = batched.run(traces, warmup=warmup)
    want = scalar.run_scalar(traces, warmup=warmup)
    return batched, scalar, got, want


def assert_equivalent(batched, scalar, got, want):
    # Field-for-field, including the exact IEEE cycle floats: any drift
    # in the interleave shows up as a cycle-count difference.
    assert got.policy == want.policy
    assert got.cores == want.cores
    assert _cache_state(batched.llc) == _cache_state(scalar.llc)
    assert batched.llc.snapshot() == scalar.llc.snapshot()
    assert batched.llc.tick == scalar.llc.tick


def core_traces(num_cores, seed, length):
    return [
        fuzz_trace(
            SCENARIOS[core % len(SCENARIOS)],
            seed + core,
            LLC_SETS,
            LLC_WAYS,
            length,
        )
        for core in range(num_cores)
    ]


#: the kernel's declines of one comparator and one partitioning policy
DECLINES = {
    "drrip": (
        "DRRIPPolicy runs natively only through run_trace: the multicore "
        "interleave carries no PC stream or bypass attribution"
    ),
    "ucp": "UCPPolicy has no kernel counterpart",
}


@needs_native
@pytest.mark.parametrize("policy", ["lru", "drrip", "rwp", "rwp-core", "ucp"])
def test_epoch_driver_equals_scalar(policy):
    traces = core_traces(4, 2101, 768)
    batched, scalar, got, want = run_both_ways(policy, traces, 4, warmup=192)
    assert_equivalent(batched, scalar, got, want)
    # A served run records nothing; a declined one names why and is
    # run_scalar on the untouched system.
    assert batched.llc.kernel.fallback_reason == DECLINES.get(policy)


@needs_native
def test_zero_warmup():
    traces = core_traces(2, 2102, 512)
    assert_equivalent(*run_both_ways("rwp", traces, 2, warmup=0))


@needs_native
def test_single_core_degenerates_cleanly():
    traces = core_traces(1, 2103, 512)
    assert_equivalent(*run_both_ways("lru", traces, 1, warmup=64))


@needs_native
def test_unequal_trace_lengths():
    """Cores finishing at different times must not skew the interleave."""
    lengths = (256, 1024, 512, 384)
    traces = [
        fuzz_trace(SCENARIOS[i % len(SCENARIOS)], 2104 + i, LLC_SETS, LLC_WAYS, n)
        for i, n in enumerate(lengths)
    ]
    assert_equivalent(*run_both_ways("rwp", traces, 4, warmup=128))


@needs_native
def test_memory_backends_decline_to_scalar():
    # The lanes inline the flat timing model, so per-core backends take
    # the scalar interleave, and the runtime says why.
    def system():
        backends = [make_backend("pcm:write_mult=4", CONFIG) for _ in range(4)]
        return SharedLLCSystem(CONFIG, 4, make_sut_policy("rwp", 4), backends)

    traces = core_traces(4, 2106, 768)
    batched, scalar = system(), system()
    attach_kernel(batched, "native")
    got = batched.run(traces, warmup=192)
    want = scalar.run_scalar(traces, warmup=192)
    assert_equivalent(batched, scalar, got, want)
    stats = [backend.stats() for backend in batched.backends]
    assert stats == [backend.stats() for backend in scalar.backends]
    assert all(core["pcm.writes"] > 0 for core in stats)
    assert batched.llc.kernel.fallback_reason == "memory timing backend is active"


@needs_native
@pytest.mark.parametrize("policy", ["lru", "rwp-core"])
def test_identical_traces_tie_every_step(policy):
    # Four copies of one trace keep the cores' cycle counts level, so
    # the argmin meets a tie at nearly every step: the lower core wins
    # it, and a running lane must stop as soon as it reaches a
    # lower-indexed core's cycles.
    trace = core_traces(1, 2107, 384)[0]
    assert_equivalent(*run_both_ways(policy, [trace] * 4, 4, warmup=96))


@needs_native
@pytest.mark.parametrize("policy", ["lru", "rwp-core"])
def test_cycles_past_two_to_the_53(policy):
    # Past 2**53 cycles a double's spacing is 2 or more, so a finished
    # core's + 1.0 tie-break penalty rounds away or up a whole step, and
    # cycles + 1.0 >= lo no longer equals cycles >= lo - 1.0.  Core 1
    # retires half core 0's gap per access, so after it finishes the two
    # stay within a step of each other, and their writes to six lines of
    # one 4-way set make a change of order show in the LLC's hits.  (No
    # write stalls: the buffer drains between accesses this far apart.)
    gap = (1 << 46) + 30
    traces = [
        Trace(
            [2048 * (i % 3) for i in range(n)],
            [True] * n,
            [0] * n,
            [core_gap] * n,
            name=f"core{core}",
        )
        for core, (n, core_gap) in enumerate(((400, 2 * gap), (100, gap)))
    ]
    batched, scalar, got, want = run_both_ways(policy, traces, 2)
    assert_equivalent(batched, scalar, got, want)
    assert got.cores[1].cycles < 2.0**53 < got.cores[0].cycles


@needs_native
def test_more_cores_than_a_sharer_mask():
    # An untracked run takes any core count: 67 cores with short traces
    # walk the kernel's per-core position array past 64 entries.
    num_cores = 67
    traces = [
        fuzz_trace(SCENARIOS[core % len(SCENARIOS)], 2109 + core,
                   LLC_SETS, LLC_WAYS, 24 + core % 5)
        for core in range(num_cores)
    ]
    batched, scalar, got, want = run_both_ways(
        "lru", traces, num_cores, warmup=8
    )
    assert_equivalent(batched, scalar, got, want)
    assert batched.llc.kernel.fallback_reason is None


@needs_native
def test_instruction_counts_past_int64():
    # Every access retires 2**62 instructions, so each core's count
    # passes int64 within its window, and the shorter core's timing
    # model keeps counting while it replays for pressure.  Both must
    # come out as the exact Python ints run_scalar holds.
    lengths = (98, 163)
    traces = [
        Trace(
            trace.addresses,
            trace.is_write,
            trace.pcs,
            [1 << 62] * len(trace),
            name=trace.name,
        )
        for trace in (
            fuzz_trace(SCENARIOS[core], 2110 + core, LLC_SETS, LLC_WAYS, n)
            for core, n in enumerate(lengths)
        )
    ]
    batched, scalar, got, want = run_both_ways("rwp", traces, 2, warmup=32)
    assert_equivalent(batched, scalar, got, want)
    counts = [timing.instructions for timing in batched.timings]
    assert counts == [timing.instructions for timing in scalar.timings]
    assert [core.instructions for core in got.cores] == [
        (n - 32) << 62 for n in lengths
    ]
    assert min(counts) > 1 << 64
    assert batched.llc.kernel.fallback_reason is None


def test_warmup_validation():
    traces = core_traces(2, 2105, 64)
    system = SharedLLCSystem(CONFIG, 2, "lru")
    with pytest.raises(ValueError, match="warmup"):
        system.run(traces, warmup=64)
    with pytest.raises(ValueError, match="need 2"):
        system.run(traces[:1])


if HAVE_HYPOTHESIS:

    @needs_native
    @given(
        cores=st.lists(
            st.lists(
                st.tuples(st.integers(0, 255), st.booleans()),
                min_size=8,
                max_size=160,
            ),
            min_size=1,
            max_size=4,
        ),
        policy=st.sampled_from(["lru", "rwp", "rwp-core", "ucp"]),
        warmup_frac=st.integers(0, 3),
    )
    def test_property_epoch_equals_scalar(cores, policy, warmup_frac):
        traces = [
            Trace(
                [line * 64 for line, _ in pairs],
                [w for _, w in pairs],
                name=f"core{i}",
            )
            for i, pairs in enumerate(cores)
        ]
        warmup = min(len(t) for t in traces) * warmup_frac // 4
        assert_equivalent(
            *run_both_ways(policy, traces, len(traces), warmup=warmup)
        )
