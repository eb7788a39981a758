"""Tests for the data-sharing multicore stack.

Covers the shared-region trace synthesis (``SharingSpec`` /
``generate_shared_mix``), the LLC's line-level :class:`SharerDirectory`
(unit behavior plus the Hypothesis-pinned bitmask invariants), the
shared-claimant arbitration in ``core_rwp_targets``, the
confidence-weighted blend's global-rwp fallback, and the shared legs of
the verification layer (fuzz-job payloads and the system differ).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import default_hierarchy
from repro.kernels import attach_kernel, native_available
from repro.multicore.shared import SharedLLCSystem, SharerDirectory
from repro.trace.access import Trace
from repro.trace.generator import (
    _SHARED_BASE_LINE,
    LINE_SIZE,
    SharingSpec,
    generate_shared_mix,
)
from repro.trace.spec import make_model

#: ``SharedLLCSystem.run`` without a kernel is ``run_scalar``, so a
#: batched-vs-scalar check needs the kernel on its batched side.
needs_native = pytest.mark.skipif(
    not native_available(), reason="no C compiler for the native kernel"
)


def shared_mix(num_accesses=2000, pattern="producer_consumer", **kwargs):
    models = [make_model("mcf", 256), make_model("omnetpp", 256)]
    spec = SharingSpec(
        pattern=pattern,
        shared_fraction=kwargs.pop("shared_fraction", 0.4),
        writers=kwargs.pop("writers", 1),
        ws_lines=kwargs.pop("ws_lines", 128),
    )
    return generate_shared_mix(models, spec, num_accesses, seed=5)


class TestSharingSpec:
    def test_canonical_parse_round_trip(self):
        spec = SharingSpec("migratory", 0.25, writers=3, ws_lines=64)
        assert spec.canonical() == "migratory:frac=0.25,writers=3,ws=64"
        assert SharingSpec.parse(spec.canonical()) == spec
        assert SharingSpec.parse(spec) is spec

    def test_parse_defaults(self):
        spec = SharingSpec.parse("read_mostly")
        assert spec.pattern == "read_mostly"
        assert 0.0 < spec.shared_fraction < 1.0

    @pytest.mark.parametrize(
        "bad, match",
        [
            (dict(pattern="nope"), "unknown sharing pattern"),
            (dict(pattern="migratory", shared_fraction=0.0), "in \\(0, 1\\)"),
            (dict(pattern="migratory", shared_fraction=1.0), "in \\(0, 1\\)"),
            (dict(pattern="migratory", writers=0), "writers"),
            (dict(pattern="migratory", ws_lines=0), "ws_lines"),
            (dict(pattern="migratory", ws_lines=1 << 27), "reserved region"),
        ],
    )
    def test_validation(self, bad, match):
        with pytest.raises(ValueError, match=match):
            SharingSpec(**bad)

    def test_parse_rejects_malformed_options(self):
        with pytest.raises(ValueError, match="malformed"):
            SharingSpec.parse("migratory:frac")
        with pytest.raises(ValueError, match="unknown sharing option"):
            SharingSpec.parse("migratory:cows=4")


class TestSharedMixGeneration:
    def test_traces_are_global_and_overlap(self):
        traces = shared_mix()
        assert all(t.address_space == "global" for t in traces)
        assert set(traces[0].addresses) & set(traces[1].addresses)

    def test_shared_region_sits_above_null_page(self):
        base = _SHARED_BASE_LINE * LINE_SIZE
        for trace in shared_mix():
            assert min(trace.addresses) >= base

    def test_producer_consumer_readers_never_write_shared(self):
        producer, consumer = shared_mix(writers=1)
        limit = (_SHARED_BASE_LINE + 128) * LINE_SIZE
        shared_writes = [
            w
            for a, w in zip(consumer.addresses, consumer.is_write)
            if a < limit
        ]
        assert shared_writes and not any(shared_writes)
        assert any(
            w
            for a, w in zip(producer.addresses, producer.is_write)
            if a < limit
        )

    def test_deterministic(self):
        first, second = shared_mix(), shared_mix()
        for a, b in zip(first, second):
            assert a.addresses == b.addresses
            assert a.is_write == b.is_write


class TestSharerDirectoryUnit:
    def _directory(self, num_cores=4):
        config = default_hierarchy(llc_size=64 * 64)
        return SharerDirectory(config.llc, num_cores)

    def test_observe_builds_mask_and_counts_sharing(self):
        d = self._directory()
        d.observe(3, 7, False, 0, core=0)
        assert d.sharer_mask(3, 7) == 0b1
        assert not d.is_shared(3, 7)
        d.observe(3, 7, False, 0, core=2)
        assert d.sharer_mask(3, 7) == 0b101
        assert d.is_shared(3, 7)
        assert d.shared_lines == 1
        assert d.shared_accesses == 1  # only the second touch was shared

    def test_write_migration_counted_once_per_owner_change(self):
        d = self._directory()
        d.observe(0, 1, True, 0, core=0)
        assert d.last_writer(0, 1) == 0
        assert d.write_migrations == 0
        d.observe(0, 1, True, 0, core=0)
        assert d.write_migrations == 0
        d.observe(0, 1, True, 0, core=1)
        assert d.write_migrations == 1
        assert d.last_writer(0, 1) == 1

    def test_eviction_ends_the_generation(self):
        d = self._directory()
        d.observe(2, 5, False, 0, core=0)
        d.observe(2, 5, False, 0, core=1)
        address = ((5 << d.index_bits) | 2) << d.offset_bits
        d.on_evict(address, dirty=False)
        assert d.sharer_mask(2, 5) == 0
        assert d.last_writer(2, 5) == -1
        assert d.shared_evictions == 1
        # A re-touch starts a fresh generation.
        d.observe(2, 5, False, 0, core=1)
        assert d.sharer_mask(2, 5) == 0b10

    def test_stats_dict_keys(self):
        stats = self._directory().stats_dict()
        assert sorted(stats) == [
            "shared.accesses",
            "shared.evictions",
            "shared.lines",
            "shared.peak_tracked",
            "shared.tracked",
            "shared.write_migrations",
            "shared.writes",
        ]


# Per-core access streams over a deliberately tiny line range so cores
# genuinely collide in the (small) LLC below.
ops_strategy = st.lists(
    st.tuples(st.integers(0, 23), st.booleans()), min_size=1, max_size=120
)


def _global_traces(per_core_ops):
    traces = []
    for core, ops in enumerate(per_core_ops):
        addresses = [line * LINE_SIZE for line, _ in ops]
        writes = [w for _, w in ops]
        pcs = [0x400 + 4 * (line % 8) for line, _ in ops]
        traces.append(
            Trace(
                addresses,
                writes,
                pcs,
                [1] * len(ops),
                name=f"fuzz-c{core}",
                address_space="global",
            )
        )
    return traces


class TestSharerInvariants:
    """The documented directory invariants, pinned by Hypothesis."""

    def _small_system(self, policy="lru"):
        # 4 sets x 4 ways = 16 lines for 24 distinct line addresses.
        config = default_hierarchy(llc_size=16 * 64, llc_ways=4)
        return SharedLLCSystem(config, 2, policy)

    def _check_invariants(self, system):
        directory = system.sharer_directory
        assert directory is not None
        index_bits = directory.index_bits
        resident = 0
        for set_index, cache_set in enumerate(system.llc.sets):
            for line in cache_set.lines:
                if not line.valid:
                    continue
                resident += 1
                key = (line.tag << index_bits) | set_index
                entry = directory.table.get(key)
                # Every resident line is tracked...
                assert entry is not None, (set_index, line.tag)
                mask, last_writer = entry
                # ...with at least one sharer recorded...
                assert mask.bit_count() >= 1
                assert mask < (1 << directory.num_cores)
                # ...and a dirty line's last writer is a sharer.
                if line.dirty:
                    assert last_writer >= 0
                    assert mask & (1 << last_writer)
        # ...and, no policy here bypassing, only resident lines are
        # tracked: the kernel's per-line directory columns rely on it.
        assert resident == len(directory.table)

    @settings(max_examples=30, deadline=None)
    @given(ops_strategy, ops_strategy)
    def test_resident_lines_tracked_scalar(self, ops0, ops1):
        system = self._small_system()
        system.run_scalar(_global_traces([ops0, ops1]))
        self._check_invariants(system)

    @needs_native
    @settings(max_examples=30, deadline=None)
    @given(ops_strategy, ops_strategy)
    def test_batch_matches_scalar_with_directory(self, ops0, ops1):
        traces = _global_traces([ops0, ops1])
        for policy in ("rwp", "rwp-core"):
            batched = self._small_system(policy)
            attach_kernel(batched, "native")
            scalar = self._small_system(policy)
            got = batched.run(traces)
            want = scalar.run_scalar(traces)
            assert got == want, policy
            assert (
                batched.sharer_directory.table
                == scalar.sharer_directory.table
            ), policy
            self._check_invariants(batched)

    def test_directory_cleared_for_private_runs(self):
        system = self._small_system()
        system.run_scalar(_global_traces([[(1, True)], [(2, False)]]))
        assert system.sharer_directory is not None
        private = [
            Trace([64], [False], [0x400], [1], name=f"p{i}")
            for i in range(2)
        ]
        result = system.run_scalar(private)
        assert system.sharer_directory is None
        assert result.shared is None

    def test_mixed_address_spaces_rejected(self):
        system = self._small_system()
        mixed = [
            Trace([64], [False], [0x400], [1], name="g", address_space="global"),
            Trace([64], [False], [0x400], [1], name="p"),
        ]
        with pytest.raises(ValueError, match="cannot mix"):
            system.run(mixed)


class TestSharedClaimantArbitration:
    def test_shared_class_has_no_floor(self):
        from repro.core.rwp import core_rwp_targets

        flat = [0] * 9
        rising = [min(i * 4, 16) for i in range(9)]
        # Two cores with useful curves plus a worthless shared class.
        clean = [rising, rising, flat]
        dirty = [flat, flat, flat]
        targets = core_rwp_targets(clean, dirty, 8, shared_claimant=True)
        assert targets[-1] == (0, 0)  # no guaranteed way for sharing
        assert sum(c + d for c, d in targets) == 8
        assert all(c + d >= 1 for c, d in targets[:-1])

    def test_hot_shared_class_wins_ways(self):
        from repro.core.rwp import core_rwp_targets

        flat = [0] * 9
        hot = [min(i * 10, 40) for i in range(9)]
        clean = [flat, flat, hot]
        dirty = [flat, flat, flat]
        targets = core_rwp_targets(clean, dirty, 8, shared_claimant=True)
        shared_ways = sum(targets[-1])
        assert shared_ways > 0
        assert sum(c + d for c, d in targets) == 8

    def test_floor_requires_one_way_per_core_only(self):
        from repro.core.rwp import core_rwp_targets

        flat = [0] * 5
        with pytest.raises(ValueError):
            core_rwp_targets([flat] * 3, [flat] * 3, 1, shared_claimant=True)
        # 2 ways satisfy the 2 per-core floors even with a shared class.
        targets = core_rwp_targets(
            [flat] * 3, [flat] * 3, 2, shared_claimant=True
        )
        assert sum(c + d for c, d in targets) == 2


class TestConfidenceBlend:
    def test_blend_recovers_global_rwp_under_pressure(self):
        # 8 cores x 16 ways: way pressure caps confidence at 0.5, so
        # the blend delegates to the global split for the whole run.
        traces = [
            make_model(name, 256).generate(1500, seed=3 + i)
            for i, name in enumerate(
                ["mcf", "omnetpp", "soplex", "sphinx3",
                 "xalancbmk", "astar", "bzip2", "gcc"]
            )
        ]
        config = default_hierarchy(llc_size=8 * 256 * 64, llc_ways=16)
        blend = SharedLLCSystem(config, 8, "rwp-core:blend=true").run(
            traces, warmup=100
        )
        rwp = SharedLLCSystem(config, 8, "rwp").run(traces, warmup=100)
        for got, want in zip(blend.cores, rwp.cores):
            assert got == want

    def test_describe_reports_blend_state(self):
        from repro.cache.policy import make_policy

        policy = make_policy("rwp-core:blend=true")
        info = policy.describe()
        assert info["blend"] is True
        assert info["global_mode"] is True
        assert info["confidence"] == 0.0
        plain = make_policy("rwp-core").describe()
        assert "blend" not in plain


class TestVerifySharedLegs:
    def test_fuzz_plan_includes_shared_jobs(self):
        from repro.verify.system import (
            SHARED_GEOMETRY_INDEX,
            plan_system_jobs,
        )

        jobs = plan_system_jobs(48, base_seed=9)
        shared = [j for j in jobs if getattr(j, "shared", False)]
        assert shared
        assert all(j.geometry == SHARED_GEOMETRY_INDEX for j in shared)
        assert all(":shared" in j.label for j in shared)
        # Each kernel-supported policy runs shared.
        assert {"lru", "rwp", "rwp-core"} <= {j.policy for j in shared}

    def test_private_payload_omits_shared_key(self):
        from repro.verify.system import plan_system_jobs

        jobs = plan_system_jobs(48, base_seed=9)
        for job in jobs:
            if getattr(job, "shared", False):
                assert job.payload()["shared"] is True
            else:
                assert "shared" not in job.payload()

    def test_shared_fuzz_jobs_pass(self):
        from repro.verify.system import plan_system_jobs

        jobs = [
            j for j in plan_system_jobs(64, base_seed=11)
            if getattr(j, "shared", False)
        ]
        report = jobs[0].execute()
        assert report["ok"], report

    @needs_native
    def test_differ_clean_on_shared_mix(self):
        from repro.verify.system import diff_multicore

        traces = shared_mix(num_accesses=800)
        config = default_hierarchy(llc_size=2 * 256 * 64)
        assert diff_multicore("rwp-core", traces, config, 2) is None

    @needs_native
    def test_differ_flags_directory_divergence(self, monkeypatch):
        from repro.verify import system as vs

        traces = shared_mix(num_accesses=800)
        config = default_hierarchy(llc_size=2 * 256 * 64)
        original = SharedLLCSystem.run_scalar

        def skewed(self, traces, warmup=0):
            result = original(self, traces, warmup)
            if self.sharer_directory is not None:
                key = next(iter(self.sharer_directory.table))
                self.sharer_directory.table[key][0] |= 1 << 30
            return result

        monkeypatch.setattr(SharedLLCSystem, "run_scalar", skewed)
        # The kernel serves the batched side, so only the scalar side
        # carries the skew.
        divergence = vs.diff_multicore("lru", traces, config, 2)
        assert divergence is not None
        assert "sharer directory" in divergence.kind
