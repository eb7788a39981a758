"""System-level differential verification and its golden sections."""

from __future__ import annotations

import json

import pytest

import repro.verify.system as vs
from repro.kernels import native_available, reset_native_cache
from repro.verify.fuzzer import SCENARIOS, fuzz_trace
from repro.verify.golden import (
    GOLDEN_VERSION,
    SYSTEM_GOLDEN_SPECS,
    check_goldens,
    load_goldens,
    system_golden_record,
    _jsonify,
)
from repro.verify.system import (
    HIERARCHY_GEOMETRIES,
    HIERARCHY_VERIFY_POLICIES,
    MULTICORE_GEOMETRIES,
    MULTICORE_VERIFY_POLICIES,
    SystemDivergence,
    SystemFuzzJob,
    diff_hierarchy,
    diff_multicore,
    plan_system_jobs,
)
from repro.verify.system import small_hierarchy as fuzz_hierarchy_config

LENGTH = 512

needs_native = pytest.mark.skipif(
    not native_available(), reason="no C compiler for the native kernel"
)


class TestDiffers:
    @pytest.mark.parametrize("policy", HIERARCHY_VERIFY_POLICIES)
    def test_hierarchy_conformant(self, policy):
        geometry = HIERARCHY_GEOMETRIES[0]
        trace = fuzz_trace("mixed", 42, geometry[2][0], geometry[2][1], LENGTH)
        assert diff_hierarchy(policy, trace, fuzz_hierarchy_config(geometry)) is None

    @pytest.mark.parametrize("policy", MULTICORE_VERIFY_POLICIES)
    def test_multicore_conformant(self, policy):
        num_cores, llc_sets, ways = MULTICORE_GEOMETRIES[1]
        config = fuzz_hierarchy_config(((4, 2), (8, 4), (llc_sets, ways)))
        traces = [
            fuzz_trace(SCENARIOS[core % len(SCENARIOS)], 42 + core, llc_sets, ways, LENGTH)
            for core in range(num_cores)
        ]
        # The kernel serves lru/rwp/rwp-core; it declines the rest, whose
        # runs are then the scalar interleave.
        assert diff_multicore(
            policy, traces, config, num_cores, warmup=64
        ) is None

    def test_hierarchy_detects_seeded_divergence(self, monkeypatch):
        # Hand the batched and scalar sides *different* policies: the
        # differ must notice, otherwise it is comparing nothing.
        real = vs.make_sut_policy
        calls = []

        def skewed(name, num_cores=1):
            calls.append(name)
            return real("ship" if len(calls) % 2 else name, num_cores)

        monkeypatch.setattr(vs, "make_sut_policy", skewed)
        geometry = HIERARCHY_GEOMETRIES[0]
        trace = fuzz_trace("conflict", 7, geometry[2][0], geometry[2][1], LENGTH)
        divergence = diff_hierarchy("lru", trace, fuzz_hierarchy_config(geometry))
        assert divergence is not None
        assert divergence.target == "hierarchy"
        assert "diverged from the scalar walk" in divergence.describe()
        assert divergence.to_dict()["policy"] == "lru"

    def test_multicore_detects_seeded_divergence(self, monkeypatch):
        real = vs.make_sut_policy
        calls = []

        def skewed(name, num_cores=1):
            calls.append(name)
            return real("drrip" if len(calls) % 2 else name, num_cores)

        monkeypatch.setattr(vs, "make_sut_policy", skewed)
        num_cores, llc_sets, ways = MULTICORE_GEOMETRIES[1]
        config = fuzz_hierarchy_config(((4, 2), (8, 4), (llc_sets, ways)))
        traces = [
            fuzz_trace("conflict", 7 + core, llc_sets, ways, LENGTH)
            for core in range(num_cores)
        ]
        divergence = diff_multicore("lru", traces, config, num_cores)
        assert divergence is not None
        assert divergence.target == "multicore"


class TestJobs:
    def test_plan_is_deterministic_with_unique_keys(self):
        a = plan_system_jobs(24, base_seed=99, length=LENGTH)
        b = plan_system_jobs(24, base_seed=99, length=LENGTH)
        assert a == b
        keys = [job.key() for job in a]
        assert len(set(keys)) == len(keys)
        targets = {job.target for job in a}
        assert targets == {"hierarchy", "multicore"}

    def test_payload_embeds_resolved_geometry(self):
        job = SystemFuzzJob("multicore", "lru", "mixed", 1, geometry=2, length=LENGTH)
        payload = job.payload()
        assert payload["geometry"] == list(MULTICORE_GEOMETRIES[2])
        hier = SystemFuzzJob("hierarchy", "lru", "mixed", 1, geometry=0, length=LENGTH)
        assert hier.payload()["geometry"] == [
            list(row) for row in HIERARCHY_GEOMETRIES[0]
        ]

    def test_execute_reports_ok(self):
        job = SystemFuzzJob("hierarchy", "rwp", "dirty_storm", 3, geometry=1, length=LENGTH)
        result = job.execute()
        assert result["ok"] is True
        assert "divergence" not in result
        assert SystemFuzzJob.decode(SystemFuzzJob.encode(result)) == result

    def test_execute_reports_divergence(self, monkeypatch):
        divergence = SystemDivergence("hierarchy", "lru", "ticks", 1, 2, "native")
        monkeypatch.setattr(
            SystemFuzzJob, "run", lambda self: (divergence, ["dict"])
        )
        job = SystemFuzzJob("hierarchy", "lru", "mixed", 3, geometry=0, length=LENGTH)
        result = job.execute()
        assert result["ok"] is False
        assert result["divergence"]["kind"] == "ticks"
        assert result["divergence"]["driver"] == "native"
        assert result["report"] == divergence.describe()
        assert "(kernel 'native')" in result["report"]

    def test_default_slate_shape(self):
        # Hierarchy and multicore alternate; every fourth multicore job
        # is a shared mix on the shared geometry row.
        jobs = plan_system_jobs(48)
        assert [j.target for j in jobs] == ["hierarchy", "multicore"] * 24
        shared = [j for j in jobs if j.shared]
        assert [j.policy for j in shared] == [
            "lru", "lru", "rwp", "rwp", "rwp-core", "rwp-core",
        ]
        assert all(j.geometry == vs.SHARED_GEOMETRY_INDEX for j in shared)
        assert [j.policy for j in jobs[:6]] == [
            "lru", "lru", "dip", "dip", "drrip", "drrip",
        ]

    @needs_native
    @pytest.mark.parametrize(
        "job, drivers",
        (
            (SystemFuzzJob("hierarchy", "lru", "mixed", 3, 0, LENGTH), ["dict", "native"]),
            # The stage replay hands a bypassing LLC to Python.
            (SystemFuzzJob("hierarchy", "rrp", "mixed", 3, 0, LENGTH), ["dict"]),
            (SystemFuzzJob("multicore", "rwp", "mixed", 3, 1, LENGTH), ["native"]),
            # The kernel declines multicore DIP: run is run_scalar.
            (SystemFuzzJob("multicore", "dip", "mixed", 3, 1, LENGTH), []),
        ),
        ids=("hier-lru", "hier-rrp", "mc-rwp", "mc-dip"),
    )
    def test_execute_records_serving_drivers(self, job, drivers):
        result = job.execute()
        assert result["ok"] is True
        assert result["drivers"] == drivers

    def test_without_a_kernel_only_dict_serves(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_NATIVE", "1")
        reset_native_cache()
        try:
            hier = SystemFuzzJob("hierarchy", "lru", "mixed", 3, 0, LENGTH)
            assert hier.execute()["drivers"] == ["dict"]
            multi = SystemFuzzJob("multicore", "lru", "mixed", 3, 1, LENGTH)
            assert multi.execute()["drivers"] == []
        finally:
            monkeypatch.delenv("REPRO_NO_NATIVE")
            reset_native_cache()


class TestDriverInjection:
    """A corrupted batched system driver is reported by name."""

    @staticmethod
    def _hierarchy_case():
        geometry = HIERARCHY_GEOMETRIES[0]
        trace = fuzz_trace("mixed", 42, geometry[2][0], geometry[2][1], LENGTH)
        return trace, fuzz_hierarchy_config(geometry)

    def test_dict_staged_replay(self, monkeypatch):
        from repro.hierarchy.system import MemoryHierarchy

        original = MemoryHierarchy.run_trace

        def run_trace(self, *args, **kwargs):
            out = original(self, *args, **kwargs)
            if self.llc.kernel is None:
                self.llc.tick += 1
            return out

        monkeypatch.setattr(MemoryHierarchy, "run_trace", run_trace)
        divergence = diff_hierarchy("lru", *self._hierarchy_case())
        assert (divergence.driver, divergence.kind) == ("dict", "ticks")

    @needs_native
    def test_native_stage_replay(self, monkeypatch):
        from repro.kernels.runner import KernelRuntime

        original = KernelRuntime.try_hierarchy_stages

        def try_hierarchy_stages(self, hierarchy, *args, **kwargs):
            out = original(self, hierarchy, *args, **kwargs)
            if out is not None:
                hierarchy.memory.reads += 1
            return out

        monkeypatch.setattr(
            KernelRuntime, "try_hierarchy_stages", try_hierarchy_stages
        )
        divergence = diff_hierarchy("lru", *self._hierarchy_case())
        # hierarchy.snapshot() carries the memory counters.
        assert (divergence.driver, divergence.kind) == ("native", "stats")
        assert "(kernel 'native')" in divergence.describe()

    @needs_native
    def test_native_interleave(self, monkeypatch):
        from repro.kernels.runner import KernelRuntime

        original = KernelRuntime.try_run_multicore

        def try_run_multicore(self, system, *args):
            out = original(self, system, *args)
            if out is not None:
                system.llc.tick += 1
            return out

        monkeypatch.setattr(KernelRuntime, "try_run_multicore", try_run_multicore)
        num_cores, llc_sets, ways = MULTICORE_GEOMETRIES[1]
        config = fuzz_hierarchy_config(((4, 2), (8, 4), (llc_sets, ways)))
        traces = [
            fuzz_trace("mixed", 42 + core, llc_sets, ways, LENGTH)
            for core in range(num_cores)
        ]
        divergence = diff_multicore("lru", traces, config, num_cores)
        assert (divergence.driver, divergence.kind) == ("native", "llc tick")


class TestGoldenSystemSections:
    def test_corpus_has_system_sections(self):
        corpus = load_goldens()
        assert corpus["version"] == GOLDEN_VERSION
        assert set(corpus["system_traces"]) == {
            spec.name for spec in SYSTEM_GOLDEN_SPECS
        }
        assert "hierarchy" in corpus and "multicore" in corpus

    def test_checked_in_corpus_is_clean(self):
        assert check_goldens() == []

    def test_drift_detection(self, tmp_path):
        corpus = load_goldens()
        mutated = json.loads(json.dumps(corpus))
        record = mutated["hierarchy"]["lru"]["hier_mixed_g1"]
        record["memory_reads"] += 1
        path = tmp_path / "goldens.json"
        path.write_text(json.dumps(mutated))
        problems = check_goldens(path)
        assert len(problems) == 1
        assert "golden drift" in problems[0]
        assert "memory_reads" in problems[0]

    def test_missing_policy_detection(self, tmp_path):
        corpus = load_goldens()
        mutated = json.loads(json.dumps(corpus))
        del mutated["multicore"]["ucp"]
        path = tmp_path / "goldens.json"
        path.write_text(json.dumps(mutated))
        problems = check_goldens(path)
        assert any("multicore policy 'ucp' missing" in p for p in problems)

    def test_system_record_matches_corpus(self):
        # One cell re-derived from scratch equals its pinned record.
        corpus = load_goldens()
        spec = next(s for s in SYSTEM_GOLDEN_SPECS if s.name == "mc2_conflict_g1")
        fresh = _jsonify(system_golden_record("rwp", spec, check_scalar=True))
        assert fresh == corpus["multicore"]["rwp"][spec.name]
