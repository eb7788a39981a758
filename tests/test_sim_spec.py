"""The SimulationSpec front-end: one entry point, three modes."""

from __future__ import annotations

import pytest

from repro.common.config import default_hierarchy
from repro.cpu.core import HierarchyRunner, LLCRunner
from repro.engine import RunJob
from repro.experiments.runner import (
    ExperimentScale,
    cached_trace,
    make_llc_policy,
    run_benchmark,
    run_with_geometry,
)
from repro.sim import SIMULATION_MODES, SimulationSpec, simulate, simulate_cached
from repro.trace.generator import LINE_SIZE

SCALE = ExperimentScale(llc_lines=256, warmup_factor=2, measure_factor=6)


class TestSpecBasics:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown simulation mode"):
            SimulationSpec("mcf", "lru", mode="warp")

    def test_modes_catalogue(self):
        assert SIMULATION_MODES == ("llc", "hierarchy", "multicore")

    def test_spec_is_hashable_and_labelled(self):
        spec = SimulationSpec("mcf", "rwp", scale=SCALE)
        assert hash(spec) == hash(SimulationSpec("mcf", "rwp", scale=SCALE))
        assert spec.label == "llc:mcf/rwp"
        sized = SimulationSpec("mcf", "rwp", scale=SCALE, llc_lines=512, ways=8)
        assert sized.label.endswith("@512x8")

    def test_multicore_geometry_defaults_to_scaled_shared(self):
        spec = SimulationSpec("mix01_all_sensitive", mode="multicore", scale=SCALE)
        assert spec.geometry_lines == 4 * SCALE.llc_lines

    def test_fields_hold_the_coerced_specs(self):
        from repro.cache.policyspec import PolicySpec
        from repro.kernels.spec import KernelSpec
        from repro.mem.spec import BackendSpec
        from repro.trace.workload import WorkloadSpec

        spec = SimulationSpec("mcf", "rwp", scale=SCALE, memory="dram")
        assert spec.workload == WorkloadSpec.coerce("mcf")
        assert spec.policy == PolicySpec.make("rwp")
        assert spec.memory == BackendSpec.make("dram")
        assert spec.kernel == KernelSpec.make("native")
        assert spec == SimulationSpec(
            "model:mcf", PolicySpec.make("rwp"), scale=SCALE,
            memory=BackendSpec.make("dram"), kernel="native",
        )
        # Multicore workloads stay mix names.
        mix = SimulationSpec("mix01_all_sensitive", mode="multicore")
        assert mix.workload == "mix01_all_sensitive"

    def test_one_memo_entry_per_cell_whatever_the_entry_point(self):
        # The same (mcf, lru) cell through four entry points costs one
        # simulate_cached miss; the kernel stays in the memo key, so a
        # dict-driver spec of the cell is a second entry.
        from repro.experiments.motivation import (
            _read_potential_cached,
            read_potential,
        )

        simulate_cached.cache_clear()
        _read_potential_cached.cache_clear()  # so its LRU leg runs here
        first = RunJob("mcf", "lru", SCALE).execute()
        assert simulate_cached(
            SimulationSpec("mcf", "lru", scale=SCALE)
        ) is first
        assert run_benchmark("mcf", "lru", SCALE) is first
        potential = read_potential("mcf", SCALE)
        assert potential.lru_read_misses == first.llc_read_misses
        info = simulate_cached.cache_info()
        assert (info.misses, info.currsize) == (1, 1)
        dict_run = simulate_cached(
            SimulationSpec("mcf", "lru", scale=SCALE, kernel="dict")
        )
        assert simulate_cached.cache_info().currsize == 2
        assert dict_run is not first
        assert dict_run.to_dict() == first.to_dict()

    def test_multicore_specs_not_memoized(self):
        spec = SimulationSpec("mix01_all_sensitive", mode="multicore", scale=SCALE)
        with pytest.raises(ValueError, match="not memoized"):
            simulate_cached(spec)


class TestModeEquivalence:
    """simulate() must equal driving the runners by hand."""

    def test_llc_mode_matches_llc_runner(self):
        trace = cached_trace(
            "mcf", SCALE.llc_lines, SCALE.total_accesses, SCALE.seed
        )
        direct = LLCRunner(
            SCALE.hierarchy(), make_llc_policy("rwp", SCALE.llc_lines)
        ).run(trace, warmup=SCALE.warmup)
        routed = simulate(SimulationSpec("mcf", "rwp", scale=SCALE))
        assert routed.to_dict() == direct.to_dict()

    def test_geometry_override_matches_run_with_geometry(self):
        routed = simulate(
            SimulationSpec("mcf", "lru", scale=SCALE, llc_lines=512, ways=8)
        )
        legacy = run_with_geometry("mcf", "lru", 512, 8, SCALE)
        assert routed.to_dict() == legacy.to_dict()

    def test_hierarchy_mode_matches_hierarchy_runner(self):
        trace = cached_trace(
            "omnetpp", SCALE.llc_lines, SCALE.total_accesses, SCALE.seed
        )
        direct = HierarchyRunner(
            SCALE.hierarchy(), make_llc_policy("rwp", SCALE.llc_lines)
        ).run(trace, warmup=SCALE.warmup)
        routed = simulate(SimulationSpec("omnetpp", "rwp", mode="hierarchy", scale=SCALE))
        assert routed.to_dict() == direct.to_dict()

    def test_multicore_mode_matches_shared_system(self):
        from repro.multicore.shared import SharedLLCSystem
        from repro.trace.mixes import mix_benchmarks

        mix = "mix01_all_sensitive"
        benches = mix_benchmarks(mix)
        traces = [
            cached_trace(b, SCALE.llc_lines, SCALE.total_accesses, SCALE.seed)
            for b in benches
        ]
        shared_lines = 4 * SCALE.llc_lines
        direct = SharedLLCSystem(
            default_hierarchy(
                llc_size=shared_lines * LINE_SIZE, llc_ways=SCALE.ways
            ),
            4,
            make_llc_policy("rwp", shared_lines, 4),
        ).run(traces, warmup=SCALE.warmup)
        routed = simulate(SimulationSpec(mix, "rwp", mode="multicore", scale=SCALE))
        assert routed.policy == direct.policy
        assert routed.cores == direct.cores

    def test_multicore_mode_rejects_wrong_core_count(self):
        with pytest.raises(ValueError, match="need 3"):
            simulate(
                SimulationSpec(
                    "mix01_all_sensitive",
                    mode="multicore",
                    scale=SCALE,
                    num_cores=3,
                )
            )


class TestHarnessRouting:
    """The public harnesses go through the front-end and the engine."""

    def test_run_benchmark_hierarchy_mode(self):
        routed = run_benchmark("mcf", "lru", SCALE, mode="hierarchy")
        direct = simulate(SimulationSpec("mcf", "lru", mode="hierarchy", scale=SCALE))
        assert routed.to_dict() == direct.to_dict()
        assert "hierarchy" in routed.extra

    def test_run_job_mode_routes_and_keys(self):
        base = RunJob("mcf", "lru", SCALE)
        hier = RunJob("mcf", "lru", SCALE, mode="hierarchy")
        # Default-mode payloads are unchanged, so pre-existing store
        # entries stay warm; hierarchy jobs get their own key space.
        assert "mode" not in base.payload()
        assert hier.payload()["mode"] == "hierarchy"
        assert base.key() != hier.key()
        assert hier.label == "hierarchy:mcf/lru"
        result = hier.execute()
        assert result.to_dict() == simulate(
            SimulationSpec("mcf", "lru", mode="hierarchy", scale=SCALE)
        ).to_dict()

    def test_store_roundtrip_in_hierarchy_mode(self, tmp_path):
        store = tmp_path / "store"
        cold = run_benchmark("lbm", "lru", SCALE, store=store, mode="hierarchy")
        simulate_cached.cache_clear()
        warm = run_benchmark("lbm", "lru", SCALE, store=store, mode="hierarchy")
        assert warm.to_dict() == cold.to_dict()

    def test_mix_harness_routes_through_front_end(self):
        from repro.experiments.multicore_exp import run_mix

        result = run_mix("mix01_all_sensitive", "lru", SCALE)
        routed = simulate(
            SimulationSpec(
                "mix01_all_sensitive", "lru", mode="multicore", scale=SCALE
            )
        )
        assert result.per_core_ipc == tuple(routed.ipcs())

    def test_cli_run_hierarchy_mode(self, capsys):
        from repro.cli import main

        code = main(
            [
                "run",
                "micro_fit",
                "-p",
                "lru",
                "--mode",
                "hierarchy",
                "--llc-lines",
                "256",
                "--accesses",
                "4096",
                "--no-store",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "mode      : hierarchy" in out
