"""Unit tests for the experiment harnesses (runner, tables, motivation,
sweeps, multicore) at miniature scale so they stay fast."""

import pytest

from repro.experiments.motivation import read_potential, traffic_breakdown
from repro.experiments.multicore_exp import run_mix
from repro.experiments.runner import (
    ExperimentScale,
    cached_trace,
    make_llc_policy,
    run_benchmark,
    run_grid,
    speedups_over,
)
from repro.experiments.sweeps import (
    associativity_sweep,
    rwp_parameter_sweep,
    size_sweep,
)
from repro.experiments.tables import bar, format_percent, format_table

TINY = ExperimentScale(llc_lines=256, warmup_factor=4, measure_factor=8)


class TestScale:
    def test_derived_quantities(self):
        scale = ExperimentScale(llc_lines=1024, warmup_factor=2, measure_factor=6)
        assert scale.warmup == 2048
        assert scale.total_accesses == 8192
        assert scale.llc_config().num_lines == 1024

    def test_hierarchy_geometry(self):
        scale = ExperimentScale(llc_lines=512, ways=8)
        assert scale.llc_config().ways == 8


class TestCachedTrace:
    def test_caching_returns_same_object(self):
        a = cached_trace("micro_fit", 256, 1000, 1)
        b = cached_trace("micro_fit", 256, 1000, 1)
        assert a is b

    def test_different_seed_different_trace(self):
        a = cached_trace("micro_fit", 256, 1000, 1)
        b = cached_trace("micro_fit", 256, 1000, 2)
        assert a.addresses != b.addresses


class TestMakeLLCPolicy:
    def test_rwp_epoch_scales(self):
        small = make_llc_policy("rwp", llc_lines=256)
        large = make_llc_policy("rwp", llc_lines=65536)
        assert small._epoch < large._epoch

    def test_ucp_gets_core_count(self):
        policy = make_llc_policy("ucp", num_cores=4)
        assert policy.num_cores == 4

    def test_plain_policies_from_registry(self):
        assert make_llc_policy("drrip").name == "DRRIPPolicy"

    #: every registered name -> the class it builds
    CLASSES = {
        "bip": "BIPPolicy",
        "brrip": "BRRIPPolicy",
        "dip": "DIPPolicy",
        "drrip": "DRRIPPolicy",
        "lfu": "LFUPolicy",
        "lip": "MRUInsertLRUPolicy",
        "lru": "LRUPolicy",
        "nru": "NRUPolicy",
        "pipp": "PIPPPolicy",
        "random": "RandomPolicy",
        "rrp": "RRPPolicy",
        "rwp": "RWPPolicy",
        "rwp-bypass": "RWPBypassPolicy",
        "rwp-core": "CoreAwareRWPPolicy",
        "rwp-srrip": "RWPSRRIPPolicy",
        "ship": "SHiPPolicy",
        "srrip": "SRRIPPolicy",
        "tadrrip": "TADRRIPPolicy",
        "ucp": "UCPPolicy",
    }

    @pytest.mark.parametrize("llc_lines", (256, 65536))
    @pytest.mark.parametrize("num_cores", (1, 4))
    def test_scale_defaults_per_registered_name(
        self, llc_lines, num_cores, monkeypatch
    ):
        # The registry builds every policy; make_llc_policy only adds
        # the epoch (RWP family) and core count (per-core policies),
        # which spec kwargs override.
        from repro.cache.policy import POLICY_REGISTRY, policy_names

        assert policy_names() == sorted(self.CLASSES)
        received = {}

        def recording(name, factory):
            def build(**kwargs):
                received[name] = kwargs
                return factory(**kwargs)

            return build

        for name, factory in list(POLICY_REGISTRY.items()):
            monkeypatch.setitem(POLICY_REGISTRY, name, recording(name, factory))
        epoch = max(4000, 2 * llc_lines)
        for name, cls in self.CLASSES.items():
            policy = make_llc_policy(name, llc_lines, num_cores)
            assert type(policy).__name__ == cls
            expected = {}
            if name in ("rwp", "rwp-core", "rwp-srrip", "rwp-bypass"):
                expected["epoch"] = epoch
            if name in ("rwp-core", "ucp", "tadrrip", "pipp"):
                expected["num_cores"] = num_cores
            assert received[name] == expected, name
        override = make_llc_policy("rwp-core:epoch=64", llc_lines, num_cores)
        assert override._epoch == 64
        assert received["rwp-core"] == {"epoch": 64, "num_cores": num_cores}


class TestRunBenchmark:
    def test_result_shape(self):
        result = run_benchmark("micro_fit", "lru", TINY)
        assert result.llc_accesses == TINY.total_accesses - TINY.warmup
        assert result.ipc > 0

    def test_grid_covers_pairs(self):
        grid = run_grid(["micro_fit", "micro_stream"], ["lru", "dip"], TINY)
        assert set(grid) == {
            ("micro_fit", "lru"),
            ("micro_fit", "dip"),
            ("micro_stream", "lru"),
            ("micro_stream", "dip"),
        }

    def test_speedups_over_baseline_is_one(self):
        grid = run_grid(["micro_fit"], ["lru", "dip"], TINY)
        speedups = speedups_over(grid, ["micro_fit"], ["lru", "dip"])
        assert speedups["lru"] == [pytest.approx(1.0)]


class TestTables:
    def test_format_table_alignment(self):
        text = format_table(
            ["name", "value"], [["a", 1.23456], ["bb", 2]], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "1.235" in text
        assert all(len(l) == len(lines[2]) for l in lines[2:])

    def test_format_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            format_table(["a"], [[1, 2]])

    def test_format_percent(self):
        assert format_percent(1.063) == "+6.3%"
        assert format_percent(0.95) == "-5.0%"

    def test_bar_clamps(self):
        assert bar(10.0) == "#" * 40
        assert bar(0.0) == ""


class TestMotivation:
    def test_breakdown_fractions_sum(self):
        breakdown = traffic_breakdown("micro_dead_writes", TINY)
        assert 0 < breakdown.read_fraction < 1
        assert 0 <= breakdown.write_only_line_fraction <= 1
        assert breakdown.read_serving_line_fraction == pytest.approx(
            1 - breakdown.write_only_line_fraction
        )

    def test_dead_write_workload_has_dead_lines(self):
        breakdown = traffic_breakdown("micro_dead_writes", TINY)
        assert breakdown.write_only_line_fraction > 0.1

    def test_read_only_workload_has_no_dead_lines(self):
        breakdown = traffic_breakdown("micro_thrash", TINY)
        assert breakdown.write_only_line_fraction == 0.0

    def test_read_potential_ordering(self):
        potential = read_potential("micro_dead_writes", TINY)
        assert potential.read_opt_read_misses <= potential.opt_read_misses
        assert potential.opt_read_misses <= potential.lru_read_misses
        assert 0 <= potential.read_opt_reduction <= 1


class TestSweeps:
    def test_size_sweep_shape(self):
        results = size_sweep(
            ["micro_dead_writes"], ["rwp"], size_factors=(0.5, 1.0), reference=TINY
        )
        assert set(results) == {(0.5, "rwp"), (1.0, "rwp")}
        assert all(v > 0 for v in results.values())

    def test_bigger_cache_shrinks_gap(self):
        # TINY (256 lines) gives RWP less than one repartition epoch, so
        # use a scale where the mechanism actually engages.
        scale = ExperimentScale(llc_lines=512, warmup_factor=8, measure_factor=24)
        results = size_sweep(
            ["micro_dead_writes"], ["rwp"], size_factors=(1.0, 8.0), reference=scale
        )
        # At 8x capacity everything fits: RWP's edge over LRU vanishes.
        assert results[(1.0, "rwp")] > 1.5
        assert results[(8.0, "rwp")] == pytest.approx(1.0, abs=0.02)

    def test_assoc_sweep_shape(self):
        results = associativity_sweep(
            ["micro_dead_writes"], ["rwp"], ways_list=(8, 16), reference=TINY
        )
        assert set(results) == {(8, "rwp"), (16, "rwp")}

    def test_rwp_ablation_grid(self):
        results = rwp_parameter_sweep(
            ["micro_dead_writes"],
            epochs=(1000, 4000),
            samplings=(4,),
            reference=TINY,
        )
        assert set(results) == {(1000, 4), (4000, 4)}

    def test_rwp_ablation_equals_hand_built_runners(self):
        # Each cell is the RWPPolicy(epoch=E, sampling=S) a hand-built
        # LLCRunner loop replays (no kernel), geomean over the same LRU
        # baselines, float for float.
        from repro.core.rwp import RWPPolicy
        from repro.cpu.core import LLCRunner
        from repro.experiments.runner import run_with_geometry
        from repro.multicore.metrics import geometric_mean

        benches = ["mcf", "soplex"]
        epochs, samplings = (500, 2000), (4, 16)
        results = rwp_parameter_sweep(benches, epochs, samplings, TINY)
        baselines = {
            bench: run_with_geometry(
                bench, "lru", TINY.llc_lines, TINY.ways, TINY
            )
            for bench in benches
        }
        by_hand = {}
        for epoch in epochs:
            for sampling in samplings:
                speedups = []
                for bench in benches:
                    trace = cached_trace(
                        bench, TINY.llc_lines, TINY.total_accesses, TINY.seed
                    )
                    run = LLCRunner(
                        TINY.hierarchy(),
                        RWPPolicy(epoch=epoch, sampling=sampling),
                    ).run(trace, warmup=TINY.warmup)
                    speedups.append(run.speedup_over(baselines[bench]))
                by_hand[(epoch, sampling)] = geometric_mean(speedups)
        assert results == by_hand


class TestMulticoreExperiment:
    def test_run_mix_metrics_sane(self):
        tiny = ExperimentScale(llc_lines=256, warmup_factor=4, measure_factor=8)
        result = run_mix("mix09_light", "lru", tiny)
        assert 0 < result.weighted_speedup <= 4.0 + 1e-9
        assert 0 < result.harmonic_speedup <= 1.0 + 1e-9
        assert len(result.per_core_ipc) == 4
        assert 0 < result.fairness <= 1.0 + 1e-9
