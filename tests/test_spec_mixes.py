"""Unit tests for the SPEC-like model registry and multicore mixes."""

import pytest

from repro.trace.generator import LINE_SIZE
from repro.trace.mixes import (
    MixSpec,
    get_mix,
    mix_benchmarks,
    mix_names,
    mix_specs,
    register_mix,
)
from repro.trace.spec import (
    ALL_PARAMS,
    MICRO_PARAMS,
    PAPER_LLC_LINES,
    SPEC2006_PARAMS,
    all_models,
    benchmark_names,
    make_model,
    sensitive_names,
)

SPEC_INT = {
    "perlbench", "bzip2", "gcc", "mcf", "gobmk", "hmmer", "sjeng",
    "libquantum", "h264ref", "omnetpp", "astar", "xalancbmk",
}
SPEC_FP = {
    "bwaves", "gamess", "milc", "zeusmp", "gromacs", "cactusADM",
    "leslie3d", "namd", "dealII", "soplex", "povray", "calculix",
    "GemsFDTD", "tonto", "lbm", "wrf", "sphinx3",
}


class TestRegistryCompleteness:
    def test_all_29_spec2006_benchmarks_present(self):
        assert set(SPEC2006_PARAMS) == SPEC_INT | SPEC_FP
        assert len(SPEC2006_PARAMS) == 29

    def test_every_benchmark_categorized(self):
        for name, params in SPEC2006_PARAMS.items():
            assert params.category in ("sensitive", "streaming", "compute"), name

    def test_sensitive_subset_nonempty(self):
        sensitive = sensitive_names()
        assert len(sensitive) >= 8
        assert "mcf" in sensitive

    def test_category_filter(self):
        streaming = benchmark_names("streaming")
        assert "libquantum" in streaming
        assert "mcf" not in streaming

    def test_micro_models_present(self):
        assert "micro_dead_writes" in MICRO_PARAMS
        assert "micro_fit" in MICRO_PARAMS

    def test_params_weights_positive(self):
        for name, params in ALL_PARAMS.items():
            for weight, kind, mode, ws in params.kernels:
                assert weight > 0, name
                assert kind in ("loop", "chase", "stream"), name
                assert mode in ("read", "write", "rmw"), name


class TestModelConstruction:
    def test_make_model_unknown_raises(self):
        with pytest.raises(KeyError, match="unknown benchmark"):
            make_model("quake3")

    def test_working_sets_scale_with_llc(self):
        small = make_model("mcf", llc_lines=1024)
        large = make_model("mcf", llc_lines=4096)
        small_ws = max(s.ws_lines for _, s in small.kernels)
        large_ws = max(s.ws_lines for _, s in large.kernels)
        assert 3.8 < large_ws / small_ws < 4.2

    def test_minimum_working_set_floor(self):
        model = make_model("gamess", llc_lines=64)
        assert all(s.ws_lines >= 16 for _, s in model.kernels if s.kind != "stream")

    def test_all_models_generate(self):
        for name, model in all_models(llc_lines=256).items():
            trace = model.generate(200, seed=1)
            assert len(trace) == 200, name
            assert all(a % LINE_SIZE == 0 for a in trace.addresses), name

    def test_sensitive_models_have_dirty_traffic(self):
        for name in sensitive_names():
            model = make_model(name, llc_lines=1024)
            trace = model.generate(4000, seed=1)
            assert trace.write_fraction > 0.05, name

    def test_compute_models_are_light(self):
        for name in benchmark_names("compute"):
            assert SPEC2006_PARAMS[name].ipa_mean >= 200, name

    def test_paper_scale_default(self):
        model = make_model("mcf")
        biggest = max(s.ws_lines for _, s in model.kernels)
        assert biggest > PAPER_LLC_LINES // 2


#: the paper's ten 4-core private all-model mixes.
PAPER_FOUR_CORE = mix_specs(core_count=4, sharing=False, models_only=True)


class TestMixes:
    def test_ten_mixes_of_four(self):
        assert len(PAPER_FOUR_CORE) == 10
        for name in mix_names(4):
            assert len(mix_benchmarks(name)) == 4

    def test_four_core_shim_is_models_only(self):
        # The paper's mixes are exactly ten all-SPEC mixes; stress-kernel
        # mixes live only in the full registry.
        for spec in PAPER_FOUR_CORE:
            for bench in spec.benchmarks:
                assert bench in SPEC2006_PARAMS

    def test_all_mix_members_are_valid_workloads(self):
        from repro.trace.workload import WorkloadSpec

        for name in mix_names():
            for bench in mix_benchmarks(name):
                spec = WorkloadSpec.coerce(bench)
                if spec.kind == "model":
                    assert spec.name in ALL_PARAMS
                else:
                    assert spec.kind == "stress"

    def test_stress_mixes_registered(self):
        assert set(mix_benchmarks("mix2x01_stress_pair")) & set(
            SPEC2006_PARAMS
        )
        stress_members = [
            bench
            for bench in mix_benchmarks("mix4x01_stress_blend")
            if bench.startswith("stress:")
        ]
        assert len(stress_members) == 2

    def test_unknown_mix_raises(self):
        with pytest.raises(KeyError, match="unknown mix"):
            mix_benchmarks("mix99")

    def test_sensitive_mixes_are_sensitive(self):
        for bench in mix_benchmarks("mix01_all_sensitive"):
            assert SPEC2006_PARAMS[bench].category == "sensitive"


class TestMixSpecRegistry:
    def test_core_count_derived_from_benchmarks(self):
        for spec in mix_specs():
            assert spec.core_count == len(spec.benchmarks)

    def test_core_counts_covered(self):
        counts = {spec.core_count for spec in mix_specs()}
        assert {2, 4, 8, 16} <= counts

    def test_core_count_filter(self):
        assert len(mix_names(4, sharing=False)) == 11
        assert len(mix_names(4, sharing=False, models_only=True)) == 10
        for name in mix_names(8):
            assert get_mix(name).core_count == 8
        assert len(mix_names()) >= 16

    def test_models_only_filter(self):
        for name in mix_names(models_only=True):
            assert get_mix(name).models_only
        dropped = set(mix_names()) - set(mix_names(models_only=True))
        assert dropped == {"mix2x01_stress_pair", "mix4x01_stress_blend"}

    def test_sharing_filter(self):
        for name in mix_names(sharing=True):
            assert get_mix(name).sharing is not None
        for name in mix_names(sharing=False):
            assert get_mix(name).sharing is None
        # The shared registry covers every core width of the scaling
        # sweeps.
        shared_counts = {
            get_mix(name).core_count for name in mix_names(sharing=True)
        }
        assert {2, 4, 8, 16} <= shared_counts

    def test_four_core_compat_dict_matches_registry(self):
        for spec in PAPER_FOUR_CORE:
            assert get_mix(spec.name) is spec
            assert mix_benchmarks(spec.name) == spec.benchmarks

    def test_register_duplicate_raises(self):
        with pytest.raises(ValueError, match="duplicate mix"):
            register_mix("mix01_all_sensitive", ("mcf", "omnetpp"))

    def test_spec_validates_benchmarks(self):
        with pytest.raises(ValueError, match="unknown benchmark"):
            MixSpec("bad", ("mcf", "quake3"))
        with pytest.raises(ValueError, match="no benchmarks"):
            MixSpec("empty", ())

    def test_stress_members_accepted_in_private_mixes(self):
        spec = MixSpec("ok", ("mcf", "stress:chase,ws=1k"))
        assert not spec.models_only

    def test_sharing_mixes_require_model_members(self):
        from repro.trace.generator import SharingSpec

        with pytest.raises(ValueError, match="synthetic-model"):
            MixSpec(
                "bad_shared",
                ("mcf", "stress:chase,ws=1k"),
                sharing=SharingSpec.parse(
                    "producer_consumer:frac=0.3,writers=1,ws=512"
                ),
            )
