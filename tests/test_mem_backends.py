"""Memory-backend subsystem: spec grammar, cost-model invariants,
partition parallelism, and the dram adapter's timing equality.

The contract under test (``docs/MEMORY.md``):

* :class:`~repro.mem.spec.BackendSpec` mirrors ``PolicySpec`` exactly --
  canonical strings, sorted kwargs, hash identity, JSON round trips --
  and the default ``dram`` spec keys store entries identically to the
  pre-backend layout (old results stay warm).
* Asymmetry is an invariant, not a convention: every backend rejects
  ``write_mult < 1`` and a costlier write never makes a run *faster*.
* PCM partitions overlap independent requests and serialize same-
  partition ones.
* The ``dram`` adapter reproduces the no-backend timing path
  bit-for-bit, in both llc and hierarchy modes.
"""

import pytest

from repro.common.config import default_hierarchy
from repro.engine.jobs import MixJob, RunJob
from repro.experiments.energy import (
    BACKEND_ENERGY,
    EnergyParams,
    energy_params_for,
)
from repro.experiments.runner import ExperimentScale
from repro.experiments.writefilter import is_monotone_nondecreasing, pcm_spec
from repro.mem import backend_names, make_backend
from repro.mem.dram import DRAMBackend
from repro.mem.nvm import NVMBackend
from repro.mem.pcm import PCMBackend
from repro.mem.spec import BackendSpec

SMALL = ExperimentScale(llc_lines=256, warmup_factor=4, measure_factor=8)


def _config(lines=256, ways=16):
    return default_hierarchy(llc_size=lines * 64, llc_ways=ways)


class TestBackendSpec:
    def test_parse_round_trip(self):
        spec = BackendSpec.parse("pcm:write_mult=4:partitions=16")
        assert spec.name == "pcm"
        assert spec.kwargs_dict() == {"write_mult": 4, "partitions": 16}
        assert BackendSpec.parse(str(spec)) == spec

    def test_kwarg_free_spec_keys_as_bare_name(self):
        assert BackendSpec.make("dram").key() == "dram"
        assert str(BackendSpec.parse("pcm")) == "pcm"

    def test_kwargs_canonically_sorted(self):
        a = BackendSpec.parse("b:z=1:a=2")
        b = BackendSpec.parse("b:a=2:z=1")
        assert a == b
        assert str(a) == "b:a=2:z=1"

    def test_hash_identity_across_construction_routes(self):
        made = BackendSpec.make("pcm", write_mult=4, partitions=16)
        parsed = BackendSpec.parse("pcm:partitions=16:write_mult=4")
        assert made == parsed
        assert hash(made) == hash(parsed)
        assert len({made, parsed}) == 1  # usable as a cache key

    def test_value_types(self):
        spec = BackendSpec.parse("b:flag=true:n=3:ratio=0.5:tag=abc")
        assert spec.kwargs_dict() == {
            "flag": True, "n": 3, "ratio": 0.5, "tag": "abc",
        }
        assert str(spec) == "b:flag=true:n=3:ratio=0.5:tag=abc"

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="non-empty"):
            BackendSpec("")
        with pytest.raises(ValueError, match="reserved"):
            BackendSpec("a,b")
        with pytest.raises(ValueError, match="identifier"):
            BackendSpec.make("b", **{"2x": 1})
        with pytest.raises(ValueError, match="key=value"):
            BackendSpec.parse("b:oops")
        with pytest.raises(TypeError, match="str or BackendSpec"):
            BackendSpec.coerce(42)

    def test_json_round_trip(self):
        spec = BackendSpec.make("pcm", write_mult=4.0, partitions=8)
        assert BackendSpec.from_dict(spec.to_dict()) == spec

    def test_is_default(self):
        assert BackendSpec.parse("dram").is_default
        assert not BackendSpec.parse("dram:banked=true").is_default
        assert not BackendSpec.parse("pcm").is_default


class TestMakeBackend:
    def test_registry_and_config_defaults(self):
        assert backend_names() == ("dram", "nvm", "pcm")
        config = _config()
        backend = make_backend("pcm", config)
        assert isinstance(backend, PCMBackend)
        assert backend.read_latency == config.memory.latency

    def test_spec_overrides_beat_config(self):
        backend = make_backend("pcm:read_latency=321:write_mult=7", _config())
        assert backend.read_latency == 321
        assert backend.write_mult == 7.0

    def test_unknown_backend_names_the_known_set(self):
        with pytest.raises(ValueError, match="dram, nvm, pcm"):
            make_backend("sram", _config())

    def test_bad_kwargs_rejected(self):
        with pytest.raises(ValueError, match="bad parameters"):
            make_backend("nvm:rows=4", _config())


class TestAsymmetryInvariants:
    @pytest.mark.parametrize("cls", [PCMBackend, NVMBackend])
    def test_write_mult_below_one_rejected(self, cls):
        with pytest.raises(ValueError, match="write_mult"):
            cls(write_mult=0.5)

    @pytest.mark.parametrize("cls", [PCMBackend, NVMBackend])
    def test_write_latency_at_least_read_latency(self, cls):
        for mult in (1.0, 2.5, 10.0):
            backend = cls(read_latency=100, write_mult=mult)
            assert backend.write_latency >= backend.read_latency

    def test_costlier_writes_never_speed_up_a_run(self):
        """End-to-end: cycles are non-decreasing in write_mult."""
        from repro.sim import SimulationSpec, simulate

        cycles = [
            simulate(
                SimulationSpec(
                    "mcf",
                    "lru",
                    mode="hierarchy",
                    scale=SMALL,
                    memory=pcm_spec(mult),
                )
            ).cycles
            for mult in (1, 4, 10)
        ]
        assert is_monotone_nondecreasing(cycles)

    def test_pcm_read_never_cheaper_than_flat_latency(self):
        backend = PCMBackend(read_latency=100, write_mult=4)
        for address in range(0, 4096, 64):
            assert backend.read(address, now=1e9) >= 100


class TestPartitionParallelism:
    def test_writes_to_different_partitions_overlap(self):
        backend = PCMBackend(read_latency=100, write_mult=4, partitions=4)
        line = 64
        backend.write(0 * line, now=0.0)
        backend.write(1 * line, now=0.0)
        # A read to an untouched partition proceeds at full speed...
        assert backend.read(2 * line, now=0.0) == 100.0
        # ...while reads to the written partitions pay the pause wait.
        assert backend.read(0 * line, now=0.0) > 100.0
        assert backend.read(1 * line, now=0.0) > 100.0

    def test_writes_to_same_partition_serialize(self):
        backend = PCMBackend(read_latency=100, write_mult=4, partitions=4)
        backend.write(0, now=0.0)
        backend.write(4 * 64, now=0.0)  # partitions=4: same partition as 0
        assert backend._write_free[0] == 2 * backend.write_latency

    def test_reads_to_same_partition_serialize(self):
        backend = PCMBackend(read_latency=100, write_mult=4, partitions=4)
        first = backend.read(0, now=0.0)
        second = backend.read(0, now=0.0)
        assert first == 100.0
        assert second == 200.0  # waits for the in-flight read
        other = backend.read(64, now=0.0)
        assert other == 100.0  # different partition: unaffected

    def test_pause_wait_bounded_by_slice(self):
        backend = PCMBackend(
            read_latency=100, write_mult=8, partitions=4, pause_slices=8
        )
        backend.write(0, now=0.0)
        # Full write occupies 800 cycles; a read waits at most one
        # iteration slice (800/8 = 100), not the whole write.
        latency = backend.read(0, now=0.0)
        assert latency == pytest.approx(200.0)
        assert backend.pause_events == 1

    def test_full_write_queue_stalls_the_core(self):
        backend = PCMBackend(
            read_latency=10, write_mult=4, partitions=1, queue_entries=2
        )
        assert backend.write(0, now=0.0) == 0.0
        assert backend.write(0, now=0.0) == 0.0
        stall = backend.write(0, now=0.0)
        assert stall > 0.0
        assert backend.queue_full_stalls == 1

    def test_reset_clears_timing_and_counters(self):
        # The timing model resets every backend at the warmup boundary,
        # where the cycle count restarts at 0: no busy horizon, queued
        # write or counter may survive it.  The banked DRAM's cold read
        # is a row miss: t_rp + t_rcd + t_cas + t_base = 200 cycles.
        config = _config()
        for spec, cold_read in (
            ("pcm:read_latency=100:write_mult=4", 100.0),
            ("dram:banked=true", 200.0),
            ("dram:banked=true:scheduler=true", 200.0),
        ):
            backend = make_backend(spec, config)
            for k in range(64):
                backend.write(k * 64 * 16, now=0.0)
                backend.read(k * 64, now=0.0)
            backend.reset()
            assert backend.stats() == make_backend(spec, config).stats(), spec
            assert backend.read(0, now=0.0) == cold_read, spec


class TestDramAdapterEquality:
    """The spec'd dram backend must reproduce the no-backend path."""

    FIELDS = (
        "instructions",
        "cycles",
        "ipc",
        "read_stall_cycles",
        "write_stall_cycles",
        "llc_read_misses",
        "llc_writebacks",
    )

    @pytest.mark.parametrize("mode", ["llc", "hierarchy"])
    @pytest.mark.parametrize("policy", ["lru", "rwp"])
    def test_flat_dram_backend_is_bit_identical(self, mode, policy):
        from repro.sim import SimulationSpec, simulate

        default = simulate(
            SimulationSpec("mcf", policy, mode=mode, scale=SMALL)
        )
        # banked=false spec is non-default, so it routes through the
        # request-level backend ABI instead of the fused fast path.
        adapter = simulate(
            SimulationSpec(
                "mcf",
                policy,
                mode=mode,
                scale=SMALL,
                memory="dram:banked=false",
            )
        )
        for name in self.FIELDS:
            assert getattr(adapter, name) == getattr(default, name), name
        assert "backend" in adapter.extra

    def test_backend_stats_prefix_convention(self):
        config = _config()
        flat = make_backend("dram:banked=false", config)
        flat.read(0, 0.0)
        stats = flat.stats()
        assert stats["backend.reads"] == 1
        assert any(key.startswith("writebuffer.") for key in stats)
        banked = DRAMBackend(banked=True, scheduler=True)
        banked.write(0, 0.0)
        keys = banked.stats()
        assert any(key.startswith("dram.") for key in keys)
        assert any(key.startswith("writequeue.") for key in keys)


class TestStoreKeyWarmness:
    """Default-memory jobs must key identically to pre-backend jobs."""

    def test_run_job_payload_omits_default_memory(self):
        plain = RunJob("mcf", "lru", SMALL)
        explicit = RunJob("mcf", "lru", SMALL, memory="dram")
        assert "memory" not in plain.payload()
        assert plain.payload() == explicit.payload()
        assert plain.key() == explicit.key()

    def test_run_job_payload_keys_non_default_memory(self):
        job = RunJob("mcf", "lru", SMALL, memory="pcm:write_mult=4")
        assert job.payload()["memory"] == "pcm:write_mult=4"
        assert job.key() != RunJob("mcf", "lru", SMALL).key()

    def test_mix_job_payload_mirrors_run_job(self):
        plain = MixJob("mix01_all_sensitive", "lru", SMALL, num_cores=4)
        explicit = MixJob(
            "mix01_all_sensitive", "lru", SMALL, num_cores=4, memory="dram"
        )
        pcm = MixJob(
            "mix01_all_sensitive", "lru", SMALL, num_cores=4,
            memory="pcm:write_mult=4",
        )
        assert "memory" not in plain.payload()
        assert plain.key() == explicit.key()
        assert pcm.payload()["memory"] == "pcm:write_mult=4"

    def test_simulation_spec_label_tags_non_default_memory(self):
        from repro.sim import SimulationSpec

        assert "pcm" in SimulationSpec(
            "mcf", "lru", memory="pcm:write_mult=4"
        ).label
        assert "dram" not in SimulationSpec("mcf", "lru").label


class TestEnergyCoefficients:
    def test_per_backend_coefficients(self):
        for name, (read_nj, write_nj) in BACKEND_ENERGY.items():
            params = energy_params_for(name)
            assert params.dram_read_nj == read_nj
            assert params.dram_write_nj == write_nj

    def test_write_mult_does_not_change_energy(self):
        assert energy_params_for("pcm:write_mult=10") == energy_params_for(
            "pcm"
        )

    def test_unknown_backend_keeps_base_coefficients(self):
        base = EnergyParams(dram_read_nj=1.0, dram_write_nj=2.0)
        params = energy_params_for("sram", base)
        assert params.dram_read_nj == 1.0
        assert params.dram_write_nj == 2.0


class TestCLI:
    def test_list_shows_backends(self, capsys):
        from repro.cli import main

        assert main(["list"]) == 0
        assert "backends:   dram, nvm, pcm" in capsys.readouterr().out

    def test_run_with_memory_option(self, capsys):
        from repro.cli import main

        code = main(
            [
                "run", "mcf", "--mode", "hierarchy",
                "--memory", "pcm:write_mult=4",
                "--llc-lines", "256", "--accesses", "4096", "--no-store",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "pcm:write_mult=4" in out
        assert "pcm.reads" in out

    def test_bad_memory_spec_is_a_clean_error(self, capsys):
        from repro.cli import main

        code = main(
            [
                "run", "mcf", "--memory", "sram",
                "--llc-lines", "256", "--accesses", "4096", "--no-store",
            ]
        )
        assert code == 2
        assert "unknown memory backend" in capsys.readouterr().err
