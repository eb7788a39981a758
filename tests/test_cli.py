"""Unit tests for the command-line interface."""

import struct

import pytest

from repro.cli import build_parser, main
from repro.kernels import native_available

FAST = ["--llc-lines", "256", "--accesses", "4096"]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "mcf"])
        assert args.policy == "rwp"
        assert args.llc_lines == 2048


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "mcf" in out
        assert "rwp" in out
        assert "mix01_all_sensitive" in out

    def test_run(self, capsys):
        assert main(["run", "micro_fit", "-p", "lru", *FAST]) == 0
        out = capsys.readouterr().out
        assert "ipc" in out
        assert "LRUPolicy" in out

    def test_run_reports_policy_state(self, capsys):
        assert main(["run", "micro_fit", "-p", "rwp", *FAST]) == 0
        assert "target_clean" in capsys.readouterr().out

    def test_run_names_scalar_fallback(self, capsys):
        # A memory backend sends LLCRunner to its scalar loop; the
        # fallback line gives the reason as recorded.
        from repro.sim import simulate_cached

        # A memo hit simulates nothing, so it would record no reason.
        simulate_cached.cache_clear()
        argv = ["run", "mcf", "-p", "rwp", "--memory", "pcm:write_mult=10"]
        assert main([*argv, *FAST]) == 0
        out = capsys.readouterr().out
        assert "  fallback: memory timing backend is active\n" in out

    def test_run_served_from_the_store_says_no_replay_ran(self, capsys, tmp_path):
        argv = ["run", "micro_fit", "-p", "lru", *FAST, "--store", str(tmp_path)]
        from repro.sim import simulate_cached

        simulate_cached.cache_clear()
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "no replay ran" not in first
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "kernel    : native (no replay ran: result from the store)\n" in second
        assert "fallback" not in second
        # Everything but the kernel record is the same result.
        def strip(out):
            return [
                line for line in out.splitlines()
                if not line.startswith(("kernel", "  fallback"))
            ]

        assert strip(first) == strip(second)

    def test_compare(self, capsys):
        assert main(["compare", "micro_fit", "-p", "lru,rwp", *FAST]) == 0
        out = capsys.readouterr().out
        assert "vs lru" in out
        assert "rwp" in out

    def test_mix(self, capsys):
        assert main(["mix", "mix09_light", "-p", "lru", *FAST]) == 0
        assert "weighted_speedup" in capsys.readouterr().out

    def test_overhead(self, capsys):
        assert main(["overhead"]) == 0
        assert "RWP / RRP state ratio" in capsys.readouterr().out

    def test_motivation_single(self, capsys):
        assert main(["motivation", "micro_dead_writes", *FAST]) == 0
        assert "dead_line_frac" in capsys.readouterr().out

    def test_motivation_sensitive_group(self, capsys):
        assert main(["motivation", "sensitive", *FAST]) == 0
        out = capsys.readouterr().out
        assert "mcf" in out and "soplex" in out

    def test_unknown_benchmark_is_error(self):
        assert main(["run", "quake3", *FAST]) == 2


class TestErrorExitCodes:
    def test_unknown_policy_exits_2(self, capsys):
        assert main(["run", "micro_fit", "-p", "nosuch", *FAST]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_policy_in_compare_exits_2(self, capsys):
        assert main(["compare", "micro_fit", "-p", "lru,nosuch", *FAST]) == 2
        assert "error:" in capsys.readouterr().err

    def test_store_pointing_at_file_exits_2(self, capsys, tmp_path):
        bogus = tmp_path / "not-a-dir"
        bogus.write_text("occupied")
        args = ["run", "micro_fit", "-p", "lru", *FAST, "--store", str(bogus)]
        assert main(args) == 2
        assert "error:" in capsys.readouterr().err

    def test_verify_unknown_policy_exits_2(self, capsys):
        args = ["verify", "--fuzz", "2", "--policies", "lru,nosuch",
                "--no-store", "--skip-golden", "-q"]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "no oracle" in err and "nosuch" in err

    @pytest.mark.parametrize(
        "command",
        (
            ["run", "micro_fit"],
            ["sweep", "-b", "micro_fit", "-p", "lru"],
            ["bench", "--quick"],
        ),
        ids=lambda command: command[0],
    )
    def test_kernel_parameters_exit_2(self, capsys, command):
        with pytest.raises(SystemExit) as exit_info:
            main([*command, "--kernel", "native:threads=2"])
        assert exit_info.value.code == 2
        assert "kernel 'native' takes no parameters" in capsys.readouterr().err


class TestVerifyCommand:
    ARGS = ["verify", "--skip-golden", "--fuzz", "0", "--system-fuzz", "4",
            "--length", "256", "--no-store"]

    def test_system_summary_counts_jobs_that_compared_nothing(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "system: 4 hierarchy/multicore jobs  divergent: 0  " in out
        # The fourth job runs multicore DIP, which the kernel declines,
        # so at least that one compared the scalar interleave with itself.
        assert "compared none: " in out
        assert "compared none: 0 " not in out

    @pytest.mark.skipif(
        not native_available(), reason="no C compiler for the native kernel"
    )
    def test_fuzz_summary_counts_native_declines(self, capsys):
        # One job per policy: the kernel declines bip, nru, lfu, srrip,
        # brrip and random, whose native leg replays the dict loop.
        fuzz = ["verify", "--skip-golden", "--fuzz", "13", "--system-fuzz",
                "0", "--length", "256", "--no-store"]
        assert main(fuzz) == 0
        out = capsys.readouterr().out
        assert "divergent: 0  native declined: 6  " in out

    def test_divergence_is_reported_once_per_job(self, capsys, monkeypatch):
        from repro.verify.system import SystemDivergence, SystemFuzzJob

        divergence = SystemDivergence("multicore", "lru", "llc tick", 1, 2, "native")
        monkeypatch.setattr(SystemFuzzJob, "run", lambda self: (divergence, []))
        assert main(self.ARGS) == 1
        captured = capsys.readouterr()
        assert captured.err.count(divergence.describe()) == 4
        assert "compared none: 4 " in captured.out
        assert "verify: FAILED (4 problem(s))" in captured.err


class TestSweepCommand:
    SWEEP = [
        "sweep",
        "--benchmarks",
        "micro_fit,micro_stream",
        "--policies",
        "lru,rwp",
        "--quiet",
        *FAST,
    ]

    def test_cold_then_warm(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        assert main([*self.SWEEP, "--store", store]) == 0
        cold = capsys.readouterr().out
        assert "GEOMEAN" in cold
        assert "simulated: 4" in cold and "cache_hits: 0" in cold

        # Warm rerun: every job served from the store, zero simulations.
        assert main([*self.SWEEP, "--store", store]) == 0
        warm = capsys.readouterr().out
        assert "simulated: 0" in warm and "cache_hits: 4" in warm

    def test_no_store_runs_fresh(self, capsys):
        assert main([*self.SWEEP, "--no-store"]) == 0
        out = capsys.readouterr().out
        assert "cache_hits: 0" in out

    def test_parallel_jobs(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        assert main([*self.SWEEP, "--store", store, "--jobs", "2"]) == 0
        assert "failed: 0" in capsys.readouterr().out

    def test_csv_export(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        csv_path = tmp_path / "grid.csv"
        assert main([*self.SWEEP, "--store", store, "--csv", str(csv_path)]) == 0
        assert csv_path.exists()
        assert "benchmark" in csv_path.read_text().splitlines()[0]

    def test_run_accepts_store(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        args = ["run", "micro_fit", "-p", "lru", *FAST, "--store", store]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_run_accepts_policyspec_string(self, capsys):
        args = ["run", "micro_fit", "-p", "rwp:epoch=2048", *FAST,
                "--no-store"]
        assert main(args) == 0
        assert "RWPPolicy" in capsys.readouterr().out


class TestMulticoreSweep:
    SWEEP = [
        "sweep",
        "--mode",
        "multicore",
        "--mixes",
        "mix2c01_sens_pair",
        "--policies",
        "lru,rwp-core",
        "--quiet",
        *FAST,
    ]

    def test_cold_then_warm(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        assert main([*self.SWEEP, "--store", store]) == 0
        cold = capsys.readouterr().out
        assert "GEOMEAN" in cold
        assert "mix2c01_sens_pair (2c)" in cold
        assert "simulated: 2" in cold and "cache_hits: 0" in cold

        assert main([*self.SWEEP, "--store", store]) == 0
        warm = capsys.readouterr().out
        assert "simulated: 0" in warm and "cache_hits: 2" in warm

    def test_core_count_filter(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        args = [
            "sweep", "--mode", "multicore", "--cores", "2",
            "--policies", "lru", "--quiet", *FAST, "--store", store,
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "(2c)" in out
        assert "(4c)" not in out

    def test_unknown_mix_is_error(self, capsys):
        args = [
            "sweep", "--mode", "multicore", "--mixes", "mix99",
            "--policies", "lru", "--quiet", *FAST, "--no-store",
        ]
        assert main(args) == 2
        assert "unknown mix" in capsys.readouterr().err


class TestWorkloadCli:
    def test_list_workloads(self, capsys):
        assert main(["list", "workloads"]) == 0
        out = capsys.readouterr().out
        assert "mcf" in out
        stress_lines = [
            line for line in out.splitlines() if "stress:" in line
        ]
        assert len(stress_lines) >= 200

    def test_run_workload_flag(self, capsys):
        args = ["run", "--workload", "stress:chase,ws=1k,rw=0.3,depth=4",
                "-p", "rwp", *FAST, "--no-store"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "stress:chase,depth=4,rw=0.3,ws=1k" in out
        assert "ipc" in out

    def test_run_positional_and_flag_conflict(self, capsys):
        args = ["run", "mcf", "--workload", "mcf", *FAST]
        assert main(args) == 2
        assert "not both" in capsys.readouterr().err

    def test_run_without_workload_exits_2(self, capsys):
        assert main(["run", *FAST]) == 2
        assert "no workload given" in capsys.readouterr().err

    def test_bad_workload_spec_exits_2(self, capsys):
        args = ["run", "--workload", "stress:zigzag,ws=1k", *FAST]
        assert main(args) == 2
        assert "error:" in capsys.readouterr().err

    def test_sweep_workloads_with_glob(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        args = [
            "sweep", "--workloads", "model:micro_f*",
            "stress:chase,depth=4,rw=0.3,ws=1k",
            "--policies", "lru", "--quiet", *FAST, "--store", store,
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "micro_fit" in out
        assert "stress:chase,depth=4,rw=0.3,ws=1k" in out

        # Resumable: warm rerun serves every job from the store.
        assert main(args) == 0
        assert "simulated: 0" in capsys.readouterr().out

    def test_ingest_round_trip(self, capsys, tmp_path):
        log = tmp_path / "capture.txt"
        log.write_text(
            "0x4000 0x10000 LD\n"
            "mangled row\n"
            "0x4004 0x10040 ST\n"
        )
        out_path = tmp_path / "capture.npz"
        assert main(["ingest", str(log), "-o", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert out_path.exists()
        assert "records   : 2" in out
        assert "skipped   : 1" in out
        assert f"interchange:{out_path}" in out

    def test_ingest_strict_exits_2(self, capsys, tmp_path):
        log = tmp_path / "capture.txt"
        log.write_text("0x4000 0x10000 LD\nmangled row\n")
        assert main(["ingest", str(log), "--strict"]) == 2
        assert "error:" in capsys.readouterr().err

    @staticmethod
    def _champsim(path, records):
        """Raw ChampSim records, one load ``(ip, address)`` each."""
        layout = struct.Struct("<QBB2B4B2Q4Q")
        with open(path, "wb") as handle:
            for ip, address in records:
                handle.write(layout.pack(ip, *[0] * 10, address, 0, 0, 0))
        return path

    @pytest.mark.parametrize(
        "record,named",
        (
            ((0x400004, 0xFFFF800000001000), "address 0xffff800000001000"),
            ((0xFFFFFFFF81000000, 0x10040), "pc 0xffffffff81000000"),
        ),
        ids=("address", "pc"),
    )
    def test_ingest_champsim_past_int64_exits_2(
        self, capsys, tmp_path, record, named
    ):
        path = self._champsim(
            tmp_path / "capture.champsim", [(0x400000, 0x10000), record]
        )
        assert main(["ingest", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"capture.champsim: record 1: {named} is outside" in err
        assert not (tmp_path / "capture.champsim.npz").exists()

    @pytest.mark.parametrize(
        "line,named",
        (
            ("0xffff800000001000 0 0x400 1", "address 0xffff800000001000"),
            ("0x10040 1 0x8000000000000000 1", "pc 0x8000000000000000"),
            ("0x10040 0 0x400 9223372036854775808", "gap 0x8000000000000000"),
        ),
        ids=("address", "pc", "gap"),
    )
    def test_ingest_text_past_int64_names_the_line(
        self, capsys, tmp_path, line, named
    ):
        import gzip

        path = tmp_path / "big.trace.gz"
        with gzip.open(path, "wt") as handle:
            handle.write(
                "# repro-trace v1: address is_write pc instr_gap\n"
                "0x10000 0 0x400 1\n"
                f"{line}\n"
            )
        assert main(["ingest", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"big.trace.gz:3: {named} is outside the [0, 2**63)" in err

    def test_ingest_memsample_past_int64_is_skipped(self, capsys, tmp_path):
        log = tmp_path / "capture.txt"
        log.write_text(
            "0x4000 0x10000 LD\n"
            "0x4004 0xffff800000001000 LD\n"
            "0x4008 0x10040 ST\n"
        )
        out_path = tmp_path / "capture.npz"
        assert main(["ingest", str(log), "-o", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "records   : 2" in out
        assert "skipped   : 1" in out
        assert main(["ingest", str(log), "--strict"]) == 2
        err = capsys.readouterr().err
        assert "capture.txt:2: address 0xffff800000001000 is outside" in err
        gaps = tmp_path / "gaps.txt"
        gaps.write_text("addr op gap\n0x10000 LD 1\n0x10040 LD -5\n")
        assert main(["ingest", str(gaps)]) == 0
        assert "skipped   : 1" in capsys.readouterr().out

    def test_ingest_champsim_round_trip_runs(self, capsys, tmp_path):
        records = [
            (0x400000 + 4 * (i % 50), 0x10000 + 64 * (i * 7 % 700))
            for i in range(3000)
        ]
        path = self._champsim(tmp_path / "loop.champsim", records)
        out_path = tmp_path / "loop.npz"
        assert main(["ingest", str(path), "-o", str(out_path)]) == 0
        assert "records   : 3,000" in capsys.readouterr().out
        args = ["run", "--workload", f"interchange:{out_path}", "-p", "rwp",
                *FAST, "--no-store"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "ipc" in out

    def test_unreadable_store_list_still_works(self, capsys, tmp_path,
                                               monkeypatch):
        bogus = tmp_path / "not-a-dir"
        bogus.write_text("occupied")
        monkeypatch.setenv("REPRO_STORE", str(bogus))
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "is unreadable" in out
        assert "mcf" in out
