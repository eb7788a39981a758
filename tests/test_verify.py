"""Tests for the differential conformance harness.

Three layers:

- harness mechanics: the fuzzer is deterministic, jobs are
  engine-shaped, the golden corpus round-trips;
- sensitivity: an intentionally injected off-by-one in LRU victim
  selection must be caught and shrunk to a tiny reproducer, and a
  tampered golden corpus must fail with a message naming the policy and
  the first diverging statistic;
- conformance: every oracle-backed policy agrees with the production
  model on fuzzed traces (a smoke slice in tier-1, the full sweep under
  ``REPRO_DEEP_TESTS=1`` / ``-m fuzz``).
"""

import json

import pytest

from repro.cache.basic import LRUPolicy
from repro.cache.cache import SetAssociativeCache
from repro.common.config import CacheConfig
from repro.kernels import native_available
from repro.verify import (
    FUZZ_GEOMETRIES,
    GOLDEN_SPECS,
    SCENARIOS,
    VERIFY_POLICIES,
    FuzzJob,
    check_goldens,
    diff_policy,
    fuzz_trace,
    load_goldens,
    make_oracle_cache,
    make_sut_cache,
    plan_fuzz_jobs,
    replay,
    write_goldens,
)
from repro.verify.golden import golden_record


def _config(num_sets: int, ways: int) -> CacheConfig:
    return CacheConfig(size=num_sets * ways * 64, ways=ways, name="verify")


class TestFuzzer:
    def test_deterministic(self):
        a = fuzz_trace("conflict", 7, 16, 4, 256)
        b = fuzz_trace("conflict", 7, 16, 4, 256)
        assert list(a) == list(b)

    def test_seeds_differ(self):
        a = fuzz_trace("conflict", 7, 16, 4, 256)
        b = fuzz_trace("conflict", 8, 16, 4, 256)
        assert list(a) != list(b)

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_every_scenario_produces_full_length(self, scenario):
        trace = fuzz_trace(scenario, 3, 16, 4, 300)
        assert len(trace) == 300

    def test_unknown_scenario_rejected(self):
        with pytest.raises(KeyError, match="unknown fuzz scenario"):
            fuzz_trace("nosuch", 1, 16, 4, 64)

    def test_dirty_storm_forces_writebacks(self):
        trace = fuzz_trace("dirty_storm", 5, 16, 4, 1024)
        sut = make_sut_cache("lru", _config(16, 4))
        for address, is_write, pc, _gap in trace:
            sut.access(address, is_write, pc)
        assert sut.writebacks > 50

    def test_bypass_pc_triggers_rrp_bypasses(self):
        trace = fuzz_trace("bypass_pc", 5, 16, 4, 1024)
        sut = make_sut_cache("rrp", _config(16, 4))
        for address, is_write, pc, _gap in trace:
            sut.access(address, is_write, pc)
        assert sut.bypasses > 0


class TestSutPolicyFactory:
    #: every name the single-cache and multicore verifiers build -> class
    CLASSES = {
        "bip": "BIPPolicy",
        "brrip": "BRRIPPolicy",
        "dip": "DIPPolicy",
        "drrip": "DRRIPPolicy",
        "lfu": "LFUPolicy",
        "lru": "LRUPolicy",
        "nru": "NRUPolicy",
        "pipp": "PIPPPolicy",
        "random": "RandomPolicy",
        "rrp": "RRPPolicy",
        "rwp": "RWPPolicy",
        "rwp-core": "CoreAwareRWPPolicy",
        "ship": "SHiPPolicy",
        "srrip": "SRRIPPolicy",
        "tadrrip": "TADRRIPPolicy",
        "ucp": "UCPPolicy",
    }

    @pytest.mark.parametrize("num_cores", (1, 4))
    def test_every_verified_name(self, num_cores, monkeypatch):
        # The registry builds every policy; make_sut_policy only adds
        # the short verification epoch (rwp, rwp-core) and the core
        # count (per-core policies).
        from repro.cache.policy import POLICY_REGISTRY, policy_names
        from repro.verify import (
            MULTICORE_VERIFY_POLICIES,
            VERIFY_RWP_EPOCH,
        )
        from repro.verify.differ import make_sut_policy

        names = set(VERIFY_POLICIES) | set(MULTICORE_VERIFY_POLICIES)
        assert names == set(self.CLASSES)
        assert names <= set(policy_names())  # loads the whole registry
        received = {}

        def recording(name, factory):
            def build(**kwargs):
                received[name] = kwargs
                return factory(**kwargs)

            return build

        for name, factory in list(POLICY_REGISTRY.items()):
            monkeypatch.setitem(POLICY_REGISTRY, name, recording(name, factory))
        for name, cls in self.CLASSES.items():
            policy = make_sut_policy(name, num_cores)
            assert type(policy).__name__ == cls
            expected = {}
            if name in ("rwp", "rwp-core"):
                expected["epoch"] = VERIFY_RWP_EPOCH
            if name in ("rwp-core", "ucp", "tadrrip", "pipp"):
                expected["num_cores"] = num_cores
            assert received[name] == expected, name
            if "num_cores" in expected:
                assert policy.num_cores == num_cores
        # The single-cache default pins one core.
        assert make_sut_policy("rwp-core").num_cores == 1


class TestOracleCache:
    def test_tracks_production_on_simple_trace(self):
        config = _config(8, 2)
        records = [
            (line * 64, bool(line % 3 == 0), 4 * (line % 5 + 1))
            for line in range(40)
        ] * 3
        assert replay("lru", records, config) is None

    def test_writeback_address_reconstruction(self):
        oracle = make_oracle_cache("lru", _config(4, 1))
        # Fill set 1 with tag 0, dirty; then evict it with tag 1.
        oracle.access(1 * 64, True, 4)
        hit, bypassed, writeback = oracle.access((4 + 1) * 64, False, 4)
        assert (hit, bypassed) == (False, False)
        assert writeback == 1 * 64


class TestSensitivity:
    """The harness must catch an injected bug and shrink the repro."""

    @staticmethod
    def _broken_lru_cache(config: CacheConfig) -> SetAssociativeCache:
        class BrokenLRU(LRUPolicy):
            def victim(self, cache_set, set_index, is_write, pc, core):
                lines = cache_set.lines[1:]  # off-by-one: way 0 immortal
                best = lines[0]
                for line in lines:
                    if line.stamp < best.stamp:
                        best = line
                return best

        return SetAssociativeCache(config, BrokenLRU())

    def test_injected_off_by_one_is_caught_and_shrunk(self):
        config = _config(8, 2)
        trace = fuzz_trace("conflict", 11, 8, 2, 512)
        divergence, _ = diff_policy(
            "lru", trace, config, sut_factory=self._broken_lru_cache
        )
        assert divergence is not None
        assert divergence.records, "shrunken repro must be attached"
        assert len(divergence.records) <= 20
        # The repro must actually reproduce standalone.
        again = replay(
            "lru", divergence.records, config,
            sut_factory=self._broken_lru_cache,
        )
        assert again is not None
        # And the describe() output is self-contained.
        text = divergence.describe()
        assert "lru" in text and "repro" in text

    def test_conformant_policy_reports_none(self):
        config = _config(8, 2)
        trace = fuzz_trace("conflict", 11, 8, 2, 512)
        assert diff_policy("lru", trace, config)[0] is None


class TestDriverCheck:
    """A corrupted batched driver is reported by name, and shrunk."""

    @staticmethod
    def _corrupt_dict_driver(monkeypatch, corrupt):
        original = SetAssociativeCache.run_trace

        def run_trace(self, decoded, *args, **kwargs):
            ran = original(self, decoded, *args, **kwargs)
            if self.kernel is None:
                corrupt(self)
            return ran

        monkeypatch.setattr(SetAssociativeCache, "run_trace", run_trace)

    @staticmethod
    def _bump_read_hits(cache):
        cache.stats.read_hits += 1

    def test_dict_run_trace_stat_is_caught_and_shrunk(self, monkeypatch):
        self._corrupt_dict_driver(monkeypatch, self._bump_read_hits)
        trace = fuzz_trace("conflict", 11, 8, 2, 256)
        divergence, _ = diff_policy("lru", trace, _config(8, 2))
        assert divergence is not None
        assert divergence.kind == "dict run_trace read_hits"
        assert divergence.expected + 1 == divergence.actual
        # Every trace diverges, so the repro shrinks to one access.
        assert len(divergence.records) == 1

    def test_dict_run_trace_state_is_caught(self, monkeypatch):
        def flip_dirty(cache):
            line = next(line for s in cache.sets for line in s.lines if line.valid)
            line.dirty = not line.dirty

        self._corrupt_dict_driver(monkeypatch, flip_dirty)
        trace = fuzz_trace("dirty_storm", 5, 16, 4, 256)
        divergence = replay("lru", trace, _config(16, 4))
        assert divergence is not None
        assert divergence.kind == "dict run_trace state digest"

    @pytest.mark.skipif(
        not native_available(), reason="no C compiler for the native kernel"
    )
    def test_native_run_trace_is_caught(self, monkeypatch):
        from repro.kernels.runner import KernelRuntime

        original = KernelRuntime.try_run_trace

        def try_run_trace(self, cache, *args):
            ran = original(self, cache, *args)
            if ran is not None:
                cache.stats.read_hits += 1
            return ran

        monkeypatch.setattr(KernelRuntime, "try_run_trace", try_run_trace)
        trace = fuzz_trace("conflict", 11, 8, 2, 256)
        divergence = replay("lru", trace, _config(8, 2))
        assert divergence is not None
        assert divergence.kind == "native run_trace read_hits"
        assert "native run_trace" in divergence.describe()

    def test_goldens_refuse_a_disagreeing_driver(self, monkeypatch):
        self._corrupt_dict_driver(monkeypatch, self._bump_read_hits)
        with pytest.raises(AssertionError, match="dict run_trace read_hits"):
            golden_record("lru", GOLDEN_SPECS[0], check_batched=True)


class TestFuzzJob:
    def test_key_is_stable_and_param_sensitive(self):
        a = FuzzJob("lru", "conflict", 1, 16, 4)
        b = FuzzJob("lru", "conflict", 1, 16, 4)
        c = FuzzJob("lru", "conflict", 2, 16, 4)
        assert a.key() == b.key()
        assert a.key() != c.key()

    def test_execute_round_trips_through_codec(self):
        job = FuzzJob("lru", "conflict", 1, 8, 2, length=128)
        result = job.execute()
        assert result["ok"] is True
        assert FuzzJob.decode(FuzzJob.encode(result)) == result

    @pytest.mark.skipif(
        not native_available(), reason="no C compiler for the native kernel"
    )
    def test_results_name_the_drivers_that_served(self):
        jobs = plan_fuzz_jobs(len(VERIFY_POLICIES), length=256)
        drivers = {job.policy: job.execute()["drivers"] for job in jobs}
        declined = {p for p, served in drivers.items() if "native" not in served}
        assert declined == {"bip", "nru", "lfu", "srrip", "brrip", "random"}
        assert drivers["ship"] == drivers["rrp"] == ["dict", "native"]
        assert all(served[0] == "dict" for served in drivers.values())

    def test_plan_covers_all_policies_scenarios_geometries(self):
        jobs = plan_fuzz_jobs(len(VERIFY_POLICIES) * len(SCENARIOS) * 6)
        assert {j.policy for j in jobs} == set(VERIFY_POLICIES)
        assert {j.scenario for j in jobs} == set(SCENARIOS)
        assert {(j.num_sets, j.ways) for j in jobs} == set(FUZZ_GEOMETRIES)
        assert len({j.seed for j in jobs}) == len(jobs)

    def test_plan_small_count_rotates_policies_first(self):
        jobs = plan_fuzz_jobs(3)
        assert [j.policy for j in jobs] == ["lru", "bip", "dip"]


class TestGoldenCorpus:
    def test_checked_in_corpus_is_current(self):
        assert check_goldens() == []

    def test_tampered_stat_names_policy_and_stat(self, tmp_path):
        path = tmp_path / "goldens.json"
        write_goldens(path)
        corpus = json.loads(path.read_text())
        corpus["policies"]["rwp"]["mixed_16x4"]["stats"]["writebacks"] += 1
        path.write_text(json.dumps(corpus))
        problems = check_goldens(path)
        assert len(problems) == 1
        message = problems[0]
        assert "'rwp'" in message
        assert "'writebacks'" in message
        assert "'mixed_16x4'" in message
        assert "--regen-goldens" in message

    def test_tampered_digest_is_reported(self, tmp_path):
        path = tmp_path / "goldens.json"
        write_goldens(path)
        corpus = json.loads(path.read_text())
        corpus["policies"]["lru"]["conflict_16x4"]["state_digest"] = "bogus"
        path.write_text(json.dumps(corpus))
        problems = check_goldens(path)
        assert len(problems) == 1
        assert "digest" in problems[0] and "'lru'" in problems[0]

    def test_missing_policy_is_reported(self, tmp_path):
        path = tmp_path / "goldens.json"
        write_goldens(path)
        corpus = json.loads(path.read_text())
        del corpus["policies"]["ship"]
        path.write_text(json.dumps(corpus))
        problems = check_goldens(path)
        assert any("'ship'" in p and "missing" in p for p in problems)

    def test_missing_file_is_actionable(self, tmp_path):
        problems = check_goldens(tmp_path / "nope.json")
        assert len(problems) == 1
        assert "--regen-goldens" in problems[0]

    def test_version_mismatch_is_reported(self, tmp_path):
        path = tmp_path / "goldens.json"
        write_goldens(path)
        corpus = json.loads(path.read_text())
        corpus["version"] = 999
        path.write_text(json.dumps(corpus))
        problems = check_goldens(path)
        assert len(problems) == 1 and "version" in problems[0]

    def test_corpus_covers_every_policy_and_trace(self):
        corpus = load_goldens()
        assert set(corpus["policies"]) == set(VERIFY_POLICIES)
        for policy in VERIFY_POLICIES:
            assert set(corpus["policies"][policy]) == {
                spec.name for spec in GOLDEN_SPECS
            }


class TestConformanceSmoke:
    """One quick differential run per policy rides in tier-1."""

    @pytest.mark.parametrize("policy", VERIFY_POLICIES)
    def test_policy_matches_oracle(self, policy):
        config = _config(16, 4)
        trace = fuzz_trace("mixed", 42, 16, 4, 768)
        divergence, _ = diff_policy(policy, trace, config)
        assert divergence is None, divergence.describe()

    def test_dueling_followers_match_oracle(self):
        # 128 sets is the only geometry with DIP/DRRIP follower sets.
        config = _config(128, 4)
        for policy in ("dip", "drrip"):
            trace = fuzz_trace("phase_shift", 9, 128, 4, 1024)
            divergence, _ = diff_policy(policy, trace, config)
            assert divergence is None, divergence.describe()


@pytest.mark.fuzz
class TestConformanceDeep:
    """The full cross-product, only under REPRO_DEEP_TESTS=1 / -m fuzz."""

    @pytest.mark.parametrize("policy", VERIFY_POLICIES)
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_policy_scenario_grid(self, policy, scenario):
        for num_sets, ways in FUZZ_GEOMETRIES:
            config = _config(num_sets, ways)
            trace = fuzz_trace(scenario, 2014, num_sets, ways, 2048)
            divergence, _ = diff_policy(policy, trace, config)
            assert divergence is None, divergence.describe()


class TestVerifyCommand:
    def test_verify_passes_end_to_end(self, capsys):
        from repro.cli import main

        args = ["verify", "--fuzz", "12", "--no-store", "-q"]
        assert main(args) == 0
        assert "verify: ok" in capsys.readouterr().out

    def test_verify_store_warm_rerun(self, capsys, tmp_path):
        from repro.cli import main

        store = str(tmp_path / "store")
        args = ["verify", "--fuzz", "6", "--skip-golden", "--store", store]
        assert main(args) == 0
        assert main(args) == 0
        assert "cache_hits: 6" in capsys.readouterr().out

    def test_verify_reports_golden_drift(self, capsys, tmp_path):
        from repro.cli import main

        path = tmp_path / "goldens.json"
        write_goldens(path)
        corpus = json.loads(path.read_text())
        corpus["policies"]["lru"]["mixed_16x4"]["stats"]["read_hits"] += 1
        path.write_text(json.dumps(corpus))
        args = ["verify", "--fuzz", "0", "--goldens", str(path), "-q"]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert "golden drift" in err and "'lru'" in err

    def test_regen_goldens_writes_file(self, capsys, tmp_path):
        from repro.cli import main

        path = tmp_path / "fresh.json"
        args = ["verify", "--regen-goldens", "--goldens", str(path)]
        assert main(args) == 0
        assert path.exists()
        assert check_goldens(path) == []
