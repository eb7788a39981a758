"""Fuzz-verification jobs for the execution engine.

A :class:`FuzzJob` is one (policy, scenario, seed, geometry, length)
differential run, shaped exactly like the engine's ``RunJob``: it knows
its content-addressed key (which includes the simulator *and* oracle
source digest, so a warm store entry proves this exact code already
passed this exact trace), how to execute, and how to encode its result
for the on-disk store.  ``repro verify`` plans a deterministic slate of
jobs with :func:`plan_fuzz_jobs` and fans them out through
:func:`repro.engine.run_jobs`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Dict, List, Sequence

from repro.engine.keys import job_key
from repro.verify.fuzzer import FUZZ_GEOMETRIES, SCENARIOS

#: the policies ``repro verify`` covers by default (all oracle-backed).
VERIFY_POLICIES = (
    "lru",
    "bip",
    "dip",
    "nru",
    "lfu",
    "srrip",
    "brrip",
    "drrip",
    "ship",
    "rrp",
    "rwp",
    "rwp-core",
    "random",
)

DEFAULT_TRACE_LENGTH = 1536


@dataclass(frozen=True)
class FuzzJob:
    """One differential conformance run, engine-executable."""

    policy: str
    scenario: str
    seed: int
    num_sets: int
    ways: int
    length: int = DEFAULT_TRACE_LENGTH

    kind: ClassVar[str] = "verify"

    @property
    def label(self) -> str:
        return (
            f"verify:{self.policy}/{self.scenario}"
            f"@{self.num_sets}x{self.ways}#{self.seed}"
        )

    def payload(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "policy": self.policy,
            "scenario": self.scenario,
            "seed": self.seed,
            "num_sets": self.num_sets,
            "ways": self.ways,
            "length": self.length,
        }

    def key(self) -> str:
        return job_key(self.payload())

    def execute(self) -> Dict[str, object]:
        from repro.common.config import CacheConfig
        from repro.verify.differ import diff_policy
        from repro.verify.fuzzer import fuzz_trace

        config = CacheConfig(
            size=self.num_sets * self.ways * 64, ways=self.ways, name="verify"
        )
        trace = fuzz_trace(
            self.scenario, self.seed, self.num_sets, self.ways, self.length
        )
        divergence, drivers = diff_policy(self.policy, trace, config)
        result: Dict[str, object] = {
            "policy": self.policy,
            "scenario": self.scenario,
            "seed": self.seed,
            "geometry": f"{self.num_sets}x{self.ways}",
            "accesses": len(trace),
            "drivers": drivers,
            "ok": divergence is None,
        }
        if divergence is not None:
            result["divergence"] = divergence.to_dict()
            result["report"] = divergence.describe()
        return result

    @staticmethod
    def encode(result: Dict[str, object]) -> Dict[str, object]:
        return result

    @staticmethod
    def decode(data: Dict[str, object]) -> Dict[str, object]:
        return data


def plan_fuzz_jobs(
    count: int,
    policies: Sequence[str] = VERIFY_POLICIES,
    base_seed: int = 2014,
    length: int = DEFAULT_TRACE_LENGTH,
) -> List[FuzzJob]:
    """A deterministic slate of ``count`` jobs.

    Policies rotate fastest so even a tiny ``count`` touches many
    policies; scenarios and geometries rotate at coprime-ish strides so
    the (policy, scenario, geometry) triples keep changing; every job
    gets a distinct trace seed.
    """
    jobs: List[FuzzJob] = []
    for index in range(count):
        policy = policies[index % len(policies)]
        round_number = index // len(policies)
        scenario = SCENARIOS[round_number % len(SCENARIOS)]
        num_sets, ways = FUZZ_GEOMETRIES[
            (round_number + index) % len(FUZZ_GEOMETRIES)
        ]
        jobs.append(
            FuzzJob(
                policy=policy,
                scenario=scenario,
                seed=base_seed * 1_000_003 + index,
                num_sets=num_sets,
                ways=ways,
                length=length,
            )
        )
    return jobs
