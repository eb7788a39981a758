"""Typed sweep specification: one object that *is* a sweep.

A :class:`SweepSpec` describes a full grid -- workloads (or multicore
mixes) x policies at one :class:`~repro.experiments.runner
.ExperimentScale`, under one memory backend and batch kernel -- and
replaces the ad-hoc kwargs the ``repro sweep`` command used to thread
around.  The same object is the wire format of the sweep service's
``POST /sweep`` endpoint (``to_dict``/``from_dict`` round-trip exactly)
and the unit a :class:`~repro.service.queue.JobQueue` transports.

Identity: :meth:`journal_payload` reproduces, byte for byte, the
payload the pre-SweepSpec CLI built inline, so :meth:`sweep_id` (and
therefore every existing journal filename) is unchanged -- an
interrupted legacy sweep resumes under the new API.  The batch kernel
is an execution choice, not part of the identity: the same grid under
``native`` and ``dict`` has one sweep id.  The payload is pinned by
``tests/data/spec_fixture.json``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple, Union

from repro.engine.jobs import MixJob, RunJob
from repro.engine.keys import job_key, scale_payload
from repro.kernels.spec import DEFAULT_KERNEL, KernelSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.runner import ExperimentScale

#: the sweep modes (single-core grid vs. multiprogrammed mixes).
SWEEP_MODES = ("single", "multicore")


def _default_scale():
    from repro.experiments.runner import ExperimentScale

    return ExperimentScale()


@dataclass(frozen=True)
class SweepSpec:
    """One (workload x policy) or (mix x policy) grid, fully specified."""

    mode: str = "single"
    workloads: Tuple[str, ...] = ()
    mixes: Tuple[str, ...] = ()
    policies: Tuple[str, ...] = ()
    scale: "ExperimentScale" = field(default_factory=_default_scale)
    memory: str = "dram"
    kernel: str = DEFAULT_KERNEL

    def __post_init__(self) -> None:
        if self.mode not in SWEEP_MODES:
            raise ValueError(
                f"unknown sweep mode {self.mode!r}; "
                f"known: {', '.join(SWEEP_MODES)}"
            )
        object.__setattr__(self, "workloads", tuple(self.workloads))
        object.__setattr__(self, "mixes", tuple(self.mixes))
        object.__setattr__(self, "policies", tuple(self.policies))
        if not self.policies:
            raise ValueError("sweep names no policies")
        if self.mode == "single":
            if not self.workloads:
                raise ValueError("single-mode sweep names no workloads")
            if self.mixes:
                raise ValueError("single-mode sweep cannot name mixes")
        else:
            if not self.mixes:
                raise ValueError("multicore sweep names no mixes")
            if self.workloads:
                raise ValueError("multicore sweep cannot name workloads")
        if not all(isinstance(w, str) and w for w in self.workloads):
            raise ValueError("workloads must be non-empty strings")
        if not all(isinstance(m, str) and m for m in self.mixes):
            raise ValueError("mixes must be non-empty strings")
        if not all(isinstance(p, str) and p for p in self.policies):
            raise ValueError("policies must be non-empty strings")
        # Validate the spec strings early (they travel as raw strings so
        # journal payloads stay byte-identical to the legacy CLI).
        from repro.cache.policyspec import PolicySpec
        from repro.mem.spec import BackendSpec
        from repro.trace.workload import WorkloadSpec

        for policy in self.policies:
            PolicySpec.coerce(policy)
        for workload in self.workloads:
            WorkloadSpec.coerce(workload)
        BackendSpec.coerce(self.memory)
        KernelSpec.coerce(self.kernel)

    # -- jobs --------------------------------------------------------------
    def jobs(self) -> List[Union[RunJob, MixJob]]:
        """The grid's job list, in the same order the legacy CLI built it."""
        if self.mode == "single":
            return [
                RunJob(
                    bench,
                    policy,
                    self.scale,
                    memory=self.memory,
                    kernel=self.kernel,
                )
                for bench in self.workloads
                for policy in self.policies
            ]
        from repro.trace.mixes import get_mix

        return [
            MixJob(
                mix,
                policy,
                self.scale,
                num_cores=get_mix(mix).core_count,
                memory=self.memory,
                kernel=self.kernel,
            )
            for mix in self.mixes
            for policy in self.policies
        ]

    # -- identity ----------------------------------------------------------
    def journal_payload(self) -> Dict[str, object]:
        """The sweep-identity payload, byte-identical to the legacy CLI.

        Single mode keys under ``"benchmarks"`` and multicore under
        ``"mixes"`` + kind ``"sweep-multicore"``; the default memory
        backend is omitted -- exactly what ``cmd_sweep`` used to
        assemble inline, so old journal ids keep resolving -- and the
        kernel never appears.
        """
        if self.mode == "single":
            payload: Dict[str, object] = {
                "kind": "sweep",
                "benchmarks": list(self.workloads),
                "policies": list(self.policies),
                "scale": scale_payload(self.scale),
            }
        else:
            payload = {
                "kind": "sweep-multicore",
                "mixes": list(self.mixes),
                "policies": list(self.policies),
                "scale": scale_payload(self.scale),
            }
        if self.memory != "dram":
            payload["memory"] = self.memory
        return payload

    def sweep_id(self) -> str:
        """Short content-addressed id: same grid -> same id."""
        return job_key(self.journal_payload())[:16]

    def journal_name(self) -> str:
        """The journal filename the CLI derives for this sweep."""
        return f"sweep-{self.sweep_id()}.jsonl"

    # -- wire format -------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-safe exact round-trip (the ``POST /sweep`` body)."""
        return {
            "mode": self.mode,
            "workloads": list(self.workloads),
            "mixes": list(self.mixes),
            "policies": list(self.policies),
            "scale": scale_payload(self.scale),
            "memory": self.memory,
            "kernel": self.kernel,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "SweepSpec":
        if not isinstance(payload, dict):
            raise ValueError(
                f"sweep spec must be an object, got {type(payload).__name__}"
            )
        from repro.experiments.runner import ExperimentScale

        scale_data = payload.get("scale", {})
        if not isinstance(scale_data, dict):
            raise ValueError("sweep scale must be an object")
        try:
            scale = ExperimentScale(**scale_data)
        except TypeError as error:
            raise ValueError(f"bad sweep scale: {error}") from None
        return cls(
            mode=payload.get("mode", "single"),
            workloads=tuple(payload.get("workloads", ())),
            mixes=tuple(payload.get("mixes", ())),
            policies=tuple(payload.get("policies", ())),
            scale=scale,
            memory=payload.get("memory", "dram"),
            kernel=payload.get("kernel", DEFAULT_KERNEL),
        )

    # -- reporting ---------------------------------------------------------
    @property
    def row_names(self) -> Tuple[str, ...]:
        return self.workloads if self.mode == "single" else self.mixes

    def grid(self, results_by_job: Dict[object, object]) -> Dict[tuple, object]:
        """Re-key an engine outcome by (row, policy), the table shape."""
        if self.mode == "single":
            return {
                (job.benchmark, job.policy): result
                for job, result in results_by_job.items()
            }
        return {
            (job.mix, job.policy): result
            for job, result in results_by_job.items()
        }

    def table(self, grid: Dict[tuple, object]) -> Dict[str, object]:
        """The sweep's headline table as JSON-able data.

        Single mode: per-workload IPC speedup over the first policy.
        Multicore: per-mix weighted speedup normalized the same way.
        One code path feeds both the CLI renderer and ``GET /sweep/<id>``.
        """
        from repro.multicore.metrics import geometric_mean

        baseline = self.policies[0]
        policies = list(self.policies)
        if self.mode == "single":
            from repro.experiments.runner import speedups_over

            values = speedups_over(
                grid, self.workloads, policies, baseline=baseline
            )
            labels = list(self.workloads)
            row_column = "benchmark"
            title = (
                f"speedup over {baseline} @ {self.scale.llc_lines} lines"
            )
        else:
            from repro.experiments.multicore_exp import normalized_ws
            from repro.trace.mixes import get_mix

            values = normalized_ws(
                grid, self.mixes, policies, baseline=baseline
            )
            labels = [
                f"{mix} ({get_mix(mix).core_count}c)" for mix in self.mixes
            ]
            row_column = "mix"
            title = (
                f"weighted speedup over {baseline} "
                f"@ {self.scale.llc_lines} lines/core"
            )
        rows = [
            [label, *(values[policy][index] for policy in policies)]
            for index, label in enumerate(labels)
        ]
        rows.append(
            ["GEOMEAN", *(geometric_mean(values[policy]) for policy in policies)]
        )
        return {
            "title": title,
            "baseline": baseline,
            "columns": [row_column, *policies],
            "rows": rows,
        }
