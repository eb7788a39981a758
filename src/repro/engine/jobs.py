"""Job types the sweep executor can run.

A job is a frozen, picklable description of one unit of work:

* :class:`RunJob` -- one (benchmark, policy) pair at an
  :class:`~repro.experiments.runner.ExperimentScale`, optionally with a
  cache-geometry override (the sensitivity sweeps re-size the cache
  while keeping the reference-scale trace).
* :class:`MixJob` -- one (mix, policy) 4-core shared-LLC run.

Each job knows its content-addressed :meth:`key`, how to
:meth:`execute` (in-process or inside a worker), and how to
``encode``/``decode`` its result for the on-disk store.  Simulation
modules are imported lazily inside ``execute`` so the engine package
never creates an import cycle with ``repro.experiments``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar, Dict, Optional, Union

from repro.cache.policyspec import PolicySpec
from repro.engine.keys import job_key, scale_payload
from repro.kernels.spec import DEFAULT_KERNEL, KernelSpec
from repro.mem.spec import BackendSpec
from repro.trace.workload import WorkloadSpec


def _policy_key(policy: Union[str, PolicySpec]) -> str:
    """Canonical policy string for payloads/labels.

    A bare name (or kwarg-free spec) keys as the plain string, so every
    result stored before :class:`PolicySpec` existed stays warm.
    """
    return PolicySpec.coerce(policy).key()


def _workload_key(benchmark: Union[str, WorkloadSpec]) -> str:
    """Canonical workload string for payloads/labels.

    A plain model workload keys as the bare benchmark name, so every
    result stored before :class:`WorkloadSpec` existed stays warm.
    """
    return WorkloadSpec.coerce(benchmark).store_key()


def _memory_key(memory: Union[str, BackendSpec]) -> str:
    """Canonical memory-backend string for payloads/labels."""
    return BackendSpec.coerce(memory).key()


def _memory_is_default(memory: Union[str, BackendSpec]) -> bool:
    return BackendSpec.coerce(memory).is_default


def _kernel_key(kernel: Union[str, KernelSpec]) -> str:
    """Canonical batch-kernel string for the wire format.

    Never part of a payload or label: kernels are bit-identical, so a
    result is the same whichever one computed it.
    """
    return KernelSpec.coerce(kernel).key()


if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cpu.core import RunResult
    from repro.experiments.multicore_exp import MixResult
    from repro.experiments.runner import ExperimentScale


@dataclass(frozen=True)
class RunJob:
    """One single-core (benchmark, policy, scale[, geometry]) run.

    ``mode`` selects the simulation front-end mode: ``"llc"`` (default)
    or ``"hierarchy"`` (full L1/L2/LLC stack).  Multicore mixes are
    :class:`MixJob`'s business.  ``kernel`` picks the batch driver that
    executes the job; it is not part of the job's identity.
    """

    benchmark: Union[str, WorkloadSpec]
    policy: Union[str, PolicySpec]
    scale: "ExperimentScale"
    llc_lines: Optional[int] = None  # geometry override (sweeps)
    ways: Optional[int] = None
    mode: str = "llc"
    memory: Union[str, BackendSpec] = "dram"
    kernel: Union[str, KernelSpec] = DEFAULT_KERNEL

    kind: ClassVar[str] = "run"

    @property
    def geometry_lines(self) -> int:
        return self.llc_lines if self.llc_lines is not None else self.scale.llc_lines

    @property
    def geometry_ways(self) -> int:
        return self.ways if self.ways is not None else self.scale.ways

    @property
    def label(self) -> str:
        base = f"{_workload_key(self.benchmark)}/{_policy_key(self.policy)}"
        if self.mode != "llc":
            base = f"{self.mode}:{base}"
        if not _memory_is_default(self.memory):
            base = f"{base}+{_memory_key(self.memory)}"
        if self.llc_lines is None and self.ways is None:
            return base
        return f"{base}@{self.geometry_lines}x{self.geometry_ways}"

    def payload(self) -> Dict[str, object]:
        workload = WorkloadSpec.coerce(self.benchmark)
        payload: Dict[str, object] = {
            "kind": self.kind,
            "benchmark": workload.store_key(),
            "policy": _policy_key(self.policy),
            "scale": scale_payload(self.scale),
            "geometry": {
                "llc_lines": self.geometry_lines,
                "ways": self.geometry_ways,
            },
        }
        # Only non-default modes/backends contribute to the key, so every
        # result stored before those fields existed stays warm.
        if self.mode != "llc":
            payload["mode"] = self.mode
        if not _memory_is_default(self.memory):
            payload["memory"] = _memory_key(self.memory)
        # File-backed workloads key by content: editing the trace file
        # misses the store instead of serving a stale parse.
        if workload.is_file:
            payload["source_digest"] = workload.file_digest()
        return payload

    def key(self) -> str:
        return job_key(self.payload())

    def execute(self) -> "RunResult":
        from repro.sim import SimulationSpec, simulate_cached

        return simulate_cached(
            SimulationSpec(
                self.benchmark,
                self.policy,
                mode=self.mode,
                scale=self.scale,
                llc_lines=self.llc_lines,
                ways=self.ways,
                memory=self.memory,
                kernel=self.kernel,
            )
        )

    @staticmethod
    def encode(result: "RunResult") -> Dict[str, object]:
        return result.to_dict()

    @staticmethod
    def decode(data: Dict[str, object]) -> "RunResult":
        from repro.cpu.core import RunResult

        return RunResult.from_dict(data)

    # -- wire format (distributed queue) ----------------------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-safe description a remote worker can rebuild the job from.

        Specs travel as their canonical strings (the same spellings the
        store keys on), so a rebuilt job has a byte-identical
        :meth:`payload` and therefore the same :meth:`key`.
        """
        return {
            "kind": self.kind,
            "benchmark": _workload_key(self.benchmark),
            "policy": _policy_key(self.policy),
            "scale": scale_payload(self.scale),
            "llc_lines": self.llc_lines,
            "ways": self.ways,
            "mode": self.mode,
            "memory": _memory_key(self.memory),
            "kernel": _kernel_key(self.kernel),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RunJob":
        from repro.experiments.runner import ExperimentScale

        return cls(
            benchmark=data["benchmark"],
            policy=data["policy"],
            scale=ExperimentScale(**data["scale"]),
            llc_lines=data.get("llc_lines"),
            ways=data.get("ways"),
            mode=data.get("mode", "llc"),
            memory=data.get("memory", "dram"),
            kernel=data.get("kernel", DEFAULT_KERNEL),
        )


@dataclass(frozen=True)
class MixJob:
    """One multiprogrammed (mix, policy) run on the shared LLC."""

    mix: str
    policy: Union[str, PolicySpec]
    per_core: "ExperimentScale"
    num_cores: int = 4
    memory: Union[str, BackendSpec] = "dram"
    kernel: Union[str, KernelSpec] = DEFAULT_KERNEL

    kind: ClassVar[str] = "mix"

    @property
    def label(self) -> str:
        base = f"{self.mix}/{_policy_key(self.policy)}"
        if not _memory_is_default(self.memory):
            base = f"{base}+{_memory_key(self.memory)}"
        return base

    def payload(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "kind": self.kind,
            "mix": self.mix,
            "policy": _policy_key(self.policy),
            "per_core": scale_payload(self.per_core),
            "num_cores": self.num_cores,
        }
        # The default backend is omitted so pre-existing store entries
        # stay warm.
        if not _memory_is_default(self.memory):
            payload["memory"] = _memory_key(self.memory)
        return payload

    def key(self) -> str:
        return job_key(self.payload())

    def execute(self) -> "MixResult":
        from repro.experiments.multicore_exp import run_mix

        return run_mix(
            self.mix,
            self.policy,
            self.per_core,
            self.num_cores,
            memory=self.memory,
            kernel=self.kernel,
        )

    @staticmethod
    def encode(result: "MixResult") -> Dict[str, object]:
        return result.to_dict()

    @staticmethod
    def decode(data: Dict[str, object]) -> "MixResult":
        from repro.experiments.multicore_exp import MixResult

        return MixResult.from_dict(data)

    # -- wire format (distributed queue) ----------------------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-safe description a remote worker can rebuild the job from."""
        return {
            "kind": self.kind,
            "mix": self.mix,
            "policy": _policy_key(self.policy),
            "per_core": scale_payload(self.per_core),
            "num_cores": self.num_cores,
            "memory": _memory_key(self.memory),
            "kernel": _kernel_key(self.kernel),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "MixJob":
        from repro.experiments.runner import ExperimentScale

        return cls(
            mix=data["mix"],
            policy=data["policy"],
            per_core=ExperimentScale(**data["per_core"]),
            num_cores=data.get("num_cores", 4),
            memory=data.get("memory", "dram"),
            kernel=data.get("kernel", DEFAULT_KERNEL),
        )


#: job kinds a queue worker can decode, keyed by their wire ``kind``.
JOB_KINDS = {"run": RunJob, "mix": MixJob}


def job_from_dict(data: Dict[str, object]) -> "RunJob | MixJob":
    """Rebuild any queue-transported job from its :meth:`to_dict` form."""
    kind = data.get("kind")
    job_cls = JOB_KINDS.get(kind)
    if job_cls is None:
        raise ValueError(
            f"unknown job kind {kind!r}; known: {', '.join(sorted(JOB_KINDS))}"
        )
    return job_cls.from_dict(data)
