"""Synthetic LLC access-stream generators.

The paper evaluates on SPEC CPU2006 SimPoint traces, which are not
redistributable.  We substitute parameterized mixtures of memory-reference
*kernels* whose composition controls exactly the properties RWP exploits:
the joint distribution of reuse distance and read/write role per line.

Kernels
-------
``loop``            cyclic sweep over a fixed working set (read, write, or
                    read-modify-write) -- classic LRU-friendly or
                    LRU-thrashing reuse depending on size
``chase``           uniformly random references within a working set --
                    pointer-chasing style irregular reuse
``stream``          monotonically advancing references, never reused --
                    streaming reads or dead (write-only) output buffers

A :class:`MixtureGenerator` interleaves kernels with configured weights.
Interleaving order is random but each kernel's internal reference order is
independent of the interleaving, so per-kernel reuse structure is preserved
while cross-kernel cache contention emerges naturally.

Every kernel owns a disjoint address region and a small set of distinct
program counters, so PC-indexed predictors (RRP) observe realistic
instruction locality: the PCs of a dead-write kernel really do never lead
to reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Literal, Sequence, Tuple

import numpy as np

from repro.common.rng import split_rng
from repro.trace.access import Trace

LINE_SIZE = 64

KernelKind = Literal["loop", "chase", "stream"]
AccessMode = Literal["read", "write", "rmw"]

# Each kernel occupies its own aligned region this many lines wide, so
# kernels can never alias each other's cache lines.
_REGION_LINES = 1 << 26
# The shared region lives in region 0 (below every private kernel),
# offset one page up so address 0 is never issued: the null page is
# unmapped in any real address space, and ChampSim records use a zero
# operand address to mean "no memory operand".
_SHARED_BASE_LINE = 64
# Each kernel's instructions live in their own PC region.
_PC_REGION = 1 << 20

#: shared-region patterns supported by :class:`SharingSpec`.
SHARING_PATTERNS = ("producer_consumer", "read_mostly", "migratory")


@dataclass(frozen=True)
class KernelSpec:
    """Declarative description of one reference kernel.

    ``ws_lines`` is the working-set size in cache lines (ignored for
    ``stream`` kernels, which never reuse).  ``pcs`` is the number of
    distinct instruction addresses the kernel issues accesses from.
    """

    kind: KernelKind
    mode: AccessMode = "read"
    ws_lines: int = 1024
    pcs: int = 4

    def __post_init__(self) -> None:
        if self.kind not in ("loop", "chase", "stream"):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.mode not in ("read", "write", "rmw"):
            raise ValueError(f"unknown access mode {self.mode!r}")
        if self.kind != "stream" and self.ws_lines <= 0:
            raise ValueError("ws_lines must be positive")
        if self.kind == "chase" and self.mode != "read":
            raise ValueError("chase kernels are read-only by construction")
        if self.pcs <= 0:
            raise ValueError("pcs must be positive")


class _KernelState:
    """Mutable per-kernel generation state (cursor + permutation)."""

    __slots__ = ("spec", "index", "cursor", "perm", "base_line", "base_pc")

    def __init__(self, spec: KernelSpec, index: int, rng: np.random.Generator) -> None:
        self.spec = spec
        self.index = index
        self.cursor = 0
        self.base_line = (index + 1) * _REGION_LINES
        self.base_pc = (index + 1) * _PC_REGION
        if spec.kind == "loop":
            # A fixed permutation turns the cyclic sweep into an
            # address-irregular sweep with identical stack distances.
            self.perm = rng.permutation(spec.ws_lines)
        else:
            self.perm = None

    def generate(
        self, n: int, rng: np.random.Generator
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Produce ``n`` accesses: (line indices, is_write, pc)."""
        spec = self.spec
        if spec.kind == "loop":
            lines, writes = self._generate_loop(n)
        elif spec.kind == "chase":
            lines = rng.integers(0, spec.ws_lines, size=n, dtype=np.int64)
            writes = np.zeros(n, dtype=bool)
        else:  # stream
            lines = (self.cursor + np.arange(n, dtype=np.int64)) % _REGION_LINES
            self.cursor = int((self.cursor + n) % _REGION_LINES)
            writes = np.full(n, spec.mode == "write", dtype=bool)
            if spec.mode == "rmw":
                # A streaming RMW touches each line twice: read then write.
                lines = np.repeat(lines[: (n + 1) // 2], 2)[:n]
                writes = (np.arange(n) % 2).astype(bool)
        pcs = self.base_pc + (lines % spec.pcs) * 4
        return self.base_line + lines, writes, pcs

    def _generate_loop(self, n: int) -> Tuple[np.ndarray, np.ndarray]:
        spec = self.spec
        ws = spec.ws_lines
        if spec.mode == "rmw":
            # Each working-set element is read then immediately written.
            seq = (self.cursor + np.arange(n, dtype=np.int64)) // 2 % ws
            writes = (np.arange(self.cursor, self.cursor + n) % 2).astype(bool)
            self.cursor = (self.cursor + n) % (2 * ws)
        else:
            seq = (self.cursor + np.arange(n, dtype=np.int64)) % ws
            writes = np.full(n, spec.mode == "write", dtype=bool)
            self.cursor = (self.cursor + n) % ws
        return self.perm[seq], writes


@dataclass(frozen=True)
class WorkloadModel:
    """A named workload: weighted kernel mixture + instruction density.

    ``ipa_mean`` is the mean number of committed instructions between
    consecutive LLC accesses; it controls how memory-bound the workload is
    when miss counts are converted to CPI.
    """

    name: str
    kernels: Tuple[Tuple[float, KernelSpec], ...]
    ipa_mean: float = 50.0
    category: str = "uncategorized"

    def __post_init__(self) -> None:
        if not self.kernels:
            raise ValueError("workload needs at least one kernel")
        if any(weight <= 0 for weight, _ in self.kernels):
            raise ValueError("kernel weights must be positive")
        if self.ipa_mean < 1.0:
            raise ValueError("ipa_mean must be >= 1")

    @property
    def weights(self) -> np.ndarray:
        raw = np.array([weight for weight, _ in self.kernels], dtype=float)
        return raw / raw.sum()

    def generate(self, num_accesses: int, seed: int = 2014) -> Trace:
        """Materialize ``num_accesses`` records of this workload."""
        return MixtureGenerator(self, seed).generate(num_accesses)


class MixtureGenerator:
    """Stateful generator that interleaves a model's kernels.

    Keeping the generator around lets callers draw a long trace in chunks
    (e.g. for warmup + measurement phases) with kernel cursors preserved.
    """

    def __init__(self, model: WorkloadModel, seed: int = 2014) -> None:
        self.model = model
        self._rng = split_rng(seed, f"trace:{model.name}")
        self._kernels = [
            _KernelState(spec, idx, self._rng)
            for idx, (_, spec) in enumerate(model.kernels)
        ]
        self._weights = model.weights

    def generate(self, num_accesses: int) -> Trace:
        """Draw the next ``num_accesses`` records."""
        if num_accesses <= 0:
            raise ValueError("num_accesses must be positive")
        rng = self._rng
        choice = rng.choice(len(self._kernels), size=num_accesses, p=self._weights)
        addresses = np.empty(num_accesses, dtype=np.int64)
        writes = np.empty(num_accesses, dtype=bool)
        pcs = np.empty(num_accesses, dtype=np.int64)
        for idx, kernel in enumerate(self._kernels):
            mask = choice == idx
            count = int(mask.sum())
            if count == 0:
                continue
            lines, kernel_writes, kernel_pcs = kernel.generate(count, rng)
            addresses[mask] = lines * LINE_SIZE
            writes[mask] = kernel_writes
            pcs[mask] = kernel_pcs
        gaps = _instruction_gaps(num_accesses, self.model.ipa_mean, rng)
        return Trace.from_arrays(
            addresses, writes, pcs, gaps, name=self.model.name
        )


@dataclass(frozen=True)
class SharingSpec:
    """How a mix's cores share a common address region.

    ``shared_fraction`` of each core's accesses are redirected into one
    shared region of ``ws_lines`` cache lines that every core addresses
    identically (no per-core offset).  ``pattern`` fixes who writes it:

    ``producer_consumer``  the first ``writers`` cores write-sweep the
                           region; every other core read-sweeps it
    ``read_mostly``        every core read-sweeps; the first ``writers``
                           cores additionally write one access in 20
                           (a mostly-read shared table with rare updates)
    ``migratory``          the first ``writers`` cores perform
                           read-modify-write pairs (ownership migrates
                           line by line); the rest read randomly
    """

    pattern: str
    shared_fraction: float = 0.25
    writers: int = 1
    ws_lines: int = 512

    def __post_init__(self) -> None:
        if self.pattern not in SHARING_PATTERNS:
            raise ValueError(
                f"unknown sharing pattern {self.pattern!r}; "
                f"expected one of {', '.join(SHARING_PATTERNS)}"
            )
        if not 0.0 < self.shared_fraction < 1.0:
            raise ValueError("shared_fraction must be in (0, 1)")
        if self.writers < 1:
            raise ValueError("writers must be >= 1")
        if self.ws_lines <= 0:
            raise ValueError("ws_lines must be positive")
        if self.ws_lines > _REGION_LINES - _SHARED_BASE_LINE:
            raise ValueError(
                f"shared ws_lines must fit the reserved region "
                f"({_REGION_LINES - _SHARED_BASE_LINE} lines)"
            )

    def canonical(self) -> str:
        return (
            f"{self.pattern}:frac={self.shared_fraction:g}"
            f",writers={self.writers},ws={self.ws_lines}"
        )

    @classmethod
    def parse(cls, text: "str | SharingSpec") -> "SharingSpec":
        """Parse the canonical ``pattern:key=value,...`` string form."""
        if isinstance(text, cls):
            return text
        pattern, _, rest = text.partition(":")
        kwargs: Dict[str, object] = {}
        if rest:
            for item in rest.split(","):
                key, sep, value = item.partition("=")
                if not sep:
                    raise ValueError(
                        f"malformed sharing option {item!r} in {text!r}"
                    )
                if key == "frac":
                    kwargs["shared_fraction"] = float(value)
                elif key == "writers":
                    kwargs["writers"] = int(value)
                elif key == "ws":
                    kwargs["ws_lines"] = int(value)
                else:
                    raise ValueError(
                        f"unknown sharing option {key!r} in {text!r}"
                    )
        return cls(pattern=pattern, **kwargs)


class _SharedRegionState:
    """Per-core cursor into the shared region (pattern-specific)."""

    __slots__ = ("sharing", "core", "cursor")

    def __init__(self, sharing: SharingSpec, core: int) -> None:
        self.sharing = sharing
        self.core = core
        self.cursor = 0

    def generate(
        self, n: int, rng: np.random.Generator
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Produce ``n`` shared-region accesses: (line indices, is_write)."""
        sharing = self.sharing
        ws = sharing.ws_lines
        is_writer = self.core < sharing.writers
        pattern = sharing.pattern
        if pattern == "producer_consumer":
            lines = (self.cursor + np.arange(n, dtype=np.int64)) % ws
            self.cursor = (self.cursor + n) % ws
            writes = np.full(n, is_writer, dtype=bool)
        elif pattern == "read_mostly":
            lines = (self.cursor + np.arange(n, dtype=np.int64)) % ws
            self.cursor = (self.cursor + n) % ws
            writes = np.zeros(n, dtype=bool)
            if is_writer:
                writes[::20] = True
        else:  # migratory
            if is_writer:
                # Read-modify-write pairs: each line is read then
                # written before ownership moves on.
                seq = (self.cursor + np.arange(n, dtype=np.int64)) // 2 % ws
                writes = (
                    np.arange(self.cursor, self.cursor + n) % 2
                ).astype(bool)
                self.cursor = (self.cursor + n) % (2 * ws)
                lines = seq
            else:
                lines = rng.integers(0, ws, size=n, dtype=np.int64)
                writes = np.zeros(n, dtype=bool)
        return lines, writes


def generate_shared_mix(
    models: Sequence[WorkloadModel],
    sharing: SharingSpec,
    num_accesses: int,
    seed: int = 2014,
) -> List[Trace]:
    """Per-core global-address traces with a common shared region.

    Each core runs its private workload model with its address and PC
    streams pre-offset by the multicore strides (what
    ``DecodedTrace.with_core_offset`` would have applied), then
    ``sharing.shared_fraction`` of its accesses are redirected into the
    shared region at lines ``[_SHARED_BASE_LINE, _SHARED_BASE_LINE +
    ws_lines)`` -- below every private kernel region, so shared and
    private lines never alias, and above the null page, so the traces
    survive ChampSim interchange (whose records encode "no operand" as
    address zero).  The
    returned traces are marked ``address_space="global"``; the shared
    system replays them without per-core offsets, so two cores really
    do hit the same LLC lines.
    """
    from repro.multicore.shared import CORE_ADDRESS_STRIDE, CORE_PC_STRIDE

    if num_accesses <= 0:
        raise ValueError("num_accesses must be positive")
    traces: List[Trace] = []
    for core, model in enumerate(models):
        private = MixtureGenerator(model, seed + 7919 * core).generate(
            num_accesses
        )
        rng = split_rng(seed, f"shared:{sharing.pattern}:core{core}")
        private_addresses, private_writes, private_pcs, gaps = private.arrays()
        addresses = private_addresses + core * CORE_ADDRESS_STRIDE
        writes = private_writes.astype(bool)
        pcs = private_pcs + core * CORE_PC_STRIDE
        mask = rng.random(num_accesses) < sharing.shared_fraction
        count = int(mask.sum())
        if count:
            state = _SharedRegionState(sharing, core)
            lines, shared_writes = state.generate(count, rng)
            addresses[mask] = (lines + _SHARED_BASE_LINE) * LINE_SIZE
            writes[mask] = shared_writes
            # Shared code issues the shared accesses: one small PC
            # region common to all cores (below every private region).
            pcs[mask] = (lines % 8) * 4
        traces.append(
            Trace.from_arrays(
                addresses,
                writes,
                pcs,
                gaps,
                name=f"{model.name}+{sharing.pattern}@c{core}",
                address_space="global",
            )
        )
    return traces


def _instruction_gaps(
    n: int, mean: float, rng: np.random.Generator
) -> np.ndarray:
    """Geometric inter-access instruction counts with the given mean."""
    if mean <= 1.0:
        return np.ones(n, dtype=np.int64)
    return rng.geometric(1.0 / mean, size=n).astype(np.int64)


def merge_models(name: str, models: Sequence[WorkloadModel]) -> WorkloadModel:
    """Compose several models into one equally weighted mixture.

    Useful for constructing phase-less composite workloads in tests.
    """
    kernels: List[Tuple[float, KernelSpec]] = []
    for model in models:
        for weight, spec in model.kernels:
            kernels.append((weight / len(models), spec))
    mean_ipa = float(np.mean([m.ipa_mean for m in models]))
    return WorkloadModel(name=name, kernels=tuple(kernels), ipa_mean=mean_ipa)


def describe(model: WorkloadModel) -> Dict[str, object]:
    """Human-readable summary of a model's composition."""
    return {
        "name": model.name,
        "category": model.category,
        "ipa_mean": model.ipa_mean,
        "kernels": [
            {
                "weight": round(float(w), 4),
                "kind": spec.kind,
                "mode": spec.mode,
                "ws_lines": spec.ws_lines,
            }
            for w, spec in zip(model.weights, (s for _, s in model.kernels))
        ],
    }
