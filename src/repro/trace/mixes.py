"""Multiprogrammed workload mixes for the multicore evaluation.

The paper evaluates RWP on a 4-core system running multiprogrammed SPEC
mixes.  The registry below defines named :class:`MixSpec` entries at
2, 4, 8, and 16 cores: the paper's ten 4-benchmark mixes spanning the
standard design points -- all-sensitive (maximum contention for the
shared LLC), mixed sensitive/streaming (a polluter next to victims),
and lighter mixes with compute-bound fillers -- plus pair mixes for
quick 2-core studies and wider 8/16-core mixes for the core-count
scaling sweeps.

``mix_specs()`` / ``mix_names()`` / ``mix_benchmarks()`` query the
registry; the paper's ten 4-core mixes are
``mix_specs(core_count=4, sharing=False, models_only=True)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.trace.generator import SharingSpec
from repro.trace.spec import ALL_PARAMS
from repro.trace.workload import WorkloadSpec


@dataclass(frozen=True)
class MixSpec:
    """One named multiprogrammed mix: which workloads share the LLC.

    ``core_count`` is derived from the member tuple -- one workload per
    core -- and validated at registration, so a spec can never disagree
    with its own workload list.  Members are workload references (see
    :class:`~repro.trace.workload.WorkloadSpec`): bare benchmark names
    for the classic SPEC mixes, or any ``kind:name,key=value`` string,
    so a synthetic model can share the LLC with a stress kernel.
    ``sharing`` is None for the private-address mixes; when set, the
    cores additionally share one address region per the
    :class:`SharingSpec` (and the per-core traces are generated in one
    global address space -- which requires every member to be a
    synthetic model).
    """

    name: str
    benchmarks: Tuple[str, ...]
    description: str = ""
    sharing: Optional[SharingSpec] = None

    @property
    def core_count(self) -> int:
        return len(self.benchmarks)

    @property
    def sharing_mode(self) -> str:
        """Short human-readable sharing summary (``private`` or canonical)."""
        if self.sharing is None:
            return "private"
        return self.sharing.canonical()

    @property
    def models_only(self) -> bool:
        """True when every member is a plain synthetic model."""
        return all(
            WorkloadSpec.coerce(bench).kind == "model"
            for bench in self.benchmarks
        )

    def __post_init__(self) -> None:
        if not self.benchmarks:
            raise ValueError(f"mix {self.name!r} has no benchmarks")
        for bench in self.benchmarks:
            spec = WorkloadSpec.coerce(bench)
            if spec.kind == "model" and spec.name not in ALL_PARAMS:
                raise ValueError(
                    f"mix {self.name} references unknown benchmark {bench!r}"
                )
            if self.sharing is not None and spec.kind != "model":
                raise ValueError(
                    f"data-sharing mix {self.name} requires synthetic-model "
                    f"members, got {bench!r}"
                )


#: name -> MixSpec; the one registry every mix consumer reads.
MIXES: Dict[str, MixSpec] = {}


def register_mix(
    name: str,
    benchmarks: Tuple[str, ...],
    description: str = "",
    sharing: "Optional[str | SharingSpec]" = None,
) -> MixSpec:
    """Add one mix to the registry (benchmarks validated eagerly)."""
    if name in MIXES:
        raise ValueError(f"duplicate mix {name!r}")
    if sharing is not None:
        sharing = SharingSpec.parse(sharing)
    spec = MixSpec(name, tuple(benchmarks), description, sharing)
    MIXES[name] = spec
    return spec


# -- the paper's ten 4-core mixes -----------------------------------------
register_mix("mix01_all_sensitive", ("mcf", "omnetpp", "soplex", "sphinx3"))
register_mix("mix02_all_sensitive", ("xalancbmk", "astar", "bzip2", "gcc"))
register_mix("mix03_sens_heavy", ("mcf", "xalancbmk", "sphinx3", "libquantum"))
register_mix("mix04_sens_stream", ("omnetpp", "soplex", "lbm", "milc"))
register_mix("mix05_sens_stream", ("astar", "sphinx3", "libquantum", "bwaves"))
register_mix("mix06_rmw_mix", ("cactusADM", "dealII", "mcf", "leslie3d"))
register_mix("mix07_balanced", ("mcf", "lbm", "povray", "gcc"))
register_mix("mix08_balanced", ("soplex", "GemsFDTD", "namd", "omnetpp"))
register_mix("mix09_light", ("bzip2", "hmmer", "gobmk", "sphinx3"))
register_mix("mix10_stream_heavy", ("libquantum", "lbm", "milc", "mcf"))

# -- 2-core pairs (contention studies at minimal scale) -------------------
register_mix(
    "mix2c01_sens_pair", ("mcf", "omnetpp"),
    "two cache-sensitive benchmarks fighting over the LLC",
)
register_mix(
    "mix2c02_sens_stream", ("xalancbmk", "libquantum"),
    "a sensitive victim next to a streaming polluter",
)
register_mix(
    "mix2c03_balanced", ("soplex", "povray"),
    "one sensitive benchmark with a compute-bound filler",
)

# -- 8-core mixes (core-count scaling) ------------------------------------
register_mix(
    "mix8c01_all_sensitive",
    ("mcf", "omnetpp", "soplex", "sphinx3", "xalancbmk", "astar", "bzip2", "gcc"),
    "eight cache-sensitive benchmarks: maximum shared-LLC contention",
)
register_mix(
    "mix8c02_mixed",
    ("mcf", "soplex", "sphinx3", "dealII", "lbm", "milc", "hmmer", "povray"),
    "four sensitive, two streaming, two compute-bound",
)

# -- 16-core stress mix ---------------------------------------------------
register_mix(
    "mix16c01_stress",
    (
        "mcf", "omnetpp", "soplex", "sphinx3", "xalancbmk", "astar",
        "bzip2", "gcc", "cactusADM", "dealII", "libquantum", "lbm",
        "milc", "leslie3d", "hmmer", "namd",
    ),
    "all ten sensitive benchmarks plus streaming and compute fillers",
)


# -- mixed synthetic + stress mixes ---------------------------------------
# Stress kernels are first-class mix members: a SPEC-like victim next to
# a parameterized polluter isolates exactly the contention the paper's
# partitioning targets (see repro.trace.stress for the grid).
register_mix(
    "mix2x01_stress_pair",
    ("mcf", "stress:chase,depth=4,rw=0.3,ws=16k"),
    "a cache-sensitive model next to a pointer-chase stress kernel",
)
register_mix(
    "mix4x01_stress_blend",
    (
        "mcf", "omnetpp",
        "stress:chase,depth=4,rw=0.3,ws=16k",
        "stress:sweep,rw=0.5,stride=4,ws=64k",
    ),
    "two sensitive models vs a pointer chase and a strided write sweep",
)


# -- data-sharing mixes ---------------------------------------------------
# Cores run their private workloads but also touch one shared region;
# the traces live in a single global address space (no per-core offset).
register_mix(
    "mix2s01_prodcons", ("mcf", "omnetpp"),
    "one producer streaming updates to one consumer",
    sharing="producer_consumer:frac=0.3,writers=1,ws=512",
)
register_mix(
    "mix4s01_prodcons", ("mcf", "omnetpp", "soplex", "sphinx3"),
    "two producers feeding two consumers over a shared buffer",
    sharing="producer_consumer:frac=0.3,writers=2,ws=512",
)
register_mix(
    "mix4s02_readmostly", ("xalancbmk", "astar", "bzip2", "gcc"),
    "a read-mostly shared table with one rare writer",
    sharing="read_mostly:frac=0.25,writers=1,ws=1024",
)
register_mix(
    "mix4s03_migratory", ("mcf", "soplex", "lbm", "povray"),
    "migratory read-modify-write ownership over a small shared set",
    sharing="migratory:frac=0.2,writers=4,ws=256",
)
register_mix(
    "mix8s01_prodcons",
    ("mcf", "omnetpp", "soplex", "sphinx3", "xalancbmk", "astar", "bzip2", "gcc"),
    "two producers, six consumers: sensitive mix over a shared buffer",
    sharing="producer_consumer:frac=0.25,writers=2,ws=1024",
)
register_mix(
    "mix8s02_readmostly",
    ("mcf", "soplex", "sphinx3", "dealII", "lbm", "milc", "hmmer", "povray"),
    "eight cores sweeping a read-mostly shared table, two writers",
    sharing="read_mostly:frac=0.25,writers=2,ws=1024",
)
register_mix(
    "mix16s01_prodcons",
    (
        "mcf", "omnetpp", "soplex", "sphinx3", "xalancbmk", "astar",
        "bzip2", "gcc", "cactusADM", "dealII", "libquantum", "lbm",
        "milc", "leslie3d", "hmmer", "namd",
    ),
    "sixteen-core stress mix over a shared producer/consumer buffer",
    sharing="producer_consumer:frac=0.2,writers=4,ws=2048",
)


def mix_specs(
    core_count: Optional[int] = None,
    sharing: Optional[bool] = None,
    models_only: bool = False,
) -> List[MixSpec]:
    """All registered mixes (sorted by name), optionally filtered.

    ``core_count`` selects one width; ``sharing`` narrows to shared
    (True) or private (False) mixes, None keeping both; ``models_only``
    drops mixes with stress-kernel (or other non-model) members -- the
    paper-figure harnesses compare the classic SPEC mixes.
    """
    return [
        MIXES[name]
        for name in sorted(MIXES)
        if (core_count is None or MIXES[name].core_count == core_count)
        and (sharing is None or (MIXES[name].sharing is not None) == sharing)
        and (not models_only or MIXES[name].models_only)
    ]


def get_mix(mix_name: str) -> MixSpec:
    """Look up one mix, with a helpful error naming the known mixes."""
    try:
        return MIXES[mix_name]
    except KeyError:
        raise KeyError(
            f"unknown mix {mix_name!r}; known: {mix_names()}"
        ) from None


def mix_names(
    core_count: Optional[int] = None,
    sharing: Optional[bool] = None,
    models_only: bool = False,
) -> List[str]:
    return [spec.name for spec in mix_specs(core_count, sharing, models_only)]


def mix_benchmarks(mix_name: str) -> Tuple[str, ...]:
    """The benchmark names of one mix."""
    return get_mix(mix_name).benchmarks
