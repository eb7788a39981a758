"""Differential runner: production cache vs. oracle, in lockstep.

``replay`` feeds one trace through a fresh
:class:`~repro.cache.SetAssociativeCache` and a fresh
:class:`~repro.verify.oracle.OracleCache` access by access, comparing
every ``(hit, bypassed, writeback_address)`` outcome, then the final
per-set ``(tag, dirty)`` contents, the statistics counters, and the
production model's internal set invariants.  It then replays the trace
through fresh caches under every batched driver (:func:`check_drivers`)
and requires the scalar side's end state from each.  ``diff_policy``
adds delta-debugging: a diverging trace is shrunk to a minimal
reproducing access sequence before being reported.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cache.cache import SetAssociativeCache
from repro.cache.policy import ReplacementPolicy, make_policy
from repro.cache.policyspec import PolicySpec
from repro.common.config import CacheConfig
from repro.trace.access import Trace
from repro.verify.oracle import OracleCache, make_oracle_policy

#: RWP repartitioning epoch used under verification.  The production
#: default (25 000 accesses) would never fire inside a short fuzz trace,
#: so verification runs both models at this much shorter epoch and
#: exercises the repartitioning logic many times per trace.
VERIFY_RWP_EPOCH = 512

#: one trace record: (address, is_write, pc)
AccessRecord = Tuple[int, bool, int]

#: counter names compared between the two models at end of trace.
COMPARED_STATS = (
    "read_hits",
    "read_misses",
    "write_hits",
    "write_misses",
    "writebacks",
    "bypasses",
    "evictions",
    "dirty_evictions",
    "evicted_read_only",
    "evicted_write_only",
    "evicted_read_write",
)


@dataclass
class Divergence:
    """One behavioral difference between the fast model and the oracle."""

    policy: str
    index: int  # access index of the first mismatch; -1 = end-of-trace
    kind: str  # "hit" | "bypassed" | "writeback" | "state" | "invariant"
    #: or a statistic name; "<driver> run_trace <stat | state digest>"
    #: when a batched driver disagrees with the scalar side
    expected: object  # what the oracle says
    actual: object  # what the production model did
    records: List[AccessRecord] = field(default_factory=list)

    def describe(self) -> str:
        where = (
            f"access #{self.index}" if self.index >= 0 else "end of trace"
        )
        lines = [
            f"policy {self.policy!r} diverged at {where}: "
            f"{self.kind} -- oracle says {self.expected!r}, "
            f"model says {self.actual!r}",
        ]
        if self.records:
            lines.append(f"repro ({len(self.records)} accesses):")
            for i, (address, is_write, pc) in enumerate(self.records):
                op = "W" if is_write else "R"
                lines.append(f"  [{i:3d}] {op} 0x{address:x} pc=0x{pc:x}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "policy": self.policy,
            "index": self.index,
            "kind": self.kind,
            "expected": repr(self.expected),
            "actual": repr(self.actual),
            "repro": [[a, int(w), p] for a, w, p in self.records],
        }


def make_sut_policy(name: str, num_cores: int = 1) -> ReplacementPolicy:
    """The production policy under verification, by registry name.

    Supplies the short :data:`VERIFY_RWP_EPOCH` to ``rwp``/``rwp-core``
    and ``num_cores`` to the per-core policies (``rwp-core``, ``ucp``,
    ``tadrrip``, ``pipp``), then builds through the registry.  A
    single-cache replay runs every access as core 0, so the default
    pins the one-core configuration; a shared-LLC run passes its count.
    """
    kwargs = {}
    if name in ("rwp", "rwp-core"):
        kwargs["epoch"] = VERIFY_RWP_EPOCH
    if name in ("rwp-core", "ucp", "tadrrip", "pipp"):
        kwargs["num_cores"] = num_cores
    return make_policy(PolicySpec.make(name, **kwargs))


def make_sut_cache(policy: str, config: CacheConfig) -> SetAssociativeCache:
    """A fresh production cache for one verification run."""
    return SetAssociativeCache(config, make_sut_policy(policy))


def make_oracle_cache(policy: str, config: CacheConfig) -> OracleCache:
    """A fresh oracle cache mirroring ``make_sut_cache``'s construction."""
    if policy in ("rwp", "rwp-core"):
        oracle_policy = make_oracle_policy(policy, epoch=VERIFY_RWP_EPOCH)
    else:
        oracle_policy = make_oracle_policy(policy)
    return OracleCache(
        config.num_sets, config.ways, oracle_policy, config.line_size
    )


SutFactory = Callable[[CacheConfig], SetAssociativeCache]


def _records(trace: "Trace | Sequence[AccessRecord]") -> List[AccessRecord]:
    if isinstance(trace, Trace):
        return [
            (address, bool(is_write), pc)
            for address, is_write, pc, _gap in trace
        ]
    return list(trace)


def _sut_state(sut: SetAssociativeCache) -> List[List[Tuple[int, bool]]]:
    return [
        sorted((line.tag, bool(line.dirty)) for line in s.lines if line.valid)
        for s in sut.sets
    ]


def state_digest(cache: SetAssociativeCache) -> str:
    """SHA-256 over the canonical final (set -> sorted (tag, dirty))."""
    blob = json.dumps(_sut_state(cache), separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def end_record(cache: SetAssociativeCache) -> Dict[str, object]:
    """A cache's end state as the golden corpus pins it."""
    return {
        "state_digest": state_digest(cache),
        "stats": {name: getattr(cache, name) for name in COMPARED_STATS},
    }


def check_drivers(
    policy: str,
    trace: Trace,
    config: CacheConfig,
    record: Dict[str, object],
    sut_factory: Optional[SutFactory] = None,
) -> Tuple[Optional[Divergence], List[str]]:
    """Hold every batched driver to a scalar replay's ``end_record``.

    Replays ``trace`` through a fresh cache per kernel (the dict batch
    loop, then the native kernel, which falls back to the dict loop
    where it declines) with one ``run_trace`` call each, and reports
    the first statistic or state digest that differs from ``record``,
    with the drivers that served in full: ``native`` only when its
    ``fallback_reason`` stayed None (a declined native leg replayed the
    dict loop a second time).
    """
    from repro.kernels import KERNEL_NAMES, attach_kernel

    decoded = trace.decoded(config)
    served: List[str] = []
    for driver in KERNEL_NAMES:
        cache = (
            sut_factory(config) if sut_factory is not None
            else make_sut_cache(policy, config)
        )
        attach_kernel(cache, driver)
        cache.run_trace(decoded)
        if cache.kernel is None or cache.kernel.fallback_reason is None:
            served.append(driver)
        got = end_record(cache)
        for name in COMPARED_STATS:
            if got["stats"][name] != record["stats"][name]:
                return Divergence(
                    policy, -1, f"{driver} run_trace {name}",
                    expected=record["stats"][name], actual=got["stats"][name],
                ), served
        if got["state_digest"] != record["state_digest"]:
            return Divergence(
                policy, -1, f"{driver} run_trace state digest",
                expected=record["state_digest"], actual=got["state_digest"],
            ), served
    return None, served


def _check_invariants(sut: SetAssociativeCache, policy: str) -> Optional[Divergence]:
    """Internal consistency of the production model's bookkeeping."""
    for index, cache_set in enumerate(sut.sets):
        valid = sum(1 for line in cache_set.lines if line.valid)
        if cache_set.filled != valid or len(cache_set.lookup) != valid:
            return Divergence(
                policy,
                -1,
                "invariant",
                expected=f"set {index}: filled==lookup=={valid}",
                actual=(
                    f"set {index}: filled={cache_set.filled} "
                    f"lookup={len(cache_set.lookup)} valid={valid}"
                ),
            )
        dirty = cache_set.dirty_count()
        if cache_set.dirty_lines != dirty:
            return Divergence(
                policy,
                -1,
                "invariant",
                expected=f"set {index}: dirty_lines=={dirty}",
                actual=f"set {index}: dirty_lines={cache_set.dirty_lines}",
            )
    return None


def replay(
    policy: str,
    trace: "Trace | Sequence[AccessRecord]",
    config: CacheConfig,
    sut_factory: Optional[SutFactory] = None,
) -> Optional[Divergence]:
    """Replay one trace through both models; ``None`` means conformant.

    The production side runs scalar ``access()`` in lockstep with the
    oracle; once the two agree to the end, :func:`check_drivers` holds
    every batched driver to the production side's end state.
    """
    return _replay(policy, _records(trace), config, sut_factory)[0]


def _replay(
    policy: str,
    records: List[AccessRecord],
    config: CacheConfig,
    sut_factory: Optional[SutFactory],
) -> Tuple[Optional[Divergence], List[str]]:
    """:func:`replay`, plus the drivers that served (none on a lockstep
    divergence: no batched driver ran)."""
    sut = (
        sut_factory(config) if sut_factory is not None
        else make_sut_cache(policy, config)
    )
    oracle = make_oracle_cache(policy, config)

    sut_access = sut.access
    oracle_access = oracle.access
    for index, (address, is_write, pc) in enumerate(records):
        got = sut_access(address, is_write, pc)
        want = oracle_access(address, is_write, pc)
        if got != want:
            for position, kind in enumerate(("hit", "bypassed", "writeback")):
                if got[position] != want[position]:
                    return Divergence(
                        policy, index, kind,
                        expected=want[position], actual=got[position],
                    ), []

    oracle_state = oracle.set_contents()
    sut_state = _sut_state(sut)
    if sut_state != oracle_state:
        for index, (ours, theirs) in enumerate(zip(sut_state, oracle_state)):
            if ours != theirs:
                return Divergence(
                    policy, -1, "state",
                    expected=f"set {index}: {theirs}",
                    actual=f"set {index}: {ours}",
                ), []

    oracle_stats = oracle.stats()
    for name in COMPARED_STATS:
        if getattr(sut, name) != oracle_stats[name]:
            return Divergence(
                policy, -1, name,
                expected=oracle_stats[name], actual=getattr(sut, name),
            ), []

    invariant = _check_invariants(sut, policy)
    if invariant is not None:
        return invariant, []
    batched = Trace(
        [address for address, _, _ in records],
        [is_write for _, is_write, _ in records],
        [pc for _, _, pc in records],
    )
    return check_drivers(policy, batched, config, end_record(sut), sut_factory)


def shrink(
    policy: str,
    records: Sequence[AccessRecord],
    config: CacheConfig,
    sut_factory: Optional[SutFactory] = None,
) -> Tuple[List[AccessRecord], Divergence]:
    """Delta-debug a diverging trace down to a minimal reproducer.

    Truncates to the failing prefix, then removes chunks (halving the
    chunk size down to single accesses) while *some* divergence -- not
    necessarily the original one -- persists.  Returns the minimal
    record list and the divergence it produces, with ``records``
    attached.
    """
    records = list(records)

    def probe(candidate: List[AccessRecord]) -> Optional[Divergence]:
        if not candidate:
            return None
        return replay(policy, candidate, config, sut_factory)

    def truncated(
        candidate: List[AccessRecord], found: Divergence
    ) -> List[AccessRecord]:
        # Everything after the first mismatching access is irrelevant.
        if 0 <= found.index < len(candidate) - 1:
            return candidate[: found.index + 1]
        return candidate

    divergence = probe(records)
    if divergence is None:
        raise ValueError("shrink() called on a trace that does not diverge")
    records = truncated(records, divergence)

    chunk = max(1, len(records) // 2)
    while True:
        removed_any = False
        start = 0
        while start < len(records):
            candidate = records[:start] + records[start + chunk:]
            found = probe(candidate)
            if found is not None:
                records = truncated(candidate, found)
                divergence = found
                removed_any = True
            else:
                start += chunk
        if chunk == 1:
            if not removed_any:
                break
        else:
            chunk = max(1, chunk // 2)

    final = probe(records)
    final.records = records
    return records, final


def diff_policy(
    policy: str,
    trace: "Trace | Sequence[AccessRecord]",
    config: CacheConfig,
    sut_factory: Optional[SutFactory] = None,
) -> Tuple[Optional[Divergence], List[str]]:
    """Replay and, on divergence, return a *shrunken* reproducer, with
    the drivers that served the full trace (see :func:`check_drivers`)."""
    records = _records(trace)
    divergence, served = _replay(policy, records, config, sut_factory)
    if divergence is not None:
        _, divergence = shrink(policy, records, config, sut_factory)
    return divergence, served
