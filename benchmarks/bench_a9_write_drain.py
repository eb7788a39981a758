"""A9 -- deferred write drain: recovering A5's lost margin.

A5 showed RWP's extra writebacks occupying DRAM banks ahead of demand
reads.  Real controllers don't issue writes eagerly: they queue them and
drain in row-sorted batches.  This harness re-runs the banked-DRAM
comparison with the watermark write-drain scheduler and reports how much
of RWP's flat-memory margin the controller recovers.
"""

import conftest
from conftest import SINGLE_CORE_SCALE, report

from repro.experiments.runner import speedups_over
from repro.experiments.tables import format_table
from repro.multicore.metrics import geometric_mean
from repro.trace.spec import sensitive_names

POLICIES = ("drrip", "rrp", "rwp")

#: write issue -> banked-DRAM backend spec
MEMORY = {
    "eager": "dram:banked=true",
    "drained": "dram:banked=true:scheduler=true",
}


def run() -> tuple:
    benches = sensitive_names()
    rows = []
    geo = {}
    for label, memory in MEMORY.items():
        grid = conftest.grid(
            benches, ("lru", *POLICIES), SINGLE_CORE_SCALE, memory=memory
        )
        speedups = speedups_over(grid, benches, POLICIES)
        geo[label] = {p: geometric_mean(speedups[p]) for p in POLICIES}
        rows.append([label] + [geo[label][p] for p in POLICIES])
    table = format_table(["write issue", *POLICIES], rows)
    return table, geo


def test_a9_write_drain_scheduler(benchmark):
    table, geo = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        "A9: banked-DRAM geomean speedup, eager vs drained writebacks",
        table,
    )
    # The drain scheduler must help the write-heavy policy at least as
    # much as the others: RWP's margin with a real controller is no
    # worse than with eager writes.
    assert geo["drained"]["rwp"] >= geo["eager"]["rwp"] - 0.005
