"""A5 -- the headline comparison on banked DRAM.

The flat-latency memory model charges writebacks only through the write
buffer; banked DRAM makes them occupy banks and close rows, which is
exactly where a policy that *increases* write traffic (RWP sheds dirty
lines aggressively) could give its winnings back.  This harness re-runs
the sensitive-subset comparison on the detailed model.
"""

import conftest
from conftest import SINGLE_CORE_SCALE, report

from repro.experiments.runner import speedups_over
from repro.experiments.tables import format_table
from repro.multicore.metrics import geometric_mean
from repro.trace.spec import sensitive_names

POLICIES = ("drrip", "ship", "rrp", "rwp")

#: 16-bank open-row DRAM, writebacks issued to the banks as they happen
MEMORY = "dram:banked=true"


def _row_hit_rate(result) -> float:
    stats = result.extra["backend"]
    hits = stats["dram.row_hits"]
    return hits / (hits + stats["dram.row_misses"])


def run() -> tuple:
    benches = sensitive_names()
    grid = conftest.grid(
        benches, ("lru", *POLICIES), SINGLE_CORE_SCALE, memory=MEMORY
    )
    speedups = speedups_over(grid, benches, POLICIES)
    rows = [
        [bench]
        + [speedups[p][i] for p in POLICIES]
        + [_row_hit_rate(grid[(bench, "lru")])]
        for i, bench in enumerate(benches)
    ]
    geo = {p: geometric_mean(speedups[p]) for p in POLICIES}
    rows.append(["GEOMEAN"] + [geo[p] for p in POLICIES] + [""])
    headers = ["benchmark", *POLICIES, "lru_row_hit"]
    return format_table(headers, rows), geo


def test_a5_banked_dram(benchmark):
    table, geo = benchmark.pedantic(run, rounds=1, iterations=1)
    report("A5: speedup over LRU on banked DRAM (sensitive subset)", table)
    # The benefit shrinks but must survive the detailed memory model.
    assert geo["rwp"] > 1.0
