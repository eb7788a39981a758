"""Shared scale and reporting helpers for the benchmark harnesses.

Every ``bench_*`` file regenerates one table or figure of the paper (see
DESIGN.md's per-experiment index) and prints its rows.  Run with::

    pytest benchmarks/ --benchmark-only

Scales below are 1/16th of the paper's 2 MB LLC so the whole evaluation
regenerates in minutes of pure-Python simulation; working sets scale with
the cache, preserving every relative effect (see DESIGN.md).  Set
``REPRO_BENCH_SCALE=paper`` for the full-size geometry (slow).
"""

from __future__ import annotations

import os
import sys

from repro.experiments.runner import ExperimentScale, run_grid

_CAPTURE_MANAGER = None


def pytest_configure(config) -> None:
    """Grab the capture manager so report() can bypass output capture."""
    global _CAPTURE_MANAGER
    _CAPTURE_MANAGER = config.pluginmanager.getplugin("capturemanager")

_FULL = os.environ.get("REPRO_BENCH_SCALE", "") == "paper"

#: single-core experiment scale (per-figure harnesses)
SINGLE_CORE_SCALE = ExperimentScale(
    llc_lines=32768 if _FULL else 2048,
    warmup_factor=8,
    measure_factor=24,
)

#: per-core scale for the 4-core experiments (shared LLC is 4x this)
PER_CORE_SCALE = ExperimentScale(
    llc_lines=32768 if _FULL else 1024,
    warmup_factor=8,
    measure_factor=24,
)

#: engine knobs for the grid-shaped harnesses: REPRO_BENCH_JOBS worker
#: processes (default serial), REPRO_BENCH_STORE an on-disk result store
#: so repeated benchmark runs skip simulation (default off: timing runs
#: should measure simulation, not cache reads -- opt in explicitly).
BENCH_JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "1"))
_BENCH_STORE_DIR = os.environ.get("REPRO_BENCH_STORE", "")


def grid(benchmarks, policies, scale=None, memory="dram"):
    """Engine-backed ``run_grid`` honoring the environment knobs.

    ``memory`` is the main-memory backend spec for every cell (see
    docs/MEMORY.md).
    """
    return run_grid(
        benchmarks,
        policies,
        scale if scale is not None else SINGLE_CORE_SCALE,
        jobs=BENCH_JOBS,
        store=_BENCH_STORE_DIR or None,
        memory=memory,
    )


def report(title: str, body: str) -> None:
    """Print one experiment's table, clearly delimited.

    Capture is suspended around the write so the rows appear in plain
    ``pytest benchmarks/ --benchmark-only`` output (no ``-s`` needed) --
    the tables are the artifact, not debug chatter.
    """
    banner = "=" * 72
    text = f"\n{banner}\n{title}\n{banner}\n{body}\n"
    if _CAPTURE_MANAGER is not None:
        with _CAPTURE_MANAGER.global_and_fixture_disabled():
            sys.stdout.write(text)
            sys.stdout.flush()
    else:
        sys.stdout.write(text)
        sys.stdout.flush()
