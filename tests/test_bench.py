"""Tests for ``repro bench``: its row table and its baseline guard.

``compare_to_baseline`` skips rows present on only one side, so a row
that went missing from the table would still pass CI's guard; the
table tests pin the rows ``repro bench`` times without timing them.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments import bench
from repro.experiments.bench import (
    BenchResult,
    bench_plan,
    compare_to_baseline,
    time_row,
)

BASELINE = Path(__file__).resolve().parents[1] / "benchmarks" / "baseline_bench.json"

#: ``repro bench --quick``: (row key, nominal accesses) in timing order
QUICK_ROWS = [
    ("lru", 65536),
    ("rwp", 65536),
    ("kernel:lru", 65536),
    ("kernel:rwp", 65536),
    ("hierarchy:lru", 16384),
    ("hierarchy:rwp", 16384),
    ("hierarchy_pcm:rwp", 16384),
    ("multicore4:lru", 16384),
    ("multicore4:rwp", 16384),
    ("multicore4:rwp-core", 16384),
    ("multicore8shared:rwp-core", 32768),
    ("stress:chase", 16384),
    ("kernel:hierarchy:lru", 16384),
    ("kernel:hierarchy:rwp", 16384),
    ("kernel:hierarchy_pcm:rwp", 16384),
    ("kernel:multicore4:lru", 16384),
    ("kernel:multicore4:rwp", 16384),
    ("kernel:multicore4:rwp-core", 16384),
    ("kernel:multicore8shared:rwp-core", 32768),
    ("kernel:stress:chase", 16384),
]


@pytest.fixture
def planned(monkeypatch):
    """``repro bench --quick ARGS`` with the timing loop replaced by a
    recorder: returns the (key, accesses) of every row it would time."""
    seen = []

    def record(row, kernel, repeats):
        key = row.label(kernel)
        seen.append((key, row.accesses))
        return BenchResult(key, row.accesses, 1.0, float(row.accesses), repeats)

    monkeypatch.setattr(bench, "time_row", record)

    def run(*argv):
        seen.clear()
        assert main(["bench", "--quick", *argv]) == 0
        return list(seen)

    return run


class TestTable:
    def test_default_rows_cover_the_baseline(self, planned):
        rows = planned()
        assert rows == QUICK_ROWS
        baseline = json.loads(BASELINE.read_text())["results"]
        assert {key for key, _ in rows} == set(baseline) | {"kernel:stress:chase"}

    def test_comparator_floor_rows(self, planned):
        # CI's comparator floor reads these eight rows.
        rows = planned("--llc-only", "--policies", "dip,drrip,ship,rrp")
        zoo = ["dip", "drrip", "ship", "rrp"]
        keys = zoo + [f"kernel:{policy}" for policy in zoo]
        assert rows == [(key, 65536) for key in keys]

    def test_dict_kernel_times_bare_rows_only(self, planned):
        bare = [row for row in QUICK_ROWS if not row[0].startswith("kernel:")]
        assert planned("--kernel", "dict") == bare

    def test_declined_kernel_row_logs_its_reason(self, capsys):
        # srrip has no kernel counterpart (and without a library the
        # reason says that), so its kernel row runs in Python and says
        # why; the dict row has nothing to report.
        (plain, dict_kernel), (row, kernel) = bench_plan(
            ["srrip"], llc_lines=256, accesses=2048, llc_only=True
        )
        time_row(plain, dict_kernel, repeats=1)
        assert "bench note" not in capsys.readouterr().err
        result = time_row(row, kernel, repeats=1)
        assert (result.policy, result.accesses) == ("kernel:srrip", 2048)
        assert (
            "bench note: kernel:srrip: kernel fell back to Python -- "
            in capsys.readouterr().err
        )


def _payload(**rates):
    return {"results": {k: {"accesses_per_sec": v} for k, v in rates.items()}}


class TestCompareToBaseline:
    def test_flags_a_row_below_tolerance(self):
        problems = compare_to_baseline(
            _payload(lru=19.0, rwp=21.0), _payload(lru=100.0, rwp=100.0), 0.2
        )
        assert len(problems) == 1
        assert "'lru'" in problems[0]

    def test_skips_one_sided_rows(self):
        current = _payload(lru=100.0, added=1.0)
        baseline = _payload(lru=100.0, dropped=1e9)
        assert compare_to_baseline(current, baseline) == []

    def test_reports_an_empty_intersection(self):
        assert compare_to_baseline(_payload(lru=1.0), _payload(rwp=1.0)) == [
            "bench baseline and current run share no policies"
        ]

    @pytest.mark.parametrize("tolerance", (0.0, -0.5, 1.5))
    def test_tolerance_outside_unit_interval_raises(self, tolerance):
        with pytest.raises(ValueError, match="tolerance"):
            compare_to_baseline(_payload(lru=1.0), _payload(lru=1.0), tolerance)
