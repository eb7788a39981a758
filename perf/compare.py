"""Compare two source trees on the benchmark, in alternating pairs.

    python3 perf/compare.py --parent DIR --change DIR [--workload NAME]

``DIR`` is a checkout holding ``src/repro``.  Both sides run this
checkout's ``perf/run.py`` (``--src DIR/src``) with its default window,
so the benchmark code and settings are identical.  Pair ``i`` of the
ten uses seed ``2014 + i`` on both sides and alternates which side runs
first.  Each end-to-end metric gets one row per workload with both
medians and quartiles, the median of the paired change/parent ratios,
and a verdict:

``gain``        the change wins at least 9 of 10 pairs (ties count for
                neither) and the medians differ by more than the
                parent's interquartile range;
``regression``  the median paired ratio is worse than 1 by more than
                the metric's bound;
``unresolved``  the parent's spread (IQR / median) exceeds the bound,
                unless every change run beats every parent run; or the
                median paired ratio is worse than 1 by more than that
                spread, but within the bound;
``no change``   otherwise.

The paired ratio is used for regressions because a slow period of the
host hits both runs of a pair and cancels in their ratio.  No gain is
reported when the change fails more jobs than the parent.  Every run is
written to ``.perf_out/compare-<time>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

from run import DEFAULT_SEED, PERF, ROOT, WORKLOADS, load_benchmark, stop_on_sigterm

#: section 8 of the metrics guide asks for at least ten pairs
PAIRS = 10


def paired_ratio(parent: List[float], change: List[float]) -> float:
    return statistics.median(c / p for p, c in zip(parent, change))


def verdict(parent: List[float], change: List[float], better: str,
            bound: float) -> str:
    """The rule in the module docstring, for one metric on one workload."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4)
    spread = (q3 - q1) / abs(p_med)
    if wins >= 0.9 * len(parent) and sign * (c_med - p_med) > q3 - q1:
        return "gain"
    worse = -sign * (paired_ratio(parent, change) - 1.0)
    if worse > bound:
        return "regression"
    if spread > bound:
        separated = (min(change) > max(parent) if sign > 0
                     else max(change) < min(parent))
        return "better (all runs)" if separated else "unresolved"
    return "unresolved" if worse > spread else "no change"


def run_side(src: Path, workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(PERF / "run.py"), "--workload", workload,
         "--seed", str(seed), "--src", str(src)],
        cwd=str(ROOT), stdout=subprocess.PIPE, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    result["exit"] = proc.returncode
    return result


def _quartiles(values: List[float]) -> str:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{statistics.median(values):.4f} [{q1:.4f}, {q3:.4f}]"


def main(argv=None) -> int:
    bench = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", default="all",
                        choices=("all",) + WORKLOADS)
    args = parser.parse_args(argv)
    sides = {"parent": args.parent / "src", "change": args.change / "src"}
    log_path = ROOT / ".perf_out" / f"compare-{int(time.time())}.jsonl"
    log_path.parent.mkdir(parents=True, exist_ok=True)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    ok = True
    with open(log_path, "w") as log:
        for workload in workloads:
            runs: Dict[str, List[dict]] = {"parent": [], "change": []}
            for index in range(PAIRS):
                order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
                for side in order:
                    result = run_side(sides[side], workload, DEFAULT_SEED + index)
                    runs[side].append(result)
                    log.write(json.dumps({"workload": workload, "side": side,
                                          "pair": index, **result}) + "\n")
            ok &= report(workload, runs, bench)
    print(f"runs: {log_path}")
    return 0 if ok else 1


def report(workload: str, runs: Dict[str, List[dict]], bench: dict) -> bool:
    """Print one row per metric; False when a side failed a check."""
    failed = {side: sum(r["failed"] for r in rs) for side, rs in runs.items()}
    broken = [side for side, rs in runs.items()
              if not all(r["correct"] for r in rs)]
    print(f"{workload}: failed jobs parent={failed['parent']} "
          f"change={failed['change']}")
    if broken:
        print(f"  incorrect runs on: {', '.join(broken)}; no verdicts")
        return False
    for metric in bench["end_to_end"]:
        name = metric["name"]
        parent = [r["metrics"][name]["value"] for r in runs["parent"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        result = verdict(parent, change, metric["better"], metric["bound"])
        if result == "gain" and failed["change"] > failed["parent"]:
            result = "no gain (more failures)"
        print(f"  {name:<20} parent {_quartiles(parent):<30} "
              f"change {_quartiles(change):<30} "
              f"change/parent {paired_ratio(parent, change):.4f}  {result}")
    return True


if __name__ == "__main__":
    stop_on_sigterm()
    sys.exit(main())
