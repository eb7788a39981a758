"""The benchmark: cold and warm sweeps of four paper grids.

    python3 perf/run.py --workload {all|NAME} --seed N [--seconds S]
        [--repeats R] [--trace {0,1}] [--out DIR] [--smoke] [--keep]

For each workload run.py starts fresh child processes
(``perf/child.py``), one at a time, each with a private HOME, result
store, journal and kernel cache under ``.perf_tmp/`` in the checkout.
Each child is pinned to one CPU, where a speed probe (speed.py) times a
fixed loop while the child runs; child times are reported at the
probe's reference speed, so that a shared host's slow periods cancel.
The children, in order:

1. ``setup`` -- import the public API and build the native kernel into
   an empty kernel cache, several times; the last cache serves the run.
2. cycles of a **cold** run (the grid into an empty store) and a
   **warm** rerun against the filled store, repeated until ``--seconds``
   are used up (at least ``--repeats`` cycles).  Metrics are medians.
3. with ``--trace 1``, first a traced cold and a traced warm child that
   record layer spans (see tracer.py) into ``DIR/<workload>.spans.jsonl``.
   End-to-end numbers always come from untraced children.
4. a ``check`` child that reruns two jobs with the other batch driver
   and, on the native-kernel grids, the first job on the kernel itself,
   failing if the kernel declined it.

Every metric is printed by name and unit; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics`` (the end-to-end metrics, or with ``--trace 1`` the
per-layer ones).  A failed check exits 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from speed import SpeedProbe

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
BENCHMARK = ROOT / "BENCHMARK.json"
EXPECTED = PERF / "expected.json"

WORKLOADS = ("paper-llc", "mc-native", "sharing", "hier-pcm")
DEFAULT_SEED = 2014
#: workloads whose jobs request the native kernel and must get it
NATIVE_WORKLOADS = ("mc-native", "hier-pcm")
SETUP_RUNS = 3
#: children write stray output to fd 2, keeping stdout for the report
STDERR_FD = 2
CHILD_TIMEOUT_S = 150
#: LLC lines per core.  The experiments' default is 4096; at 512 a
#: grid's cold run takes 4-7 s, so one benchmark run repeats it and
#: reports medians.
BENCH_LLC_LINES = 512
SMOKE_LLC_LINES = 256
#: the paper's single-core headline (claim C1): RWP over LRU, geomean
PAPER_C1 = 0.05
#: warm reruns are short (mostly interpreter start and imports) and
#: noisier, so each cycle takes more of them.
WARM_PER_COLD = 2

#: per-layer metrics: (metric, layer, what).  ``self_s`` is the layer's
#: self time in seconds, ``self_frac`` the same as a share of the
#: traced wall time (used for layers that run on some workloads only,
#: so that no time metric reads a constant zero), ``calls`` its call
#: count, ``work`` the work it reports (accesses, dispatches served).
LAYER_METRICS = (
    ("proc.import_s", "proc.import", "self_s"),
    ("trace.generate.self_s", "trace.generate", "self_s"),
    ("trace.generate.accesses", "trace.generate", "work"),
    ("trace.decode.self_s", "trace.decode", "self_s"),
    ("cache.construct.self_s", "cache.construct", "self_s"),
    ("cache.replay.self_frac", "cache.replay", "self_frac"),
    ("cache.replay.accesses", "cache.replay", "work"),
    ("core.epoch.self_s", "core.epoch", "self_s"),
    ("core.epoch.calls", "core.epoch", "calls"),
    ("core.victim.self_frac", "core.victim", "self_frac"),
    ("core.victim.calls", "core.victim", "calls"),
    ("kernels.call.self_frac", "kernels.call", "self_frac"),
    ("kernels.call.attempts", "kernels.call", "calls"),
    ("kernels.gather.self_frac", "kernels.gather", "self_frac"),
    ("kernels.scatter.self_frac", "kernels.scatter", "self_frac"),
    ("hierarchy.run_trace.self_frac", "hierarchy.run_trace", "self_frac"),
    ("cpu.runner.self_s", "cpu.runner", "self_s"),
    ("mem.backend.self_frac", "mem.backend", "self_frac"),
    ("multicore.run.self_frac", "multicore.run", "self_frac"),
    ("multicore.directory.self_frac", "multicore.directory", "self_frac"),
    ("experiments.run_mix.self_frac", "experiments.run_mix", "self_frac"),
    ("sim.simulate.self_s", "sim.simulate", "self_s"),
    ("sim.simulate.calls", "sim.simulate", "calls"),
    ("engine.key.self_s", "engine.key", "self_s"),
    ("engine.execute.self_s", "engine.execute", "self_s"),
    ("engine.encode.self_s", "engine.encode", "self_s"),
    ("engine.store.put_s", "engine.store.put", "self_s"),
    ("engine.journal.self_s", "engine.journal", "self_s"),
)
#: measured on the traced *warm* child, where every get is a hit
WARM_LAYER_METRICS = (
    ("engine.store.get_s", "engine.store.get", "self_s"),
    ("engine.decode.self_s", "engine.decode", "self_s"),
)


def load_benchmark() -> dict:
    with open(BENCHMARK) as handle:
        return json.load(handle)


def load_pins() -> dict:
    try:
        with open(EXPECTED) as handle:
            return json.load(handle)
    except FileNotFoundError:
        return {}


# -- children -----------------------------------------------------------------
class Sandbox:
    """Private directories and environment for one workload's children."""

    def __init__(self, root: Path, src: Path) -> None:
        self.root = root
        self.src = src
        self.kernel_cache: Optional[Path] = None
        self._count = 0

    def env(self, kernel_cache: Path) -> Dict[str, str]:
        home = self.root / "home"
        tmp = self.root / "tmp"
        home.mkdir(exist_ok=True)
        tmp.mkdir(exist_ok=True)
        # Nothing from the caller's REPRO_* settings may leak in: the
        # store, kernel cache and kernel choice are the benchmark's.
        env = {
            key: value
            for key, value in os.environ.items()
            if not key.startswith("REPRO_")
            and key not in ("PYTHONPATH", "XDG_CACHE_HOME")
        }
        env.update(
            HOME=str(home),
            TMPDIR=str(tmp),
            PYTHONPATH=str(self.src),
            REPRO_KERNEL_CACHE=str(kernel_cache),
        )
        return env

    def spawn(self, request: dict, kernel_cache: Optional[Path] = None) -> "Child":
        """Run one child to completion, pinned to one CPU beside a probe.

        Children share the kernel cache the last setup built, unless
        given another (each setup builds into an empty one).
        """
        self._count += 1
        request_path = self.root / f"request-{self._count}.json"
        report_path = self.root / f"report-{self._count}.json"
        request_path.write_text(json.dumps(request))
        env = self.env(kernel_cache or self.kernel_cache)
        allowed = os.sched_getaffinity(0)
        cpu = min(allowed)
        with SpeedProbe(cpu) as probe:
            # The child inherits the affinity of the thread that starts it.
            os.sched_setaffinity(0, {cpu})
            try:
                started = time.perf_counter()
                proc = subprocess.Popen(
                    [sys.executable, str(PERF / "child.py"), str(request_path),
                     str(report_path)],
                    env=env, cwd=str(self.root), stdout=STDERR_FD,
                )
            finally:
                os.sched_setaffinity(0, allowed)
            # A blocking wait sees the exit at once; a wait with a timeout
            # polls every 50 ms, which would round the wall times to 50 ms.
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                code = proc.wait()
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - started
        if code == -signal.SIGKILL:
            code = f"killed after {CHILD_TIMEOUT_S} s"
        if code != 0 or not report_path.is_file():
            return Child(request, wall, probe.slowdown, {},
                         f"{request['phase']} child exit {code}")
        report = json.loads(report_path.read_text())
        own = wall - probe.busy_s - report.get("check_s", 0.0)
        return Child(request, probe.scale(own), probe.slowdown, report)


@dataclass
class Child:
    """One finished child.  ``seconds`` is its wall time without the
    probe's chunks and the post-run checks, at the reference speed
    (speed.py); ``slowdown`` is how much slower its CPU ran than that."""

    request: dict
    seconds: float
    slowdown: float
    report: dict
    error: Optional[str] = None


@dataclass
class WorkloadRun:
    """Everything one workload's run measured and checked."""

    workload: str
    seed: int
    jobs: int = 0
    setups: List[Child] = field(default_factory=list)
    cold: List[Child] = field(default_factory=list)
    warm: List[Child] = field(default_factory=list)
    traced: List[Child] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    digest: str = ""
    pinned: Optional[str] = None

    @property
    def attempted(self) -> int:
        """Jobs the cold and warm children attempted (a crash counts all)."""
        return sum(c.report.get("jobs", self.jobs) for c in self.cold + self.warm)

    @property
    def failed(self) -> int:
        return sum(
            c.report.get("failed", self.jobs) for c in self.cold + self.warm
        )

    @property
    def traced_ok(self) -> bool:
        return len(self.traced) == 2 and all(c.report for c in self.traced)

    @property
    def correct(self) -> bool:
        return not self.failures

    def samples(self) -> Dict[str, List[float]]:
        """Every end-to-end sample of the run, per metric."""
        cold = [c for c in self.cold if c.report]
        return {
            "setup_s": [c.seconds for c in self.setups],
            "cold_s": [c.seconds for c in cold],
            "warm_s": [c.seconds for c in self.warm if c.report],
            "sim_maccess_per_s": [
                c.report["nominal_accesses"] * c.slowdown / c.report["run_s"] / 1e6
                for c in cold
            ],
            "peak_rss_mb": [c.report["rss_mb"] for c in cold],
        }

    def end_to_end(self) -> Dict[str, float]:
        return {name: _median(v) for name, v in self.samples().items()}

    def per_layer(self) -> Dict[str, float]:
        cold, warm = self.traced[0].report, self.traced[1].report
        metrics = {}
        for source, table in ((cold, LAYER_METRICS), (warm, WARM_LAYER_METRICS)):
            wall = source["wall_s"]
            for metric, layer, what in table:
                calls, own, work = source["layers"][layer]
                metrics[metric] = {
                    "self_s": own, "self_frac": own / wall,
                    "calls": calls, "work": work,
                }[what]
        calls, _, served = cold["layers"]["kernels.call"]
        metrics["kernels.call.served_ratio"] = served / calls if calls else 0.0
        metrics["mem.backend.reads"] = cold["backend_reads"]
        metrics["mem.backend.writes"] = cold["backend_writes"]
        ticks = cold["layers"]["multicore.run"][2]
        metrics["multicore.replay_ratio"] = ticks / cold["nominal_accesses"]
        gets, _, _ = warm["layers"]["engine.store.get"]
        metrics["engine.store.hit_ratio"] = warm["hits"] / gets if gets else 0.0
        metrics["engine.store.bytes"] = cold["store_bytes"]
        metrics["untraced.self_s"] = cold["untraced_s"]
        metrics["trace.wall_s"] = cold["wall_s"]
        untraced = _median(c.seconds for c in self.cold if c.report)
        metrics["trace.overhead_frac"] = self.traced[0].seconds / untraced - 1.0
        return metrics


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else float("nan")


def _run_request(workload, seed, opts, store: Path, traced=False, phase="") -> dict:
    return {
        "phase": "run", "workload": workload, "seed": seed,
        "llc_lines": opts.llc_lines, "smoke": opts.smoke,
        "store": str(store), "journal": str(store / "journal.jsonl"),
        "traced": traced, "spans": str(opts.spans_path(workload)),
        "phase_name": phase,
    }


def run_workload(workload: str, seed: int, opts: "Options") -> WorkloadRun:
    """Set up, measure and check one workload (see the module docstring)."""
    run = WorkloadRun(workload, seed)
    root = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=opts.tmp_root))
    sandbox = Sandbox(root, opts.src)
    try:
        _setup(run, sandbox, opts)
        if run.failures:
            return run
        window = time.perf_counter()
        if opts.trace:
            _traced(run, sandbox, opts)
        store = None
        while True:
            started = time.perf_counter()
            if store is not None and not opts.keep:
                shutil.rmtree(store.parent)
            store = root / f"cycle-{len(run.cold)}" / "store"
            store.mkdir(parents=True)
            request = _run_request(workload, seed, opts, store)
            run.cold.append(sandbox.spawn(request))
            for _ in range(WARM_PER_COLD):
                run.warm.append(sandbox.spawn(request))
            run.jobs = run.jobs or run.cold[-1].report.get("jobs", 0)
            now = time.perf_counter()
            if len(run.cold) >= opts.repeats and (
                now - window + (now - started) > opts.seconds
            ):
                break
        check = sandbox.spawn({
            **_run_request(workload, seed, opts, store), "phase": "check",
            "require_kernel": workload in NATIVE_WORKLOADS,
        })
        _verify(run, check, opts)
    finally:
        if not opts.keep:
            shutil.rmtree(root, ignore_errors=True)
    return run


def _setup(run: WorkloadRun, sandbox: Sandbox, opts: "Options") -> None:
    for index in range(1 if opts.smoke else SETUP_RUNS):
        cache = sandbox.root / f"kernels-{index}"
        child = sandbox.spawn({"phase": "setup"}, cache)
        run.setups.append(child)
        if child.error:
            run.failures.append(f"setup: {child.error}")
            return
        sandbox.kernel_cache = cache


def _traced(run: WorkloadRun, sandbox: Sandbox, opts: "Options") -> None:
    spans = opts.spans_path(run.workload)
    spans.parent.mkdir(parents=True, exist_ok=True)
    spans.write_text("")
    store = sandbox.root / "traced" / "store"
    store.mkdir(parents=True)
    for phase in ("cold", "warm"):
        request = _run_request(
            run.workload, run.seed, opts, store, traced=True, phase=phase
        )
        run.traced.append(sandbox.spawn(request))


def _verify(run: WorkloadRun, check: Child, opts: "Options") -> None:
    """The correctness gate; every failure is recorded in ``failures``."""
    fail = run.failures.append
    for child in run.cold + run.warm + run.traced + [check]:
        if child.error:
            fail(child.error)
        elif child.report.get("error"):
            fail(f"{child.request['phase']}: {child.report['error']}")
    digests = set()
    for label, children in (("cold", run.cold), ("warm", run.warm)):
        for child in children:
            report = child.report
            if not report or report.get("error"):
                continue
            digests.add(report["digest"])
            expected = report["jobs"]
            done = report["simulated"] if label == "cold" else report["hits"]
            if done != expected:
                fail(f"{label}: {done} of {expected} jobs "
                     f"{'simulated' if label == 'cold' else 'hit'}")
            if report["wrapped"]:
                fail(f"{label}: untraced child has {report['wrapped']} wrappers")
    if len(digests) > 1:
        fail(f"cold and warm results differ ({len(digests)} digests)")
    run.digest = digests.pop() if len(digests) == 1 else ""
    for mismatch in check.report.get("mismatches", []):
        fail(f"check: {mismatch}")
    if not opts.smoke:
        pins = load_pins().get("digests", {}).get(run.workload, {})
        run.pinned = pins.get(str(run.seed))
        if run.pinned is not None and run.pinned != run.digest:
            fail(f"digest {run.digest[:16]} != pinned {run.pinned[:16]}")
    if opts.trace and run.traced_ok:
        cold, warm = (c.report for c in run.traced)
        if cold.get("digest") != run.digest:
            fail("traced results differ from untraced ones")
        if warm.get("hits") != warm.get("jobs"):
            fail("traced warm child did not hit every job")
        if not cold["wrapped"]:
            fail("traced child installed no wrappers")
        for target in cold["missing"]:
            run.notes.append(f"tracer: {target} not found; its layer under-reports")


# -- reporting ------------------------------------------------------------------
def print_report(run: WorkloadRun, bench: dict, opts: "Options") -> None:
    print(f"perf {run.workload}: seed={run.seed} llc_lines={opts.llc_lines} "
          f"jobs={run.jobs} setups={len(run.setups)} cycles={len(run.cold)}")
    if not run.cold:
        return
    slowdowns = [c.slowdown for c in run.setups + run.cold + run.warm]
    print(f"  host slowdown {min(slowdowns):.3f}-{max(slowdowns):.3f} "
          f"(median {_median(slowdowns):.3f}); times below are at the "
          f"reference speed")
    samples = run.samples()
    for metric in bench["end_to_end"]:
        values = samples[metric["name"]]
        print(f"  {metric['name']:<20} {_median(values):>12.4f} "
              f"{metric['unit']:<8} median of {len(values)}: "
              + " ".join(f"{v:.4g}" for v in values))
    attempted = run.attempted
    print(f"  {'fail_frac':<20} {run.failed / attempted if attempted else 0:>12.4f} "
          f"{'ratio':<8} {run.failed}/{attempted} jobs")
    speedup = next(
        (c.report["rwp_speedup"] for c in run.cold if "rwp_speedup" in c.report),
        float("nan"),
    )
    note = (f"paper C1: {PAPER_C1:+.0%}; simulated, unvalidated"
            if run.workload == "paper-llc" else "simulated, unvalidated")
    print(f"  {'rwp_speedup':<20} {speedup:>12.4f} {'ratio':<8} {note}")
    pin = ("no pin for this seed" if run.pinned is None
           else "matches pin" if run.pinned == run.digest else "PIN MISMATCH")
    print(f"  digest               {run.digest} ({pin})")
    if opts.trace and run.traced_ok:
        layers = run.per_layer()
        for metric in bench["per_layer"]:
            print(f"  {metric['name']:<30} {layers[metric['name']]:>14.6g} "
                  f"{metric['unit']}")
        cold = run.traced[0].report
        print(f"  spans: {opts.spans_path(run.workload)}")
        print("  layer                     calls       self_s        work")
        for layer, (calls, own, work) in cold["layers"].items():
            print(f"  {layer:<22} {calls:>8} {own:>12.4f} {work:>11}")
    for note in run.notes:
        print(f"  note: {note}")
    for failure in run.failures:
        print(f"  FAILED: {failure}")


@dataclass
class Options:
    seconds: float
    repeats: int
    trace: bool
    out: Path
    smoke: bool
    keep: bool
    src: Path
    tmp_root: Path

    @property
    def llc_lines(self) -> int:
        return SMOKE_LLC_LINES if self.smoke else BENCH_LLC_LINES

    def spans_path(self, workload: str) -> Path:
        return self.out / f"{workload}.spans.jsonl"


def parse_args(argv=None):
    bench = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("all",) + WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"],
                        help="measurement window per workload")
    # Two, so that a run holds two cold samples even when a slow host
    # stretches one cycle past half the window.
    parser.add_argument("--repeats", type=int, default=2,
                        help="minimum cold+warm cycles per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=ROOT / ".perf_out",
                        help="directory for the span files")
    parser.add_argument("--smoke", action="store_true",
                        help="256-line scale, first and last job of the grid only")
    parser.add_argument("--keep", action="store_true",
                        help="keep the children's temp directories")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="source tree to benchmark (perf/compare.py)")
    return bench, parser.parse_args(argv)


def stop_on_sigterm() -> None:
    """Turn SIGTERM into SystemExit, so ``subprocess.run`` kills and
    reaps the running child and the temp directories are removed."""
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))


def main(argv=None) -> int:
    bench, args = parse_args(argv)
    src = args.src.resolve()
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perf: no repro package under {src}", file=sys.stderr)
        return 2
    tmp_root = ROOT / ".perf_tmp"
    tmp_root.mkdir(exist_ok=True)
    opts = Options(args.seconds, args.repeats, bool(args.trace),
                   args.out.resolve(), args.smoke, args.keep, src, tmp_root)
    # Compile bytecode up front so no timed child pays for it.
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(src),
                    str(PERF)], stdout=STDERR_FD, check=True)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    runs = []
    for workload in workloads:
        run = run_workload(workload, args.seed, opts)
        if run.setups and run.setups[-1].error:
            print(f"perf: setup failed: {run.setups[-1].error}", file=sys.stderr)
            return 2
        print_report(run, bench, opts)
        runs.append(run)
    metrics = {}
    spec = bench["per_layer"] if opts.trace else bench["end_to_end"]
    for run in runs:
        if not opts.trace:
            values = run.end_to_end()
        else:
            values = run.per_layer() if run.traced_ok else {}
        prefix = "" if len(runs) == 1 else f"{run.workload}/"
        for metric in spec:
            value = values.get(metric["name"], math.nan)
            metrics[prefix + metric["name"]] = {
                "value": None if math.isnan(value) else value,
                "unit": metric["unit"],
            }
    correct = all(run.correct for run in runs)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(run.attempted for run in runs),
        "failed": sum(run.failed for run in runs),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    stop_on_sigterm()
    sys.exit(main())
