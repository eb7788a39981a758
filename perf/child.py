"""One benchmark child: a fresh process that runs one phase and reports.

``python perf/child.py REQUEST.json REPORT.json``

``run.py`` starts one child at a time with a private HOME,
result store, journal and kernel cache.  Phases:

``setup``  import the public API and build the native kernel into the
           (empty) kernel cache; fails if the kernel cannot be built.
``run``    run the workload's grid through ``run_jobs`` into the given
           store -- cold when the store is empty, warm when it is full;
           with ``traced`` the layer wrappers record spans meanwhile.
``check``  rerun the first job and the first rwp-family job with the
           other batch driver and compare with the store's results;
           with ``require_kernel``, also rerun the first job on its own
           native kernel and fail if the kernel declined it.

The report is written after the timed work; run.py subtracts the
``check_s`` it took from the child's wall time.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import grids  # noqa: E402  (imports repro.experiments first)
from repro.engine import RunJournal, SweepError, run_jobs  # noqa: E402

T_IMPORT = time.perf_counter()


def _jobs(request: dict) -> list:
    return grids.build(request["workload"], request["seed"],
                       request["llc_lines"], request["smoke"])


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup(request: dict) -> dict:
    from repro.kernels import load_native

    started = time.perf_counter()
    lib = load_native()
    if lib is None:
        raise SystemExit(
            "perf: the native kernel could not be built (is a C compiler "
            "installed and REPRO_NO_NATIVE unset?)"
        )
    return {"import_s": T_IMPORT - T0, "build_s": time.perf_counter() - started}


def run(request: dict) -> dict:
    jobs = _jobs(request)
    tracer = None
    if request["traced"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.add_root("proc.import", T0, T_IMPORT)
        tracer.install()
    error = None
    started = time.perf_counter()
    try:
        outcome = run_jobs(
            jobs, max_workers=1, store=request["store"],
            journal=request["journal"],
        )
    except SweepError as exc:
        outcome, error = None, str(exc)
    ended = time.perf_counter()
    # Before installed_count(), which imports every module the tracer
    # targets, including ones this grid never loaded.
    rss_mb = _rss_mb()

    check_started = time.perf_counter()
    import tracer as tracing

    wrapped = tracing.installed_count()
    if tracer is not None:
        tracer.uninstall()
    report = {
        "wrapped": wrapped,
        "jobs": len(jobs),
        "run_s": ended - started,
        "wall_s": ended - T0,
        "rss_mb": rss_mb,
        "nominal_accesses": grids.nominal_accesses(jobs),
    }
    if outcome is None:
        failed = sum(
            entry.status == "error"
            for entry in RunJournal(request["journal"]).entries()
        )
        report.update(error=error, failed=failed or len(jobs))
    else:
        stats = outcome.stats
        report.update(
            failed=stats.failed,
            simulated=stats.simulated,
            hits=stats.cache_hits,
            digest=grids.digest(
                (job.key(), job.encode(result))
                for job, result in outcome.results.items()
            ),
            rwp_speedup=grids.rwp_speedup(
                request["workload"], outcome.results
            ),
        )
    if tracer is not None:
        report.update(layer_report(request, tracer, outcome, ended))
        tracer.write(request["spans"], request["phase_name"])
    report["check_s"] = time.perf_counter() - check_started
    return report


def layer_report(request: dict, tracer, outcome, ended: float) -> dict:
    """Per-layer totals plus the counts read from the results."""
    reads = writes = 0
    if outcome is not None:
        for result in outcome.results.values():
            backend = getattr(result, "extra", {}).get("backend", {})
            reads += sum(v for k, v in backend.items() if k.endswith(".reads"))
            writes += sum(
                v for k, v in backend.items() if k.endswith(".writes")
            )
    wall = ended - T0
    results = Path(request["store"])
    return {
        "store_bytes": sum(p.stat().st_size for p in results.rglob("*.json")),
        "layers": tracer.totals,
        "untraced_s": wall - tracer.covered,
        "backend_reads": reads,
        "backend_writes": writes,
        "missing": tracer.missing,
    }


def check(request: dict) -> dict:
    from repro.engine import ResultStore
    from repro.sim.spec import last_kernel_info

    jobs = _jobs(request)
    store = ResultStore(request["store"])
    mismatches = []
    if request["require_kernel"]:
        # Without this a runtime that declined every dispatch would give
        # identical results, and the run would time the dict driver.
        jobs[0].execute()
        info = last_kernel_info() or {}
        if info.get("backend") != "native" or "fallback" in info:
            mismatches.append(
                f"{jobs[0].label}: the native kernel did not serve it ({info})"
            )
    for reference in grids.check_jobs(jobs):
        swapped = grids.with_other_driver(reference)
        record = store.get(reference.key())
        if record is None:
            mismatches.append(f"{reference.label}: not in the store")
        elif swapped.encode(swapped.execute()) != record["result"]:
            mismatches.append(f"{swapped.label} differs from {reference.label}")
    return {"mismatches": mismatches}


PHASES = {"setup": setup, "run": run, "check": check}


def main() -> int:
    request_path, report_path = sys.argv[1:3]
    with open(request_path) as handle:
        request = json.load(handle)
    report = PHASES[request["phase"]](request)
    with open(report_path, "w") as handle:
        json.dump(report, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
