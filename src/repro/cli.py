"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list``        available benchmarks (by category), mixes, and policies;
                ``list workloads`` enumerates every registered workload
                (models and the stress-kernel grid) by canonical name
``run``         one workload under one policy; prints the full result
``compare``     one benchmark under several policies, as a table
``mix``         a multicore mix (2/4/8/16-core) under one or more policies
``sweep``       a full (workload x policy) grid through the engine:
                parallel (``--jobs``), persistent (``--store``), resumable;
                ``--workloads`` accepts canonical workload names and glob
                patterns like ``'stress:chase,*'``; ``--mode multicore``
                sweeps (mix x policy) over core counts; ``--backend
                dir:/path`` submits the grid to a shared-filesystem
                queue drained by ``repro worker`` processes on any host
``worker``      drain a shared sweep queue: claim leases atomically,
                simulate, publish into the result store, journal
``serve``       HTTP front-end over the store and queue: ``GET
                /result/<key>``, ``POST /sweep``, ``GET /sweep/<id>``,
                ``GET /healthz`` (see docs/SERVICE.md)
``ingest``      convert an external trace file (ChampSim binary,
                perf-mem/SPE sample log, or interchange text) to the
                native ``.npz`` interchange format, validating as it reads
``overhead``    the RWP-vs-RRP state budget (paper Table 2)
``motivation``  read/write traffic + line-class breakdown for a benchmark
``bench``       hot-path throughput (accesses/sec per policy), with JSON
                export and regression checks against a pinned baseline
``verify``      differential conformance: golden corpus check plus fuzzed
                traces replayed against the independent oracle model

All simulation commands accept ``--llc-lines`` (cache size in 64 B lines)
and ``--accesses`` / ``--warmup-frac`` to trade fidelity for speed, plus
the engine knobs ``--jobs N`` (worker processes), ``--store PATH`` /
``--no-store`` (on-disk result cache), and ``--timeout SECONDS``.

Everywhere a policy is named, a :class:`~repro.cache.PolicySpec` string
is accepted too: ``name:key=value:key=value`` (for example
``rwp:epoch=4096`` or ``rwp-core:num_cores=8``), so parameterized
variants can be swept without code changes.  The same grammar names
main-memory backends via ``--memory``: ``dram`` (default),
``pcm:write_mult=4`` (asymmetric writes, partition-level parallelism),
or ``nvm:write_mult=4`` (simple fixed asymmetry) -- see
:class:`~repro.mem.spec.BackendSpec`.  ``--kernel`` selects the
batch-replay driver: ``native`` (default, the compiled SoA kernel,
falling back per replay on unsupported shapes) or ``dict`` (the
dict-driven drivers) -- bit-identical, so the choice never changes a
store key (see :class:`~repro.kernels.spec.KernelSpec`).
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.cache.policy import policy_names
from repro.common.config import paper_system_config
from repro.core.overhead import overhead_report
from repro.experiments.motivation import traffic_breakdown
from repro.experiments.multicore_exp import run_mix_grid
from repro.experiments.runner import (
    SINGLE_CORE_POLICIES,
    ExperimentScale,
    run_benchmark,
)
from repro.experiments.tables import format_percent, format_table
from repro.trace.mixes import get_mix, mix_names, mix_specs
from repro.trace.spec import ALL_PARAMS, benchmark_names, sensitive_names
from repro.trace.workload import WorkloadSpec


def _scale_from(args: argparse.Namespace) -> ExperimentScale:
    total_factor = max(2, args.accesses // args.llc_lines)
    warmup_factor = max(1, int(total_factor * args.warmup_frac))
    return ExperimentScale(
        llc_lines=args.llc_lines,
        warmup_factor=warmup_factor,
        measure_factor=total_factor - warmup_factor,
        seed=args.seed,
    )


def _add_scale_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--llc-lines",
        type=int,
        default=2048,
        help="LLC capacity in 64 B lines (default 2048 = 128 KiB)",
    )
    parser.add_argument(
        "--accesses",
        type=int,
        default=65536,
        help="total trace length in LLC accesses",
    )
    parser.add_argument(
        "--warmup-frac",
        type=float,
        default=0.25,
        help="fraction of the trace used as warmup (default 0.25)",
    )
    parser.add_argument("--seed", type=int, default=2014)


def _add_engine_options(
    parser: argparse.ArgumentParser, store_by_default: bool = False
) -> None:
    parser.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=1,
        help="worker processes (1 = serial in-process)",
    )
    parser.add_argument(
        "--store",
        default=None,
        metavar="PATH",
        help="result store directory (default: ~/.cache/repro)",
    )
    parser.add_argument(
        "--no-store",
        action="store_true",
        help="disable the on-disk result store",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-job wall-clock limit",
    )
    parser.set_defaults(store_by_default=store_by_default)


def _add_memory_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--memory",
        "-m",
        default="dram",
        help=(
            "main-memory backend name or BackendSpec string like "
            "'pcm:write_mult=4' (default: dram)"
        ),
    )


def _kernel_arg(text: str) -> str:
    """Validate a ``--kernel`` value at parse time (exit 2 if bad)."""
    from repro.kernels import KernelSpec

    try:
        return KernelSpec.parse(text).key()
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None


def _add_kernel_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--kernel",
        "-k",
        type=_kernel_arg,
        default="native",
        help=(
            "batch-replay kernel: 'native' (default, the compiled "
            "kernel; falls back to the Python drivers per replay on "
            "unsupported shapes or without a C compiler) or 'dict'.  "
            "Both are bit-identical and share store entries"
        ),
    )


def _store_from(args: argparse.Namespace):
    """Resolve the engine options to a ResultStore or None."""
    if getattr(args, "no_store", False):
        return None
    if getattr(args, "store", None):
        from repro.engine import ResultStore

        return ResultStore(args.store)
    if getattr(args, "store_by_default", False):
        from repro.engine import ResultStore

        return ResultStore()
    return None


def _store_summary() -> None:
    """One line about the default result store; unreadable is not fatal."""
    import errno

    from repro.engine.store import ResultStore

    store = ResultStore()
    try:
        if store.root.exists() and not store.root.is_dir():
            raise NotADirectoryError(
                errno.ENOTDIR, "not a directory", str(store.root)
            )
        results = len(store)
        journals = (
            sum(1 for _ in store.journals_dir.glob("*.jsonl"))
            if store.journals_dir.is_dir()
            else 0
        )
    except OSError as error:
        print(
            f"\nstore:      {store.root} is unreadable ({error}); "
            "simulations still run, but results will not be cached -- "
            "fix $REPRO_STORE or pass --store PATH / --no-store"
        )
        return
    print(
        f"\nstore:      {store.root} "
        f"({results} results, {journals} journals)"
    )


def _list_workloads() -> int:
    """Every registered workload, grouped by kind, one name per line."""
    from repro.trace.stress import stress_names

    groups = (
        ("model", list(benchmark_names())
         + sorted(n for n in ALL_PARAMS if n.startswith("micro_"))),
        ("stress", stress_names()),
    )
    for kind, names in groups:
        print(f"{kind} ({len(names)}):")
        for name in names:
            print(f"  {name}")
    print(
        "\nfile-backed kinds (point them at a trace file): "
        "champsim:<path>, memsample:<path>, interchange:<path> "
        "-- see `repro ingest --help` and docs/WORKLOADS.md"
    )
    return 0


def cmd_list(args: argparse.Namespace) -> int:
    if getattr(args, "what", "all") == "workloads":
        return _list_workloads()
    print("benchmarks:")
    for category in ("sensitive", "streaming", "compute"):
        names = benchmark_names(category)
        print(f"  {category:10} {', '.join(names)}")
    micro = sorted(n for n in ALL_PARAMS if n.startswith("micro_"))
    print(f"  {'micro':10} {', '.join(micro)}")
    print("\nmixes:")
    core_counts = sorted({spec.core_count for spec in mix_specs()})
    for count in core_counts:
        private = mix_names(count, sharing=False)
        if private:
            print(f"  {f'{count}-core':10} {', '.join(private)}")
        for spec in mix_specs(count, sharing=True):
            print(
                f"  {f'{count}-core':10} {spec.name}  "
                f"[shared: {spec.sharing_mode}]"
            )
    print(f"\npolicies:   {', '.join(policy_names())}")
    from repro.mem import backend_names

    print(f"\nbackends:   {', '.join(backend_names())}")
    from repro.kernels import KERNEL_NAMES

    print(f"\nkernels:    {', '.join(KERNEL_NAMES)}")
    from repro.trace.stress import STRESS_GRID

    print(
        f"\nworkloads:  {len(ALL_PARAMS)} models + {len(STRESS_GRID)} "
        "stress kernels (`repro list workloads` enumerates them)"
    )
    _store_summary()
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    if args.benchmark and args.workload:
        raise ValueError(
            "pass either a positional workload or --workload, not both"
        )
    workload = args.benchmark or args.workload
    if not workload:
        raise ValueError(
            "no workload given: pass a name like 'mcf' or "
            "--workload 'stress:chase,ws=64k,rw=0.3'"
        )
    # Echo the canonical spelling -- the same string the result store
    # keys on -- so `run` output names reusable workload references.
    workload = WorkloadSpec.coerce(workload).store_key()
    scale = _scale_from(args)
    from repro.sim.spec import last_kernel_info, simulate_cached

    # Only a memo miss simulates; a store or memo hit replays nothing,
    # so the kernel record then belongs to some earlier run.
    replays = simulate_cached.cache_info().misses
    store = _store_from(args)
    result = run_benchmark(
        workload,
        args.policy,
        scale,
        store=store,
        mode=args.mode,
        memory=args.memory,
        kernel=args.kernel,
    )
    print(f"workload  : {workload}")
    print(f"mode      : {args.mode}")
    print(f"policy    : {result.policy}")
    print(f"memory    : {args.memory}")
    if simulate_cached.cache_info().misses == replays:
        source = "the store" if store is not None else "memory"
        print(f"kernel    : {args.kernel} (no replay ran: result from {source})")
    else:
        kernel_info = last_kernel_info() or {}
        backend = kernel_info.get("backend")
        kernel_line = (
            f"{args.kernel} (backend: {backend})" if backend else args.kernel
        )
        print(f"kernel    : {kernel_line}")
        fallback = kernel_info.get("fallback")
        if fallback:
            print(f"  fallback: {fallback}")
    print(f"llc       : {scale.llc_lines} lines "
          f"({scale.llc_lines * 64 >> 10} KiB), {scale.ways}-way")
    print(f"accesses  : {result.llc_accesses:,} measured "
          f"(+{scale.warmup:,} warmup)")
    print(f"ipc       : {result.ipc:.4f}")
    print(f"read miss : {result.read_miss_rate:.4f} "
          f"(mpki {result.read_mpki:.2f})")
    print(f"writes    : {result.llc_write_hits:,} hits / "
          f"{result.llc_write_misses:,} misses / "
          f"{result.llc_bypasses:,} bypassed")
    print(f"writebacks: {result.llc_writebacks:,}")
    state = result.extra.get("policy_state", {})
    interesting = {k: v for k, v in state.items()
                   if k not in ("policy", "clean_hits", "dirty_hits")}
    if interesting:
        print(f"policy state: {interesting}")
    backend_stats = result.extra.get("backend", {})
    if backend_stats:
        print("backend stats:")
        for key in sorted(backend_stats):
            print(f"  {key:28} {backend_stats[key]:,.0f}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    from repro.experiments.runner import run_grid

    scale = _scale_from(args)
    policies = args.policies.split(",")
    grid = run_grid(
        [args.benchmark],
        policies,
        scale,
        jobs=args.jobs,
        store=_store_from(args),
        timeout=args.timeout,
        memory=args.memory,
        kernel=args.kernel,
    )
    baseline = grid[(args.benchmark, policies[0])]
    rows = []
    for policy in policies:
        result = grid[(args.benchmark, policy)]
        rows.append(
            [
                policy,
                result.ipc,
                format_percent(result.speedup_over(baseline)),
                result.read_miss_rate,
                result.read_mpki,
            ]
        )
    print(
        format_table(
            ["policy", "ipc", f"vs {policies[0]}", "read_miss_rate", "read_mpki"],
            rows,
            title=f"{args.benchmark} @ {scale.llc_lines} lines",
        )
    )
    return 0


def cmd_mix(args: argparse.Namespace) -> int:
    scale = _scale_from(args)
    policies = args.policies.split(",")
    grid = run_mix_grid(
        [args.mix],
        policies,
        scale,
        jobs=args.jobs,
        store=_store_from(args),
        timeout=args.timeout,
        memory=args.memory,
        kernel=args.kernel,
    )
    rows = []
    for policy in policies:
        result = grid[(args.mix, policy)]
        rows.append(
            [
                policy,
                result.weighted_speedup,
                result.harmonic_speedup,
                result.throughput,
                result.fairness,
            ]
        )
    cores = get_mix(args.mix).core_count
    print(
        format_table(
            ["policy", "weighted_speedup", "harmonic", "throughput", "fairness"],
            rows,
            title=(
                f"{args.mix} ({cores} cores, "
                f"shared {cores * scale.llc_lines} lines)"
            ),
        )
    )
    return 0


def cmd_overhead(args: argparse.Namespace) -> int:
    print(overhead_report(paper_system_config().hierarchy.llc))
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.quickreport import generate_report, write_report

    scale = _scale_from(args)
    store = _store_from(args)
    if args.output:
        path = write_report(args.output, scale, jobs=args.jobs, store=store)
        print(f"wrote {path}")
    else:
        print(generate_report(scale, jobs=args.jobs, store=store))
    return 0


def _sweep_benchmarks(selection: str) -> list:
    if selection == "all":
        return list(benchmark_names())
    if selection == "sensitive":
        return list(sensitive_names())
    return selection.split(",")


def _sweep_mixes(args: argparse.Namespace) -> list:
    """Resolve --cores/--mixes (names + glob patterns) to mix names."""
    core_counts = [int(count) for count in args.cores.split(",")]
    available = [
        name for count in core_counts for name in mix_names(count)
    ]
    if args.mixes == "all":
        mixes = list(available)
    else:
        # Each comma-separated item is a mix name or a glob pattern
        # (fnmatch syntax) over the registered mixes at the requested
        # core counts -- e.g. --mixes 'mix8s*' for the shared 8-core set.
        import fnmatch

        mixes = []
        for pattern in args.mixes.split(","):
            if any(ch in pattern for ch in "*?["):
                matched = [
                    name for name in available
                    if fnmatch.fnmatchcase(name, pattern)
                    and name not in mixes
                ]
                if not matched:
                    raise ValueError(
                        f"--mixes pattern {pattern!r} matches no "
                        f"registered mix at core counts {core_counts}"
                    )
                mixes.extend(matched)
            elif pattern not in mixes:
                mixes.append(pattern)
    if not mixes:
        raise ValueError(
            f"no mixes registered for core counts {core_counts}"
        )
    return mixes


def _sweep_spec_from(args: argparse.Namespace):
    """Build the typed SweepSpec the requested grid describes."""
    from repro.engine import SweepSpec
    from repro.experiments.multicore_exp import MULTICORE_POLICIES

    scale = _scale_from(args)
    if args.mode == "multicore":
        policies = (
            args.policies.split(",") if args.policies
            else list(MULTICORE_POLICIES)
        )
        return SweepSpec(
            mode="multicore",
            mixes=_sweep_mixes(args),
            policies=policies,
            scale=scale,
            memory=args.memory,
            kernel=args.kernel,
        )
    if args.workloads:
        from repro.trace.workload import expand_workloads

        benches = expand_workloads(args.workloads)
    else:
        benches = _sweep_benchmarks(args.benchmarks)
    policies = (
        args.policies.split(",") if args.policies
        else list(SINGLE_CORE_POLICIES)
    )
    return SweepSpec(
        mode="single",
        workloads=benches,
        policies=policies,
        scale=scale,
        memory=args.memory,
        kernel=args.kernel,
    )


def cmd_sweep(args: argparse.Namespace) -> int:
    """Run a (benchmark x policy) grid through the engine or a queue."""
    from repro.service import QueueSpec, run_local_sweep

    spec = _sweep_spec_from(args)
    store = _store_from(args)
    backend = QueueSpec.coerce(args.backend)

    if backend.is_local:
        outcome = run_local_sweep(
            spec,
            store,
            jobs=args.jobs,
            timeout=args.timeout,
            journal=args.journal,
            progress=not args.quiet,
        )
    else:
        from repro.service import queue_from_spec, submit_sweep, wait_for_sweep

        if store is None:
            raise ValueError(
                "a queue-backed sweep publishes into the result store; "
                "drop --no-store (or pass --store PATH)"
            )
        queue = queue_from_spec(backend)
        receipt = submit_sweep(spec, queue, store)
        print(
            f"sweep {spec.sweep_id()} -> {backend}: "
            f"{len(receipt.enqueued)} enqueued, {len(receipt.warm)} warm, "
            f"{len(receipt.pending)} already queued, "
            f"{len(receipt.done)} already done"
        )
        if args.detach:
            print(
                f"detached; run workers with: repro worker --backend "
                f"{backend}  then poll: repro sweep ... --backend {backend}"
            )
            return 0
        outcome = wait_for_sweep(
            spec,
            queue,
            store,
            poll=backend.poll_interval,
            timeout=args.wait_timeout,
            progress=not args.quiet,
        )

    table = spec.table(spec.grid(outcome.results))
    print(format_table(table["columns"], table["rows"], title=table["title"]))

    if spec.mode == "single":
        from repro.experiments.export import export_grid

        written = export_grid(
            spec.grid(outcome.results), csv_path=args.csv, json_path=args.json
        )
        for path in written:
            print(f"wrote {path}")

    stats = outcome.stats
    print(
        f"jobs: {stats.total}  simulated: {stats.simulated}  "
        f"cache_hits: {stats.cache_hits}  resumed: {stats.resumed}  "
        f"failed: {stats.failed}  wall: {stats.wall_seconds:.1f}s"
    )
    return 0


def cmd_worker(args: argparse.Namespace) -> int:
    """Drain a shared dir queue: claim, simulate, publish, journal."""
    from repro.engine import ResultStore
    from repro.service import QueueSpec, Worker, queue_from_spec

    spec = QueueSpec.coerce(args.backend)
    if spec.is_local:
        raise ValueError(
            "a worker needs a shared queue: --backend dir:/path/to/queue"
        )
    queue = queue_from_spec(spec)
    store = ResultStore(args.store) if args.store else ResultStore()
    worker_kwargs = {"poll_interval": spec.poll_interval}
    if args.id:
        worker_kwargs["worker_id"] = args.id
    worker = Worker(queue, store, **worker_kwargs)
    print(
        f"worker {worker.worker_id}: queue {spec}, store {store.root}",
        file=sys.stderr,
    )
    stats = worker.run(
        max_jobs=args.max_jobs,
        drain=args.drain,
        idle_timeout=args.idle_timeout,
        progress=None if args.quiet else (
            lambda line: print(line, file=sys.stderr)
        ),
    )
    print(
        f"worker {worker.worker_id}: {stats.stopped or 'stopped'} -- "
        f"claimed: {stats.claimed}  simulated: {stats.simulated}  "
        f"hits: {stats.hits}  failed: {stats.failed}  "
        f"requeued: {stats.requeued}  wall: {stats.wall_seconds:.1f}s"
    )
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Serve the result store + sweep submission over HTTP."""
    from repro.engine import ResultStore
    from repro.service import SweepService, queue_from_spec, serve_forever

    store = ResultStore(args.store) if args.store else ResultStore()
    service = SweepService(
        store, queue_from_spec(args.backend), jobs=args.jobs,
        timeout=args.timeout,
    )
    serve_forever(service, args.host, args.port)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    """Check the golden corpus, then fan fuzz jobs through the engine."""
    from repro.engine import ProgressReporter, run_jobs
    from repro.verify import check_goldens, plan_fuzz_jobs, write_goldens
    from repro.verify.jobs import VERIFY_POLICIES
    from repro.verify.system import plan_system_jobs

    if args.regen_goldens:
        path = write_goldens(args.goldens)
        print(f"regenerated golden corpus at {path}")
        return 0

    failures = 0

    if not args.skip_golden:
        problems = check_goldens(args.goldens)
        for problem in problems:
            print(problem, file=sys.stderr)
        if problems:
            failures += len(problems)
        elif not args.quiet:
            print("golden corpus: ok")

    slates = []
    if args.fuzz > 0:
        policies = (
            args.policies.split(",") if args.policies else list(VERIFY_POLICIES)
        )
        unknown = sorted(set(policies) - set(VERIFY_POLICIES))
        if unknown:
            raise KeyError(
                f"no oracle for policies {unknown}; "
                f"verifiable: {', '.join(VERIFY_POLICIES)}"
            )
        jobs = plan_fuzz_jobs(
            args.fuzz, policies=policies, base_seed=args.seed,
            length=args.length,
        )
        slates.append(("fuzz", jobs, f"jobs over {len(policies)} policies"))
    if args.system_fuzz > 0:
        jobs = plan_system_jobs(
            args.system_fuzz, base_seed=args.seed, length=args.length
        )
        slates.append(("system", jobs, "hierarchy/multicore jobs"))

    for name, job_list, what in slates:
        outcome = run_jobs(
            job_list,
            max_workers=args.jobs,
            store=_store_from(args),
            timeout=args.timeout,
            progress=ProgressReporter(len(job_list), enabled=not args.quiet),
        )
        results = outcome.results
        divergent = [job for job, result in results.items() if not result["ok"]]
        for job in divergent:
            print(f"\n{job.label}:\n{results[job]['report']}", file=sys.stderr)
        stats = outcome.stats
        failures += len(divergent) + stats.failed
        if stats.failed:
            print(
                f"{stats.failed} {name} job(s) crashed or timed out",
                file=sys.stderr,
            )
        if not args.quiet:
            counts = f"divergent: {len(divergent)}  "
            # Count the jobs a kernel declined, so a slate never reads as
            # more coverage than it had: a system job then compared the
            # scalar walk with itself, a fuzz job's native leg replayed
            # the dict loop again.
            if name == "system":
                idle = sum(1 for r in results.values() if not r["drivers"])
                counts += f"compared none: {idle}  "
            else:
                declined = sum(
                    1 for r in results.values()
                    if r["ok"] and "native" not in r["drivers"]
                )
                counts += f"native declined: {declined}  "
            print(
                f"{name}: {stats.total} {what}  {counts}"
                f"cache_hits: {stats.cache_hits}  "
                f"wall: {stats.wall_seconds:.1f}s"
            )

    if failures:
        print(f"verify: FAILED ({failures} problem(s))", file=sys.stderr)
        return 1
    print("verify: ok")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    """Time the simulation hot path; optionally guard against a baseline."""
    from repro.experiments.bench import (
        bench_payload,
        bench_plan,
        compare_to_baseline,
        format_bench,
        load_bench_json,
        time_row,
        write_bench_json,
        DEFAULT_ACCESSES,
        DEFAULT_LLC_LINES,
        DEFAULT_REPEATS,
        QUICK_ACCESSES,
        QUICK_REPEATS,
    )

    llc_lines = args.llc_lines if args.llc_lines else DEFAULT_LLC_LINES
    accesses = args.accesses if args.accesses else (
        QUICK_ACCESSES if args.quick else DEFAULT_ACCESSES
    )
    repeats = args.repeats if args.repeats else (
        QUICK_REPEATS if args.quick else DEFAULT_REPEATS
    )
    plan = bench_plan(
        args.policies.split(","),
        benchmark=args.benchmark,
        llc_lines=llc_lines,
        accesses=accesses,
        quick=args.quick,
        llc_only=args.llc_only,
        seed=args.seed,
        kernel=args.kernel,
    )
    results = [time_row(row, kernel, repeats) for row, kernel in plan]
    print(
        format_bench(
            results,
            title=(
                f"{args.benchmark} @ {llc_lines} lines, "
                f"{accesses:,} accesses, best of {repeats}"
            ),
        )
    )
    payload = bench_payload(results, args.benchmark, llc_lines)
    if args.json:
        path = write_bench_json(args.json, payload)
        print(f"wrote {path}")
    if args.baseline:
        problems = compare_to_baseline(
            payload, load_bench_json(args.baseline), tolerance=args.tolerance
        )
        for problem in problems:
            print(problem, file=sys.stderr)
        if problems:
            print("bench: FAILED", file=sys.stderr)
            return 1
        print(f"bench: ok (within {args.tolerance:.0%} of baseline)")
    return 0


def cmd_ingest(args: argparse.Namespace) -> int:
    """Convert an external trace file to the native interchange format."""
    from pathlib import Path

    from repro.trace.ingest import detect_format, read_trace, save_interchange
    from repro.trace.ingest.memsample import scan_memsample

    path = Path(args.path)
    fmt = args.format
    if fmt == "auto":
        fmt = detect_format(path)
    skipped = 0
    if fmt == "memsample":
        trace, skipped = scan_memsample(
            path,
            name=args.name,
            address_space=args.address_space,
            strict=args.strict,
        )
    else:
        trace = read_trace(
            path, format=fmt, name=args.name,
            address_space=args.address_space,
        )
    if not len(trace):
        raise ValueError(
            f"{path} yielded no usable records (format {fmt!r}"
            + (f", {skipped} line(s) skipped" if skipped else "")
            + ")"
        )
    output = (
        Path(args.output)
        if args.output
        else path.with_name(path.name + ".npz")
    )
    save_interchange(trace, output)
    print(f"ingested  : {path} ({fmt})")
    print(f"records   : {len(trace):,}")
    if skipped:
        print(f"skipped   : {skipped:,} malformed line(s)")
    print(f"name      : {trace.name}")
    print(f"addresses : {trace.address_space}")
    print(f"wrote     : {output}")
    print(
        f"run it    : python -m repro run 'interchange:{output}' -p rwp"
    )
    return 0


def cmd_motivation(args: argparse.Namespace) -> int:
    scale = _scale_from(args)
    benches = (
        sensitive_names() if args.benchmark == "sensitive" else [args.benchmark]
    )
    rows = []
    for bench in benches:
        b = traffic_breakdown(bench, scale)
        rows.append(
            [
                bench,
                b.read_fraction,
                1 - b.read_fraction,
                b.write_only_line_fraction,
            ]
        )
    print(
        format_table(
            ["benchmark", "read_frac", "write_frac", "dead_line_frac"], rows
        )
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Read-Write Partitioning (HPCA 2014) reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    list_parser = sub.add_parser(
        "list", help="list benchmarks, mixes, and policies"
    )
    list_parser.add_argument(
        "what",
        nargs="?",
        choices=("all", "workloads"),
        default="all",
        help=(
            "'all' (default): the category overview; 'workloads': every "
            "registered workload name, one per line, grouped by kind"
        ),
    )

    run_parser = sub.add_parser("run", help="run one workload+policy")
    run_parser.add_argument(
        "benchmark",
        nargs="?",
        default=None,
        help=(
            "workload reference: a model name like 'mcf' or any "
            "canonical spec like 'stress:chase,ws=64k,rw=0.3' or "
            "'champsim:traces/astar.champsim.xz'"
        ),
    )
    run_parser.add_argument(
        "--workload",
        "-w",
        default=None,
        help="workload reference (alternative to the positional form)",
    )
    run_parser.add_argument(
        "--policy",
        "-p",
        default="rwp",
        help="policy name or PolicySpec string like 'rwp:epoch=4096'",
    )
    run_parser.add_argument(
        "--mode",
        choices=("llc", "hierarchy"),
        default="llc",
        help=(
            "simulation mode: 'llc' (default) replays the trace against "
            "the LLC alone; 'hierarchy' runs the full L1/L2/LLC stack "
            "with write buffer and DRAM timing.  ('multicore' mode "
            "exists on SimulationSpec but is driven by the mix/sweep "
            "commands, which set mix and num_cores.)"
        ),
    )
    _add_memory_option(run_parser)
    _add_kernel_option(run_parser)
    _add_scale_options(run_parser)
    _add_engine_options(run_parser)

    compare_parser = sub.add_parser("compare", help="compare policies")
    compare_parser.add_argument("benchmark")
    compare_parser.add_argument(
        "--policies", "-p", default="lru,dip,drrip,ship,rrp,rwp"
    )
    _add_memory_option(compare_parser)
    _add_kernel_option(compare_parser)
    _add_scale_options(compare_parser)
    _add_engine_options(compare_parser)

    mix_parser = sub.add_parser("mix", help="run a multicore mix")
    mix_parser.add_argument("mix")
    mix_parser.add_argument(
        "--policies",
        "-p",
        default="lru,tadrrip,ucp,rwp,rwp-core",
        help="comma-separated policy names or PolicySpec strings",
    )
    _add_memory_option(mix_parser)
    _add_kernel_option(mix_parser)
    _add_scale_options(mix_parser)
    _add_engine_options(mix_parser)

    sweep_parser = sub.add_parser(
        "sweep",
        help="run a (benchmark x policy) grid: parallel, cached, resumable",
    )
    sweep_parser.add_argument(
        "--mode",
        choices=("single", "multicore"),
        default="single",
        help=(
            "'single' (default): benchmark x policy grid; 'multicore': "
            "mix x policy grid over --cores core counts"
        ),
    )
    sweep_parser.add_argument(
        "--benchmarks",
        "-b",
        default="all",
        help="'all', 'sensitive', or a comma-separated list (single mode)",
    )
    sweep_parser.add_argument(
        "--workloads",
        "-w",
        nargs="+",
        default=None,
        metavar="WORKLOAD",
        help=(
            "workload references or glob patterns over the registry "
            "(space-separated; canonical stress names contain commas, "
            "so they cannot be comma-joined): e.g. "
            "-w mcf 'stress:chase,*' sweeps mcf plus every registered "
            "pointer chase.  Overrides --benchmarks (single mode)"
        ),
    )
    sweep_parser.add_argument(
        "--cores",
        default="2,4,8",
        help="comma-separated core counts to sweep (multicore mode)",
    )
    sweep_parser.add_argument(
        "--mixes",
        default="all",
        help=(
            "'all' (every mix at the swept core counts) or a "
            "comma-separated list of mix names and glob patterns, "
            "e.g. 'mix8s*' for the shared 8-core mixes (multicore mode)"
        ),
    )
    sweep_parser.add_argument(
        "--policies",
        "-p",
        default=None,
        help=(
            "comma-separated policy names or PolicySpec strings like "
            "'rwp:epoch=4096' (default: the mode's standard roster)"
        ),
    )
    sweep_parser.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help="JSONL run journal (default: derived from the sweep, in the store)",
    )
    sweep_parser.add_argument(
        "--csv", default=None, metavar="PATH", help="export the grid as CSV"
    )
    sweep_parser.add_argument(
        "--json", default=None, metavar="PATH", help="export the grid as JSON"
    )
    sweep_parser.add_argument(
        "--quiet", "-q", action="store_true", help="suppress per-job progress"
    )
    sweep_parser.add_argument(
        "--backend",
        default="local",
        metavar="QUEUE",
        help=(
            "execution backend (QueueSpec string): 'local' (default, "
            "in-process -- identical to every pre-service sweep) or "
            "'dir:/path/to/queue' to submit jobs to a shared-filesystem "
            "queue drained by `repro worker` processes on any host"
        ),
    )
    sweep_parser.add_argument(
        "--detach",
        action="store_true",
        help=(
            "with a dir backend: submit the jobs and exit without "
            "waiting; re-run the same sweep later to collect results"
        ),
    )
    sweep_parser.add_argument(
        "--wait-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "with a dir backend: give up waiting for workers after this "
            "long (default: wait forever)"
        ),
    )
    _add_memory_option(sweep_parser)
    _add_kernel_option(sweep_parser)
    _add_scale_options(sweep_parser)
    _add_engine_options(sweep_parser, store_by_default=True)

    worker_parser = sub.add_parser(
        "worker",
        help="drain a shared sweep queue (claim, simulate, publish)",
    )
    worker_parser.add_argument(
        "--backend",
        required=True,
        metavar="QUEUE",
        help=(
            "the queue to drain: 'dir:/path/to/queue' (optionally "
            "'dir:/path:ttl=120' to change the lease TTL)"
        ),
    )
    worker_parser.add_argument(
        "--store",
        default=None,
        metavar="PATH",
        help="result store directory (default: ~/.cache/repro)",
    )
    worker_parser.add_argument(
        "--id",
        default=None,
        metavar="WORKER_ID",
        help="worker identity in leases and journal (default: <host>-<pid>)",
    )
    worker_parser.add_argument(
        "--max-jobs",
        type=int,
        default=None,
        metavar="N",
        help="exit after claiming N jobs",
    )
    worker_parser.add_argument(
        "--drain",
        action="store_true",
        help="exit once the queue is empty and no leases remain",
    )
    worker_parser.add_argument(
        "--idle-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="exit after this long without claiming anything",
    )
    worker_parser.add_argument(
        "--quiet", "-q", action="store_true", help="suppress per-job lines"
    )

    serve_parser = sub.add_parser(
        "serve",
        help="HTTP front-end over the result store and sweep queue",
    )
    serve_parser.add_argument(
        "--backend",
        default="local",
        metavar="QUEUE",
        help=(
            "where POSTed sweeps execute: 'local' (default, in this "
            "process) or 'dir:/path/to/queue' (enqueue for `repro "
            "worker` processes)"
        ),
    )
    serve_parser.add_argument(
        "--store",
        default=None,
        metavar="PATH",
        help="result store directory (default: ~/.cache/repro)",
    )
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument(
        "--port", type=int, default=8787, help="TCP port (0 = ephemeral)"
    )
    serve_parser.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=1,
        help="worker processes for local-backend sweeps",
    )
    serve_parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-job wall-clock limit for local-backend sweeps",
    )

    sub.add_parser("overhead", help="RWP vs RRP state budget")

    report_parser = sub.add_parser(
        "report", help="run the headline experiments, emit markdown"
    )
    report_parser.add_argument(
        "--output", "-o", default=None, help="write to a file instead of stdout"
    )
    _add_scale_options(report_parser)
    _add_engine_options(report_parser)

    bench_parser = sub.add_parser(
        "bench",
        help="time the hot path (accesses/sec per policy)",
    )
    bench_parser.add_argument(
        "--policies", "-p", default="lru,rwp", help="comma-separated policies"
    )
    bench_parser.add_argument(
        "--benchmark", "-b", default="mcf", help="workload model for the trace"
    )
    bench_parser.add_argument(
        "--llc-lines",
        type=int,
        default=0,
        help="LLC size in lines (default: the pinned bench geometry)",
    )
    bench_parser.add_argument(
        "--accesses",
        type=int,
        default=0,
        help="trace length (default: 262144, or 65536 with --quick)",
    )
    bench_parser.add_argument(
        "--repeats",
        type=int,
        default=0,
        help="timing repetitions, best taken (default: 3, or 2 with --quick)",
    )
    bench_parser.add_argument(
        "--quick", action="store_true", help="smaller trace, fewer repeats"
    )
    bench_parser.add_argument(
        "--llc-only",
        action="store_true",
        help="skip the hierarchy and 4-core system benches",
    )
    bench_parser.add_argument(
        "--kernel",
        "-k",
        type=_kernel_arg,
        default="native",
        help=(
            "also time every row under this kernel backend, keyed "
            "'kernel:<row>' (default: native; 'dict' skips the kernel "
            "rows)"
        ),
    )
    bench_parser.add_argument("--seed", type=int, default=2014)
    bench_parser.add_argument(
        "--json", default=None, metavar="PATH", help="export results as JSON"
    )
    bench_parser.add_argument(
        "--baseline",
        default=None,
        metavar="PATH",
        help="compare against a pinned bench JSON; exit 1 on regression",
    )
    bench_parser.add_argument(
        "--tolerance",
        type=float,
        default=0.2,
        help="fail when rate < tolerance * baseline (default 0.2)",
    )

    ingest_parser = sub.add_parser(
        "ingest",
        help="convert an external trace file to the interchange format",
    )
    ingest_parser.add_argument(
        "path", help="the trace file to ingest (optionally .gz/.xz)"
    )
    ingest_parser.add_argument(
        "--format",
        "-f",
        choices=("auto", "champsim", "memsample", "interchange"),
        default="auto",
        help="input format (default: sniffed from suffix/content)",
    )
    ingest_parser.add_argument(
        "--output",
        "-o",
        default=None,
        metavar="PATH",
        help="output .npz path (default: <input>.npz alongside the input)",
    )
    ingest_parser.add_argument(
        "--name",
        default=None,
        help="workload name recorded in the trace (default: the file stem)",
    )
    ingest_parser.add_argument(
        "--address-space",
        choices=("private", "global"),
        default="private",
        help=(
            "how multicore replays treat the addresses: 'private' "
            "(default, per-core offsetting) or 'global' (shared space, "
            "enables sharer tracking)"
        ),
    )
    ingest_parser.add_argument(
        "--strict",
        action="store_true",
        help=(
            "fail on the first malformed sample-log line instead of "
            "counting and skipping it (memsample only)"
        ),
    )

    motivation_parser = sub.add_parser(
        "motivation", help="traffic breakdown for a benchmark"
    )
    motivation_parser.add_argument(
        "benchmark", help="a benchmark name, or 'sensitive' for the subset"
    )
    _add_scale_options(motivation_parser)

    verify_parser = sub.add_parser(
        "verify",
        help="differential conformance vs. the oracle model",
    )
    verify_parser.add_argument(
        "--fuzz",
        type=int,
        default=60,
        metavar="N",
        help="number of fuzz jobs to run (0 = golden check only)",
    )
    verify_parser.add_argument(
        "--system-fuzz",
        type=int,
        default=12,
        metavar="N",
        help=(
            "hierarchy/multicore batched-vs-scalar differential jobs "
            "(0 = skip)"
        ),
    )
    verify_parser.add_argument(
        "--policies",
        "-p",
        default=None,
        help="comma-separated policy subset (default: all verifiable)",
    )
    verify_parser.add_argument("--seed", type=int, default=2014)
    verify_parser.add_argument(
        "--length",
        type=int,
        default=1536,
        metavar="N",
        help="accesses per fuzz trace",
    )
    verify_parser.add_argument(
        "--skip-golden",
        action="store_true",
        help="skip the golden-corpus check",
    )
    verify_parser.add_argument(
        "--regen-goldens",
        action="store_true",
        help="regenerate the golden corpus and exit",
    )
    verify_parser.add_argument(
        "--goldens",
        default=None,
        metavar="PATH",
        help="golden corpus file (default: the checked-in one)",
    )
    verify_parser.add_argument(
        "--quiet", "-q", action="store_true", help="suppress per-job progress"
    )
    _add_engine_options(verify_parser, store_by_default=True)

    return parser


_COMMANDS = {
    "list": cmd_list,
    "run": cmd_run,
    "compare": cmd_compare,
    "mix": cmd_mix,
    "sweep": cmd_sweep,
    "worker": cmd_worker,
    "serve": cmd_serve,
    "overhead": cmd_overhead,
    "report": cmd_report,
    "bench": cmd_bench,
    "ingest": cmd_ingest,
    "motivation": cmd_motivation,
    "verify": cmd_verify,
}


def main(argv: Sequence[str] | None = None) -> int:
    from repro.engine import SweepError

    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (KeyError, ValueError, OSError, SweepError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
