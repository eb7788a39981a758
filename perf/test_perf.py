"""Tests of the benchmark itself; run with ``pytest perf/``.

They use the smoke scale (256-line LLC, first and last job of each
grid), so the whole file takes a minute or two.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import time

import pytest

import compare
import run as perf_run
import speed
import tracer

#: layers that fire on some workloads only; every other layer fires on all
FIRES_ON = {
    "cache.replay": {"paper-llc", "mc-native", "sharing"},
    "core.victim": {"sharing"},
    "kernels.call": {"mc-native", "sharing", "hier-pcm"},
    "kernels.gather": {"mc-native", "sharing", "hier-pcm"},
    "kernels.scatter": {"mc-native", "sharing", "hier-pcm"},
    "hierarchy.run_trace": {"hier-pcm"},
    "mem.backend": {"hier-pcm"},
    "multicore.run": {"mc-native", "sharing"},
    "multicore.directory": {"sharing"},
    "experiments.run_mix": {"mc-native", "sharing"},
    "engine.decode": set(),  # cold children only decode store hits
}


def _options(tmp_path, trace=True) -> perf_run.Options:
    return perf_run.Options(
        seconds=0, repeats=1, trace=trace, out=tmp_path / "spans",
        smoke=True, keep=False, src=perf_run.ROOT / "src", tmp_root=tmp_path,
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """Two traced smoke runs of every workload."""
    tmp_path = tmp_path_factory.mktemp("perf")
    opts = _options(tmp_path)
    return {
        workload: [perf_run.run_workload(workload, 2014, opts) for _ in range(2)]
        for workload in perf_run.WORKLOADS
    }, opts


def _json_line(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_names_and_units_match_benchmark(tmp_path, capsys, trace):
    bench = perf_run.load_benchmark()
    code = perf_run.main([
        "--workload", "sharing", "--smoke", "--seconds", "0",
        "--trace", str(trace), "--out", str(tmp_path),
    ])
    out = capsys.readouterr().out
    assert code == 0
    result = _json_line(out)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    spec = bench["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: value["unit"] for name, value in result["metrics"].items()
    }
    for metric in spec:
        assert re.search(
            rf"^  {re.escape(metric['name'])} +\S+ {re.escape(metric['unit'])}",
            out, re.M,
        ), metric["name"]


def test_digests_repeat_across_smoke_runs(smoke):
    runs, _ = smoke
    for workload, (first, second) in runs.items():
        assert first.correct, (workload, first.failures)
        assert second.correct, (workload, second.failures)
        assert first.digest and first.digest == second.digest, workload


def test_every_span_fires_on_its_workloads(smoke):
    runs, _ = smoke
    for workload, (first, _) in runs.items():
        cold, warm = (child.report for child in first.traced)
        assert not cold["missing"]
        fired = {name for name, (calls, _, _) in cold["layers"].items() if calls}
        for layer in tracer.LAYER_NAMES:
            expected = FIRES_ON.get(layer, set(perf_run.WORKLOADS))
            assert (layer in fired) == (workload in expected), (workload, layer)
        assert warm["layers"]["engine.decode"][0] == first.jobs


def test_self_times_and_untraced_add_up_to_wall(smoke):
    runs, _ = smoke
    for workload, pair in runs.items():
        for run in pair:
            for child in run.traced:
                report = child.report
                total = sum(own for _, own, _ in report["layers"].values())
                wall = report["wall_s"]
                assert abs(total + report["untraced_s"] - wall) <= 0.01 * wall
                assert all(own >= -1e-6 for _, own, _ in report["layers"].values())


def test_untraced_children_install_no_wrappers(smoke):
    runs, _ = smoke
    for workload, pair in runs.items():
        for run in pair:
            assert all(c.report["wrapped"] == 0 for c in run.cold + run.warm)
            assert all(c.report["wrapped"] > 0 for c in run.traced)


def test_span_file_links_children_to_parents(smoke):
    runs, opts = smoke
    for workload in perf_run.WORKLOADS:
        lines = [
            json.loads(line)
            for line in opts.spans_path(workload).read_text().splitlines()
        ]
        spans = [line for line in lines if "aggregate" not in line]
        ids = {(span["phase"], span["id"]) for span in spans}
        assert {span["phase"] for span in spans} == {"cold", "warm"}
        for span in spans:
            assert span["end"] >= span["start"]
            assert span["parent"] is None or (span["phase"], span["parent"]) in ids


def test_speed_probe_scales_by_its_chunk_time():
    with speed.SpeedProbe(min(os.sched_getaffinity(0))) as probe:
        time.sleep(0.2)
    assert len(probe.times) >= 2
    mean = sum(probe.times) / len(probe.times)
    assert probe.scale(3.0) == pytest.approx(3.0 * speed.REFERENCE_S / mean)
    assert probe.busy_s == pytest.approx(sum(probe.times))


def test_compare_verdicts():
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
    faster = [v * 0.8 for v in parent]
    assert compare.verdict(parent, faster, "lower", 0.1) == "gain"
    assert compare.verdict(parent, [v * 1.2 for v in parent], "lower", 0.1) == "regression"
    assert compare.verdict(parent, list(parent), "lower", 0.1) == "no change"
    # worse than the parent's spread but within the bound
    slower = [v * 1.15 for v in parent]
    assert compare.verdict(parent, slower, "lower", 0.25) == "unresolved"
    noisy = [8.0, 12.0, 9.0, 11.0, 10.0, 8.5, 11.5, 9.5, 10.5, 10.0]
    assert compare.verdict(noisy, list(noisy), "lower", 0.1) == "unresolved"
    assert compare.verdict(parent, faster, "higher", 0.1) == "regression"


def test_fails_without_the_program(tmp_path):
    shutil.copy(perf_run.BENCHMARK, tmp_path / "BENCHMARK.json")
    shutil.copytree(perf_run.PERF, tmp_path / "perf",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "sharing", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_follows_its_format():
    bench = perf_run.load_benchmark()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert bench["paths"] == ["perf"]
    assert [w["name"] for w in bench["workloads"]] == list(perf_run.WORKLOADS)
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    metrics = bench["end_to_end"] + bench["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    assert all(name.match(n) for n in names)
    assert all(unit.match(m["unit"]) for m in metrics)
    assert all(len(w["why"]) <= 200 for w in bench["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])
