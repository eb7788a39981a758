"""The top-level package API: everything advertised must exist and work."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

#: the directory holding the ``repro`` package, for child interpreters
_SRC = str(Path(repro.__file__).resolve().parents[1])


def _fresh_python(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter that imports this ``repro``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        path for path in (_SRC, env.get("PYTHONPATH")) if path
    )
    return subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


class TestPublicSurface:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__.count(".") == 2

    def test_docstring_example_runs(self):
        trace = repro.make_model("mcf", llc_lines=4096).generate(50_000)
        runner = repro.LLCRunner(
            repro.default_hierarchy(llc_size=4096 * 64), "rwp"
        )
        result = runner.run(trace, warmup=10_000)
        assert result.ipc > 0

    def test_subpackages_importable(self):
        for module in (
            "repro.cache",
            "repro.common",
            "repro.core",
            "repro.cpu",
            "repro.experiments",
            "repro.hierarchy",
            "repro.multicore",
            "repro.trace",
        ):
            importlib.import_module(module)

    @pytest.mark.parametrize(
        "module", ("repro.sim", "repro.multicore", "repro.kernels", "repro.engine")
    )
    def test_imports_in_fresh_interpreter(self, module):
        # In-process imports hide circular-import bugs once any test has
        # loaded the other side of the cycle, so each module gets its
        # own interpreter.
        proc = _fresh_python(f"import {module}")
        assert proc.returncode == 0, proc.stderr

    def test_imports_without_scipy(self):
        # numpy is the only runtime dependency: scipy (the dev extra)
        # serves one confidence interval and is imported there.
        proc = _fresh_python(
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "import repro.cli, repro.experiments, repro.engine, repro.sim\n"
        )
        assert proc.returncode == 0, proc.stderr

    def test_benchmark_names_count(self):
        assert len(repro.benchmark_names()) == 29

    def test_mix_names_count(self):
        assert len(repro.mix_names(4, sharing=False)) == 11
        assert len(repro.mix_names(4)) == 14  # + the data-sharing mixes
        assert len(repro.mix_names()) >= 16
        assert {spec.core_count for spec in repro.mix_specs()} >= {2, 4, 8, 16}

    def test_policy_registry_via_package(self):
        assert "rwp" in repro.policy_names()
        assert repro.make_policy("rwp").name == "RWPPolicy"


class TestDocumentedBehaviors:
    def test_paper_config_matches_readme(self):
        sim = repro.paper_system_config()
        assert sim.hierarchy.llc.size == 2 * 1024 * 1024
        assert sim.hierarchy.llc.ways == 16
        assert sim.hierarchy.llc.line_size == 64

    def test_overhead_ratio_single_digit_percent(self):
        llc = repro.paper_system_config().hierarchy.llc
        assert repro.overhead_ratio(llc) < 0.10

    def test_weighted_speedup_exported(self):
        assert repro.weighted_speedup([1.0], [1.0]) == pytest.approx(1.0)
