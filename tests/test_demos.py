"""Smoke tests: the walkthrough scripts in demos/ run to completion."""

import math
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run_demo(name: str) -> str:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", name)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("name", ["length_law.py", "death_process.py"])
def test_demo_runs(name):
    assert _run_demo(name)


def test_path_anatomy_backward_length_matches_path():
    lines = _run_demo("path_anatomy.py").splitlines()
    final = [ln.split()[-1] for ln in lines if ln.startswith("final length")]
    replayed = [ln.split()[-1] for ln in lines if ln.startswith("replayed length")]
    assert len(final) == 1 and final == replayed


def test_variance_ratio_prints_a_finite_ratio_per_step():
    # The one demo that calls the increment sampler, with up to 20000
    # increments per call: many row chunks, the last one partial.
    lines = _run_demo("variance_ratio.py").splitlines()
    rows = [ln.split() for ln in lines if ln.startswith("  0.")]
    assert [r[1] for r in rows] == ["8000", "12000", "20000"]
    assert all(math.isfinite(float(r[3])) and float(r[3]) > 0.0 for r in rows)


def test_divergence_sweep_prints_a_finite_positive_slope():
    lines = _run_demo("divergence_sweep.py").splitlines()
    slopes = [ln.split()[-1] for ln in lines if ln.startswith("fitted slope")]
    assert len(slopes) == 1
    assert math.isfinite(float(slopes[0])) and float(slopes[0]) > 0.0
