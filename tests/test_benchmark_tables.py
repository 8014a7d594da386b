"""The benchmark suite must not rewrite the committed golden tables.

``tests/test_golden_curves.py`` checks the model columns against the
tables under ``benchmarks/results/``, and a plain ``pytest`` run
collects ``benchmarks/`` before ``tests/``.  A benchmark that wrote its
regenerated panel over those tables would refresh the goldens from the
code under test just before they are checked.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "benchmarks" / "results" / "fig1_h70.txt"


def test_benchmark_run_leaves_golden_tables_alone():
    pytest.importorskip("pytest_benchmark")
    before = GOLDEN.read_bytes()
    # A short run: its simulation column differs from the committed one.
    env = dict(os.environ, REPRO_SIM_CYCLES="2000", PYTHONPATH=str(ROOT / "src"))
    try:
        proc = subprocess.run(
            [
                sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                "benchmarks/test_bench_figure1.py::test_fig1_h70",
            ],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert GOLDEN.read_bytes() == before
    finally:
        if GOLDEN.read_bytes() != before:
            GOLDEN.write_bytes(before)
