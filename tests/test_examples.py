"""Smoke tests: every example script runs end-to-end (shrunk via
REPRO_QUICK/REPRO_SIM_CYCLES) and prints its headline output."""

import os
import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, *args: str) -> str:
    env = dict(os.environ, REPRO_QUICK="1", REPRO_SIM_CYCLES="5000")
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=600,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


def test_examples_directory_contents():
    names = {p.name for p in EXAMPLES.glob("*.py")}
    assert {
        "quickstart.py",
        "barrier_synchronization.py",
        "cache_coherence.py",
        "model_vs_simulation.py",
        "design_space_sweep.py",
        "bursty_traffic.py",
        "deterministic_vs_adaptive.py",
    } <= names


def test_quickstart():
    out = run_example("quickstart.py")
    assert "model saturation point" in out
    assert "simulated latency" in out
    assert "relative error" in out


def test_barrier_synchronization():
    out = run_example("barrier_synchronization.py")
    assert "sustainable rate" in out
    assert "throughput ratio" in out
    # The 1/h collapse: ratio printed should be ~2.
    line = [l for l in out.splitlines() if "throughput ratio" in l][0]
    ratio = float(line.split(":")[1].split("(")[0])
    assert 1.5 < ratio < 2.6


def test_cache_coherence():
    out = run_example("cache_coherence.py")
    assert "directory interleaving" in out
    assert "single home node" in out


def test_model_vs_simulation_panel():
    out = run_example("model_vs_simulation.py", "fig1_h70")
    assert "Figure 1" in out
    assert "mean relative error" in out


def test_design_space_sweep():
    out = run_example("design_space_sweep.py")
    assert "Q1" in out and "Q2" in out and "Q3" in out
    assert "sat * Lm" in out
    assert "unsupported" not in out  # k=2 is the binary hypercube model


def test_bursty_traffic():
    out = run_example("bursty_traffic.py")
    assert "Poisson (assumption i)" in out
    assert "Pareto" in out


def test_deterministic_vs_adaptive():
    out = run_example("deterministic_vs_adaptive.py")
    assert "uniform traffic" in out
    assert "hot-spot traffic" in out
