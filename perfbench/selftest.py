#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 perfbench/selftest.py

1. Runs every workload at the tiny size (``model-grid`` too, which
   BENCHMARK.json does not list), once untraced with the first of
   SEEDS and once traced with the second, and asserts that each run
   passes its checks and prints exactly the metrics BENCHMARK.json names
   (end-to-end untraced, per-layer traced), each with its unit.
2. Builds corrupted copies of a real ``repro figure 1 --simulate``
   output and of real model sweeps and asserts that each fails the
   check meant to catch it.
3. Runs the benchmark in a directory holding only BENCHMARK.json and
   the benchmark's files, where it must fail without printing a result.

Exits 1 on the first failed assertion.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from typing import List

import checks
import run as bench

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())

#: The two workload seeds of the tiny runs.
SEEDS = (1, 2)


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"SELFTEST FAILED: {message}")
    print(f"ok   {message}")


def run_benchmark(workload: str, seed: int, trace: int) -> None:
    cmd = [sys.executable, str(bench.HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
           "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=bench.ROOT, capture_output=True, text=True,
                          timeout=300)
    what = f"{workload} seed {seed} trace {trace}"
    lines = proc.stdout.strip().splitlines()
    expect(proc.returncode == 0 and bool(lines),
           f"{what}: exits 0 ({proc.returncode}; "
           f"{[l for l in lines if l.startswith('CHECK FAILED')]}"
           f"{proc.stderr.strip()[-500:]})")
    result = json.loads(lines[-1])
    expect(sorted(result) == ["attempted", "correct", "failed", "metrics"]
           and result["correct"] is True and result["attempted"] >= 1,
           f"{what}: result line is correct")
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    expect(printed == {m["name"]: m["unit"] for m in wanted},
           f"{what}: prints every named metric with its unit")
    expect(all(isinstance(m["value"], (int, float))
               for m in result["metrics"].values()),
           f"{what}: every metric value is a number")


def _set_cell(text: str, description: str, row: int, column: int,
              value: str) -> str:
    """``text`` with one cell of a panel's table replaced."""
    lines = text.splitlines()
    start = lines.index(description) + 3 + row
    cells = [c.strip() for c in lines[start].split("|")]
    cells[column] = value
    lines[start] = f"{cells[0]:>20} | {cells[1]:>15} | {cells[2]:>20}"
    return "\n".join(lines) + "\n"


def failed_checks(failures: List[checks.Failure]) -> set:
    return {f.check for f in failures}


def negative_cases(seed: int) -> None:
    run = bench.Run("selftest", seed, 1.0, False, bench.SIZES["tiny"])
    try:
        run.setup_probe()
        call = run.call(["figure", 1, "--simulate", "--jobs", 1, "--cycles",
                         1000, "--seed", seed], store=run.fresh_dir("store"),
                        kernels=run.kernels)
        bench.import_program(run)
        panels = bench._panels(1)
        text = call.stdout
        blocks, failures = checks.check_figure_output(text, panels, bench.GOLDENS)
        expect(call.code == 0 and not failures,
               "real figure 1 output passes every check")

        panel = panels[0]
        rows = blocks[panel.name].rows
        cases = []
        model = float(rows[0][1])
        cases.append(("a model cell off the goldens",
                      _set_cell(text, panel.description, 0, 1,
                                f"{model * 1.02:.1f}"),
                      "model-matches-golden"))
        cases.append(("a saturated model cell the goldens call finite",
                      _set_cell(text, panel.description, 0, 1, "saturated"),
                      "model-matches-golden"))
        cases.append(("a simulated value after 'saturated'",
                      _set_cell(text, panel.description, 0, 2, "saturated"),
                      "series-stops-at-saturation"))
        cases.append(("a latency below Lm",
                      _set_cell(text, panel.description, 0, 2,
                                f"{panel.message_length - 0.1:.1f}"),
                      "latency-at-least-lm"))
        cases.append(("a panel missing",
                      text.replace(panel.description, "Figure 9"),
                      "panels-printed"))
        for what, corrupted, check in cases:
            got = failed_checks(
                checks.check_figure_output(corrupted, panels, bench.GOLDENS)[1])
            expect(check in got, f"{what} fails {check} (got {sorted(got)})")

        warm = _set_cell(text, panel.description, 0, 1, f"{model + 0.1:.1f}")
        got = failed_checks(checks.check_identical(
            "warm-equals-cold", "warm figure", warm, text))
        expect(got == {"warm-equals-cold"},
               "a warm output that differs from the cold one fails "
               "warm-equals-cold")
        got = failed_checks(checks.check_identical(
            "other-path-identical", "panel", blocks[panel.name].text,
            _set_cell(blocks[panel.name].text, panel.description, 0, 1,
                      f"{model + 0.1:.1f}").rstrip("\n")))
        expect(got == {"other-path-identical"},
               "an other-path table that differs fails other-path-identical")

        from repro import HotSpotLatencyModel

        m = HotSpotLatencyModel(k=8, message_length=16, hotspot_fraction=0.4)
        sat = m.saturation_rate()
        points = [(p.rate, p.latency, p.saturated)
                  for p in m.sweep([f * sat for f in (0.2, 0.5, 0.9, 0.99, 1.05)]).points]
        expect(not checks.check_model_sweep("real", sat, points),
               "a real model sweep passes the model-grid checks")
        bad = [points[0], (points[1][0], points[0][1] * 0.9, False)] + points[2:]
        expect("sweep-monotone" in failed_checks(
            checks.check_model_sweep("bad", sat, bad)),
            "a latency that falls as the rate rises fails sweep-monotone")
        bad = [(points[0][0], float("inf"), True)] + points[1:]
        expect("finite-below-saturation" in failed_checks(
            checks.check_model_sweep("bad", sat, bad)),
            "a saturated point below 0.98 x saturation fails "
            "finite-below-saturation")
        bad = points[:-1] + [(points[-1][0], 1e4, False)]
        expect("saturated-above-saturation" in failed_checks(
            checks.check_model_sweep("bad", sat, bad)),
            "a finite point above 1.02 x saturation fails "
            "saturated-above-saturation")
    finally:
        shutil.rmtree(run.tmp, ignore_errors=True)


def bare_directory() -> None:
    """Only BENCHMARK.json and the benchmark's files: must fail quietly."""
    bare = bench.ROOT / ".perfbench_tmp" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(bench.ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(bench.ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            SPEC["command"] + ["--workload", SPEC["workloads"][0]["name"],
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
               f"without the program the benchmark exits {proc.returncode} "
               "and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    bare_directory()
    negative_cases(SEEDS[0])
    for workload in bench.WORKLOADS:
        run_benchmark(workload, SEEDS[0], 0)
        run_benchmark(workload, SEEDS[1], 1)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
