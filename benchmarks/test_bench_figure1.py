"""Benchmark: regenerate the paper's Figure 1 (Lm = 32 flits).

Three panels — h = 20%, 40%, 70% on the 256-node torus — each producing
the model-vs-simulation latency series the paper plots.  The assertions
encode the *shape* claims (not absolute numbers; the tables are in
``benchmarks/results/``):

* both curves rise monotonically and saturate within the panel's grid;
* the model tracks the simulation at light/moderate load;
* model and simulation saturation knees are within a factor ~[0.5, 2];
* panels saturate in the paper's order (h = 70% first, 20% last).
"""

import math

import pytest

from benchmarks.conftest import bench_jobs, save_table
from repro.experiments import (
    SweepEngine,
    format_panel_table,
    get_panel,
    shape_metrics,
    sim_measure_cycles,
)

_SAT_KNEES = {}


def _run_and_check(benchmark, results_dir, panel_name):
    spec = get_panel(panel_name)
    measure = sim_measure_cycles(60_000)

    result = benchmark.pedantic(
        lambda: SweepEngine(jobs=bench_jobs(), use_cache=False).run_panel(
            spec, measure_cycles=measure, seed=2005
        ),
        rounds=1,
        iterations=1,
    )
    table = format_panel_table(result)
    metrics = shape_metrics(result)
    report = (
        f"{table}\n\n"
        f"mean relative error (light/moderate): {metrics.mean_rel_error_light:.3f}\n"
        f"mean relative error (all finite):     {metrics.mean_rel_error_all:.3f}\n"
        f"model saturation rate: {metrics.model_saturation_rate}\n"
        f"sim   saturation rate: {metrics.sim_saturation_rate}\n"
        f"saturation ratio (model/sim): {metrics.saturation_ratio}\n"
    )
    save_table(results_dir, panel_name, report)
    print("\n" + report)

    benchmark.extra_info["rel_err_light"] = metrics.mean_rel_error_light
    benchmark.extra_info["model_sat"] = metrics.model_saturation_rate
    benchmark.extra_info["sim_sat"] = metrics.sim_saturation_rate

    # --- paper-shape assertions -------------------------------------
    # Model-side claims are exact and always hold; the simulation-side
    # claims are statistical and only asserted when the measurement
    # window is long enough to mean anything (CI-sized runs with
    # REPRO_SIM_CYCLES=2000 smoke the plumbing, not the statistics).
    assert metrics.monotone_model, "model curve must be monotone"
    assert metrics.model_saturation_rate is not None, "model must saturate in grid"
    if measure >= 20_000:
        assert metrics.monotone_sim, "simulated curve must be monotone"
        if not math.isnan(metrics.mean_rel_error_light):
            assert metrics.mean_rel_error_light < 0.5, (
                "model must track simulation at light/moderate load"
            )
        if metrics.saturation_ratio is not None:
            assert 0.5 <= metrics.saturation_ratio <= 2.0
    _SAT_KNEES[panel_name] = metrics.model_saturation_rate
    return result


@pytest.mark.benchmark(group="figure1")
def test_fig1_h20(benchmark, results_dir):
    _run_and_check(benchmark, results_dir, "fig1_h20")


@pytest.mark.benchmark(group="figure1")
def test_fig1_h40(benchmark, results_dir):
    _run_and_check(benchmark, results_dir, "fig1_h40")


@pytest.mark.benchmark(group="figure1")
def test_fig1_h70(benchmark, results_dir):
    _run_and_check(benchmark, results_dir, "fig1_h70")


@pytest.mark.benchmark(group="figure1")
def test_fig1_saturation_ordering(benchmark, results_dir):
    """Across panels: saturation load falls as h rises (the paper's
    axes: 0.0006 -> 0.0004 -> 0.0002)."""

    def check():
        # Panels may run in any order; compute independently if needed.
        from repro.core.model import HotSpotLatencyModel

        knees = {}
        for h in (0.2, 0.4, 0.7):
            m = HotSpotLatencyModel(k=16, message_length=32, hotspot_fraction=h)
            knees[h] = m.saturation_rate(hi=0.01)
        return knees

    knees = benchmark.pedantic(check, rounds=1, iterations=1)
    report = "model saturation knees, Lm=32: " + ", ".join(
        f"h={h:.0%}: {r:.6f}" for h, r in sorted(knees.items())
    )
    save_table(results_dir, "fig1_saturation_ordering", report)
    print("\n" + report)
    assert knees[0.2] > knees[0.4] > knees[0.7]
    # Paper's implied ratios from axis ends (0.0006 / 0.0004 / 0.0002):
    assert knees[0.2] / knees[0.4] == pytest.approx(0.0006 / 0.0004, rel=0.35)
    assert knees[0.2] / knees[0.7] == pytest.approx(0.0006 / 0.0002, rel=0.35)
