#!/usr/bin/env python3
"""Regenerate one panel of the paper's validation figures end-to-end.

Runs both the analytical model and the flit-level simulator over the
load grid of a chosen panel (default: Figure 1, h = 20%) and prints the
paired series with relative errors — the programmatic equivalent of
reading model-vs-simulation off the paper's plots.

Run:  python examples/model_vs_simulation.py [panel]
      panel in {fig1_h20, fig1_h40, fig1_h70, fig2_h20, fig2_h40, fig2_h70}
Environment:  REPRO_QUICK=1 shrinks the simulation; REPRO_SIM_CYCLES=N
sets the measurement window per point; REPRO_JOBS=N runs the simulation
points on N worker processes (identical results, less wall-clock).
"""

import os
import sys

from repro.experiments import (
    SweepEngine,
    format_panel_table,
    get_panel,
    shape_metrics,
    sim_jobs,
)


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "fig1_h20"
    spec = get_panel(name)
    quick = bool(os.environ.get("REPRO_QUICK"))
    measure = 12_000 if quick else None  # None -> REPRO_SIM_CYCLES/default
    jobs = sim_jobs()
    print(f"running {spec.description} (model + simulation, jobs={jobs})...\n")
    engine = SweepEngine(jobs=jobs, use_cache=False)
    result = engine.run_panel(spec, measure_cycles=measure)
    print(format_panel_table(result))
    metrics = shape_metrics(result)
    print()
    print(f"mean relative error (light/moderate load): "
          f"{metrics.mean_rel_error_light:.1%}")
    print(f"mean relative error (all finite points):   "
          f"{metrics.mean_rel_error_all:.1%}")
    if metrics.saturation_ratio is not None:
        print(f"saturation knee, model/simulation:         "
              f"{metrics.saturation_ratio:.2f}")
    print(f"model curve monotone: {metrics.monotone_model}; "
          f"simulated curve monotone: {metrics.monotone_sim}")


if __name__ == "__main__":
    main()
