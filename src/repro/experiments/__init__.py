"""Experiment harness: definitions and runners for the paper's figures.

The paper's evaluation (§4) consists of six latency-vs-load panels:
Figure 1 (``Lm = 32`` flits) and Figure 2 (``Lm = 100`` flits), each at
hot-spot fractions ``h ∈ {20%, 40%, 70%}``, on a 256-node (16×16)
unidirectional torus.  Each panel plots the analytical model against the
flit-level simulator.

* :mod:`~repro.experiments.figures` — the panel definitions (network,
  message length, h, load grid chosen to span zero → saturation exactly
  like the paper's axes).
* :mod:`~repro.experiments.sweep` — the sweep engine: parallel
  simulation points with deterministic per-point seeds, warm-started
  model solves, and the on-disk result cache.
* :mod:`~repro.experiments.runner` — the legacy one-call panel runners,
  now thin wrappers over the engine at ``jobs=1`` (its in-process
  backend).
* :mod:`~repro.experiments.report` — renders the series as the ASCII
  tables the benchmarks print and computes the shape metrics recorded in
  EXPERIMENTS.md.
"""

from repro.experiments.figures import (
    ALL_PANELS,
    FIGURE1,
    FIGURE2,
    FIGURES,
    PanelSpec,
    get_panel,
    panels_of_figure,
)
from repro.experiments.sweep import (
    PanelResult,
    SweepEngine,
    default_cache_dir,
    point_seed,
    sim_jobs,
    sim_measure_cycles,
)
from repro.experiments.runner import run_panel, run_panel_model_only
from repro.experiments.report import (
    format_panel_table,
    shape_metrics,
    ShapeMetrics,
)

__all__ = [
    "ALL_PANELS",
    "FIGURE1",
    "FIGURE2",
    "FIGURES",
    "PanelSpec",
    "get_panel",
    "panels_of_figure",
    "PanelResult",
    "SweepEngine",
    "default_cache_dir",
    "point_seed",
    "sim_jobs",
    "sim_measure_cycles",
    "run_panel",
    "run_panel_model_only",
    "format_panel_table",
    "shape_metrics",
    "ShapeMetrics",
]
