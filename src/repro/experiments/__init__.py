"""Experiment harness: definitions and runners for the paper's figures.

The paper's evaluation (§4) consists of six latency-vs-load panels:
Figure 1 (``Lm = 32`` flits) and Figure 2 (``Lm = 100`` flits), each at
hot-spot fractions ``h ∈ {20%, 40%, 70%}``, on a 256-node (16×16)
unidirectional torus.  Each panel plots the analytical model against the
flit-level simulator.

* :mod:`~repro.experiments.figures` — the panel definitions (network,
  message length, h, load grid chosen to span zero → saturation exactly
  like the paper's axes).
* :mod:`~repro.experiments.sweep` — the sweep engine: simulation
  points with deterministic per-point seeds, in this process at
  ``jobs=1`` or on a resilient process pool, warm-started model solves,
  the on-disk result cache and the campaign journal.  Run a panel with
  ``SweepEngine(...).run_panel``; ``run_panel_model_only`` is its
  model-only shortcut.
* :mod:`~repro.experiments.report` — renders the series as the ASCII
  tables the benchmarks print and computes the shape metrics recorded in
  ``benchmarks/results/``.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.experiments.figures": (
        "ALL_PANELS", "FIGURE1", "FIGURE2", "FIGURES", "PanelSpec",
        "get_panel", "panels_of_figure",
    ),
    "repro.experiments.sweep": (
        "PanelResult", "SweepEngine", "point_seed", "run_panel_model_only",
        "sim_jobs", "sim_measure_cycles",
    ),
    "repro.experiments.report": (
        "format_panel_table", "shape_metrics", "ShapeMetrics",
    ),
})

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
    "point_seed",
    "run_panel_model_only",
    "sim_jobs",
    "sim_measure_cycles",
    "format_panel_table",
    "shape_metrics",
    "ShapeMetrics",
]
