"""Reporting: ASCII series tables and paper-shape metrics.

The reproduction cannot (and should not) match the paper's absolute
numbers — the authors' simulator, RNG and run lengths are unpublished.
What must hold is the *shape*:

* the model tracks the simulation at light/moderate load (bounded
  relative error),
* both curves saturate, and at nearby loads,
* the saturation load falls with ``h`` and with ``Lm`` in the ratios the
  paper's axes imply.

:func:`shape_metrics` quantifies these; the benchmark harness asserts on
them and the tables in ``benchmarks/results/`` record them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

from repro.core.results import SweepResult

if TYPE_CHECKING:
    from repro.experiments.sweep import PanelResult

__all__ = ["ShapeMetrics", "shape_metrics", "format_panel_table"]


@dataclass(frozen=True)
class ShapeMetrics:
    """Model-vs-simulation agreement summary for one panel.

    Attributes
    ----------
    mean_rel_error_light:
        Mean |model - sim| / sim over the points where both are finite
        and simulated utilisation is light/moderate (first half of the
        grid) — the regime where the paper claims "reasonable accuracy".
    mean_rel_error_all:
        Same over every point where both curves are finite.
    model_saturation_rate / sim_saturation_rate:
        First saturated grid rate of each curve (``None`` if neither
        saturated within the grid).
    saturation_ratio:
        model / sim saturation rate (1.0 = same knee; ``None`` when
        either is missing).
    monotone_model / monotone_sim:
        Latency curves are non-decreasing in load (hockey-stick shape).
    """

    mean_rel_error_light: float
    mean_rel_error_all: float
    model_saturation_rate: Optional[float]
    sim_saturation_rate: Optional[float]
    saturation_ratio: Optional[float]
    monotone_model: bool
    monotone_sim: bool


def _is_monotone(curve: SweepResult, tolerance: float = 0.05) -> bool:
    """Non-decreasing within ``tolerance`` relative slack (simulation
    noise at light load can wiggle by a few percent)."""
    last = -math.inf
    for p in curve.points:
        if math.isinf(p.latency):
            break
        if p.latency < last * (1.0 - tolerance):
            return False
        last = max(last, p.latency)
    return True


def shape_metrics(result: PanelResult) -> ShapeMetrics:
    """Compute agreement metrics for a panel run (requires simulation)."""
    if result.simulation is None:
        raise ValueError("panel was run model-only; no simulation to compare")
    rows = result.paired_points()
    finite = [
        (r, m, s)
        for r, m, s in rows
        if math.isfinite(m) and math.isfinite(s) and not math.isnan(s)
    ]
    rel = [(abs(m - s) / s) for _, m, s in finite if s > 0]
    half = max(1, len(rows) // 2)
    light_rates = {r for r, _, _ in rows[:half]}
    rel_light = [abs(m - s) / s for r, m, s in finite if r in light_rates and s > 0]

    model_sat = result.model.saturation_rate()
    sim_sat = result.simulation.saturation_rate()
    ratio = None
    if model_sat is not None and sim_sat is not None and sim_sat > 0:
        ratio = model_sat / sim_sat
    return ShapeMetrics(
        mean_rel_error_light=(sum(rel_light) / len(rel_light)) if rel_light else math.nan,
        mean_rel_error_all=(sum(rel) / len(rel)) if rel else math.nan,
        model_saturation_rate=model_sat,
        sim_saturation_rate=sim_sat,
        saturation_ratio=ratio,
        monotone_model=_is_monotone(result.model),
        monotone_sim=_is_monotone(result.simulation),
    )


def format_panel_table(result: PanelResult) -> str:
    """Render a panel as the rows the paper's figure plots.

    One line per grid rate: offered traffic, model latency, simulated
    latency ("-" where not simulated / saturated shows "saturated").
    """
    spec = result.spec
    lines = [
        f"{spec.description}",
        f"{'traffic (msg/cycle)':>20} | {'model (cycles)':>15} | {'simulation (cycles)':>20}",
        "-" * 62,
    ]

    def fmt(x: float) -> str:
        if math.isnan(x):
            return "-"
        if math.isinf(x):
            return "saturated"
        return f"{x:.1f}"

    for rate, model_lat, sim_lat in result.paired_points():
        lines.append(f"{rate:>20.6g} | {fmt(model_lat):>15} | {fmt(sim_lat):>20}")
    return "\n".join(lines)
