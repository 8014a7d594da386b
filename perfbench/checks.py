"""Output checks of the benchmark.

Every check is a pure function of printed output (or of model results)
that returns a list of :class:`Failure` records, empty when the check
holds.  None of them pins a seed-specific simulated value: simulated
cells are checked only against rules that hold for every seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

#: The tolerance of tests/test_golden_curves.py: tables print latencies
#: rounded to 0.1 cycles, so a model cell may differ from its golden by
#: 0.5% relative or 0.06 cycles absolute, whichever is larger.
REL_TOL = 5e-3
ABS_TOL = 0.06
RATE_REL_TOL = 1e-4

#: A model sweep's finite latencies may fall by this relative amount
#: (solver tolerance) as the rate rises; anything larger is a failure.
MONOTONE_SLACK = 1e-9


@dataclass(frozen=True)
class Failure:
    check: str
    detail: str

    def __str__(self) -> str:
        return f"{self.check}: {self.detail}"


@dataclass(frozen=True)
class PanelInfo:
    """What the checks need to know about one figure panel."""

    name: str
    description: str
    message_length: int
    hotspot_fraction: float


@dataclass
class PanelBlock:
    """One panel's table as printed: its lines and its parsed cells."""

    lines: List[str]
    rows: List[Tuple[str, str, str]]

    @property
    def text(self) -> str:
        return "\n".join(self.lines)


def _cells(line: str) -> Optional[Tuple[str, str, str]]:
    parts = [p.strip() for p in line.split("|")]
    if len(parts) != 3:
        return None
    return parts[0], parts[1], parts[2]


def _is_row(cells: Optional[Tuple[str, str, str]]) -> bool:
    if cells is None:
        return False
    try:
        float(cells[0])
    except ValueError:
        return False
    return True


def panel_blocks(text: str, panels: Sequence[PanelInfo]) -> Tuple[
    Dict[str, PanelBlock], List[Failure]
]:
    """Find each panel's table (description, header, rule, rows) in
    ``text``; every panel must be printed exactly once."""
    lines = text.splitlines()
    blocks: Dict[str, PanelBlock] = {}
    failures: List[Failure] = []
    for panel in panels:
        starts = [i for i, line in enumerate(lines) if line == panel.description]
        if len(starts) != 1:
            failures.append(Failure(
                "panels-printed",
                f"{panel.name}: table printed {len(starts)} times"))
            continue
        end = starts[0] + 3
        rows = []
        while end < len(lines) and _is_row(_cells(lines[end])):
            rows.append(_cells(lines[end]))
            end += 1
        if not rows:
            failures.append(Failure("panels-printed", f"{panel.name}: no rows"))
            continue
        blocks[panel.name] = PanelBlock(lines[starts[0]:end], rows)
    return blocks, failures


def load_golden(path: Path) -> List[Tuple[float, str]]:
    """``(rate, model cell)`` rows of a committed results table."""
    rows = []
    for line in path.read_text().splitlines():
        cells = _cells(line)
        if _is_row(cells):
            rows.append((float(cells[0]), cells[1]))
    return rows


def check_model_goldens(block: PanelBlock, panel: PanelInfo,
                        golden: List[Tuple[float, str]]) -> List[Failure]:
    """Every printed model cell matches the golden table's cell."""
    name = "model-matches-golden"
    if len(block.rows) != len(golden):
        return [Failure(name, f"{panel.name}: {len(block.rows)} rows, "
                              f"golden has {len(golden)}")]
    failures = []
    for (rate, model, _), (g_rate, g_model) in zip(block.rows, golden):
        where = f"{panel.name} at rate {rate}"
        if abs(float(rate) - g_rate) > RATE_REL_TOL * abs(g_rate):
            failures.append(Failure(name, f"{where}: golden rate {g_rate}"))
        elif (model == "saturated") != (g_model == "saturated"):
            failures.append(Failure(name, f"{where}: {model} vs golden {g_model}"))
        elif model != "saturated":
            got, want = float(model), float(g_model)
            if abs(got - want) > max(REL_TOL * abs(want), ABS_TOL):
                failures.append(Failure(name, f"{where}: {got} vs golden {want}"))
    return failures


def check_simulated_series(block: PanelBlock, panel: PanelInfo) -> List[Failure]:
    """Nothing but ``-`` (not simulated) follows the first ``saturated``
    cell of the simulated column, and every finite simulated latency is
    at least the message length.

    A ``-`` before that is allowed: the table prints a simulated point
    that measured no message (``nan``) as ``-`` too.
    """
    failures = []
    stopped = False
    for rate, _, cell in block.rows:
        if stopped and cell != "-":
            failures.append(Failure(
                "series-stops-at-saturation",
                f"{panel.name}: {cell!r} at rate {rate} after the first "
                "saturated point"))
        if cell == "saturated":
            stopped = True
        if cell in ("-", "saturated"):
            continue
        value = float(cell)
        if not value >= panel.message_length:
            failures.append(Failure(
                "latency-at-least-lm",
                f"{panel.name}: {value} < Lm={panel.message_length} at rate "
                f"{rate}"))
    return failures


def check_figure_output(text: str, panels: Sequence[PanelInfo],
                        goldens_dir: Path) -> Tuple[Dict[str, PanelBlock],
                                                    List[Failure]]:
    """All figure-output checks: panels printed, model cells on the
    goldens, simulated series well formed."""
    blocks, failures = panel_blocks(text, panels)
    for panel in panels:
        block = blocks.get(panel.name)
        if block is None:
            continue
        golden = load_golden(goldens_dir / f"{panel.name}.txt")
        failures += check_model_goldens(block, panel, golden)
        failures += check_simulated_series(block, panel)
    return blocks, failures


def check_identical(check: str, what: str, got: str, want: str) -> List[Failure]:
    """``got`` is byte-identical to ``want``."""
    if got == want:
        return []
    got_lines, want_lines = got.splitlines(), want.splitlines()
    for i, (a, b) in enumerate(zip(got_lines, want_lines)):
        if a != b:
            return [Failure(check, f"{what}: line {i + 1}: {a!r} != {b!r}")]
    return [Failure(check, f"{what}: {len(got_lines)} lines vs "
                           f"{len(want_lines)}")]


def kept_points(blocks: Dict[str, PanelBlock]) -> Dict[str, List[str]]:
    """Rates (as printed) of the simulated points each series kept."""
    return {name: [rate for rate, _, cell in block.rows if cell != "-"]
            for name, block in blocks.items()}


def check_model_sweep(label: str, saturation_rate: float,
                      points: Sequence[Tuple[float, float, bool]]) -> List[Failure]:
    """Model-grid invariants of one sweep of ``(rate, latency,
    saturated)`` points in rising rate order."""
    failures = []
    last = -math.inf
    for rate, latency, saturated in points:
        where = f"{label} at {rate / saturation_rate:.4f} x saturation"
        if rate <= 0.98 * saturation_rate and saturated:
            failures.append(Failure("finite-below-saturation", where))
        if rate >= 1.02 * saturation_rate and not saturated:
            failures.append(Failure("saturated-above-saturation", where))
        if saturated:
            continue
        if latency < last * (1.0 - MONOTONE_SLACK):
            failures.append(Failure(
                "sweep-monotone", f"{where}: {latency} after {last}"))
        last = max(last, latency)
    return failures
