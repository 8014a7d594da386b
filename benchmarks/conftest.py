"""Shared benchmark fixtures: table directory and table persistence.

Each figure benchmark regenerates one panel of the paper (model +
simulation series) through the sweep engine, times it with
pytest-benchmark, writes the series table to
``.benchmarks/tables/<name>.txt`` (untracked) and asserts the
paper-shape properties.  Run with ``pytest benchmarks/ --benchmark-only``.

A benchmark run never writes the committed tables under
``benchmarks/results/``: those are the goldens that
``tests/test_golden_curves.py`` checks the model columns against, and a
plain ``pytest`` run collects ``benchmarks/`` before ``tests/``, so
tables rewritten from the code under test would let any change to a
model column pass.  Updating the committed tables after a deliberate
change is an explicit copy, from a run at the default length::

    PYTHONPATH=src python -m pytest benchmarks/ --benchmark-only
    cp .benchmarks/tables/*.txt benchmarks/results/

Environment knobs:

* ``REPRO_SIM_CYCLES`` — measured cycles per simulation point (the
  benchmarks default to 60 000); trade accuracy for time.
* ``REPRO_JOBS`` — simulation worker processes per panel run (default
  1, the sequential path).  Results are bit-identical across values;
  only the wall-clock moves.

The on-disk sweep cache is never used here — a benchmark that reads
cached points would time the filesystem, not the simulator.
"""

import pathlib

import pytest

from repro.experiments.sweep import sim_jobs as bench_jobs  # noqa: F401 (re-export)

TABLES_DIR = pathlib.Path(__file__).resolve().parent.parent / ".benchmarks" / "tables"


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    TABLES_DIR.mkdir(parents=True, exist_ok=True)
    return TABLES_DIR


def save_table(results_dir: pathlib.Path, name: str, content: str) -> None:
    (results_dir / f"{name}.txt").write_text(content + "\n")
