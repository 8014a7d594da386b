"""Lazy package exports (repro._lazy): each package's public names load
their defining module on first access, and behave like eager imports."""

import importlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

LAZY_PACKAGES = [
    "repro",
    "repro.core",
    "repro.experiments",
    "repro.simulator",
    "repro.backends",
]

#: Exports that are data, not classes or functions, with the module
#: that defines them (a class or function names its own ``__module__``).
DATA_HOMES = {
    "ALL_PANELS": "repro.experiments.figures",
    "FIGURE1": "repro.experiments.figures",
    "FIGURE2": "repro.experiments.figures",
    "FIGURES": "repro.experiments.figures",
}


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_export_resolves_lists_and_star_imports(package):
    """In a fresh process: each ``__all__`` name is the object its
    defining module holds, ``dir()`` lists it, and ``import *`` binds it."""
    code = textwrap.dedent("""
        import importlib, json, sys

        package = sys.argv[1]
        homes = json.loads(sys.argv[2])
        pkg = importlib.import_module(package)
        listed = set(dir(pkg))
        star = {}
        exec(f"from {package} import *", star)
        report = {}
        for name in pkg.__all__:
            value = getattr(pkg, name)
            if name in homes:
                home = homes[name]
            elif isinstance(value, type) or callable(value):
                home = value.__module__
            else:
                home = package  # defined in the package itself
            report[name] = {
                "home": home,
                "same": getattr(importlib.import_module(home), name) is value,
                "listed": name in listed,
                "star": star.get(name) is value,
            }
        print(json.dumps(report))
    """)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", code, package, json.dumps(DATA_HOMES)],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report, f"{package} exports nothing"
    bad = {name: r for name, r in report.items()
           if not (r["same"] and r["listed"] and r["star"])}
    assert bad == {}


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_unknown_name_raises_attribute_error_naming_the_module(package):
    pkg = importlib.import_module(package)
    with pytest.raises(AttributeError, match=rf"module '{package}' has no "
                                             r"attribute 'no_such_name'"):
        getattr(pkg, "no_such_name")


def test_patched_names_stay_module_level_bindings():
    """Names patched by attribute must live in the module's namespace,
    not behind a lazy lookup or a function-local import."""
    import repro.cli
    import repro.experiments.sweep

    # tests/test_cli.py (TestFailureExitCodes) monkeypatches this one.
    assert "format_panel_table" in vars(repro.cli)
    # perfbench/spans.py wraps ("repro.cli", "shape_metrics") and looks
    # the name up in vars(repro.cli).
    assert "shape_metrics" in vars(repro.cli)
    # tests/test_sweep_engine.py and tests/test_chaos_equivalence.py
    # monkeypatch it; _simulate_point calls it through this global.
    assert "Simulation" in vars(repro.experiments.sweep)
