"""Tests for the command-line interface (repro.cli)."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.cli import build_parser, main

SRC = Path(__file__).resolve().parents[1] / "src"


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_model_defaults(self):
        args = build_parser().parse_args(["model", "--rate", "1e-4"])
        assert args.k == 16 and args.lm == 32 and args.h == 0.2


class TestModelCommand:
    def test_single_rate(self, capsys):
        assert main(["model", "--k", "8", "--lm", "16", "--h", "0.3",
                     "--rate", "2e-4"]) == 0
        out = capsys.readouterr().out
        assert "latency" in out

    def test_saturated_rate(self, capsys):
        assert main(["model", "--k", "8", "--lm", "16", "--h", "0.3",
                     "--rate", "0.05"]) == 0
        assert "SATURATED" in capsys.readouterr().out

    def test_sweep_with_plot(self, capsys):
        assert main(["model", "--k", "8", "--lm", "16", "--h", "0.3",
                     "--sweep", "5", "--plot"]) == 0
        out = capsys.readouterr().out
        assert "saturated" in out
        assert "latency (cycles)" in out  # chart axis label

    def test_uniform_when_h_zero(self, capsys):
        assert main(["model", "--k", "8", "--lm", "16", "--h", "0",
                     "--rate", "1e-3"]) == 0
        assert "latency" in capsys.readouterr().out

    def test_missing_rate_and_sweep(self, capsys):
        assert main(["model", "--k", "8"]) == 2
        assert "rate" in capsys.readouterr().err

    def test_literal_entrance_flag(self, capsys):
        assert main(["model", "--k", "8", "--lm", "16", "--h", "0.3",
                     "--rate", "2e-4", "--literal-entrance"]) == 0


class TestSaturationCommand:
    def test_reports_bound(self, capsys):
        assert main(["saturation", "--k", "8", "--lm", "16", "--h", "0.4"]) == 0
        out = capsys.readouterr().out
        assert "saturation rate" in out
        assert "bandwidth bound" in out


class TestSimulateCommand:
    def test_small_run(self, capsys):
        assert main([
            "simulate", "--k", "4", "--lm", "8", "--h", "0.2",
            "--rate", "2e-3", "--cycles", "5000", "--warmup", "500",
        ]) == 0
        out = capsys.readouterr().out
        assert "mean latency" in out
        assert "saturated: False" in out

    def test_ejection_flag(self, capsys):
        assert main([
            "simulate", "--k", "4", "--lm", "8", "--h", "0.2",
            "--rate", "2e-3", "--cycles", "3000", "--warmup", "300",
            "--ejection",
        ]) == 0
        assert "mean latency" in capsys.readouterr().out


class TestPanelCommands:
    def test_list_panels(self, capsys):
        assert main(["list-panels"]) == 0
        out = capsys.readouterr().out
        for name in ("fig1_h20", "fig2_h70"):
            assert name in out

    def test_panel_model_only(self, capsys):
        assert main(["panel", "fig1_h40"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out and "saturated" in out

    def test_panel_plot(self, capsys):
        assert main(["panel", "fig1_h40", "--plot"]) == 0
        assert "latency (cycles)" in capsys.readouterr().out

    def test_unknown_panel_rejected(self):
        with pytest.raises(SystemExit):
            main(["panel", "fig9_h99"])

    def test_panel_sweep_flags_parsed(self):
        args = build_parser().parse_args(
            ["panel", "fig1_h40", "--simulate", "--jobs", "4", "--no-cache",
             "--seed", "9"]
        )
        assert args.jobs == 4 and args.no_cache and args.seed == 9

    @pytest.mark.parametrize("command", [["panel", "fig1_h40"], ["figure", "1"]])
    def test_point_timeout_in_process_exits_2(self, command, capsys):
        # The in-process backend cannot interrupt a point: the deadline
        # is refused up front instead of being silently ignored.
        argv = command + ["--simulate", "--jobs", "1", "--no-cache",
                          "--point-timeout", "5"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "point_timeout" in captured.err and "jobs=1" in captured.err
        assert "Traceback" not in captured.err

    def test_panel_jobs_model_only(self, capsys):
        # --jobs with a model-only run exercises the engine path without
        # spawning workers (there is nothing to simulate).
        assert main(["panel", "fig1_h40", "--jobs", "2", "--no-cache"]) == 0
        assert "Figure 1" in capsys.readouterr().out

    def test_figure_model_only(self, capsys):
        assert main(["figure", "1", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert out.count("Figure 1") == 3  # one table per panel

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure", "9"])


class TestWorkerCommand:
    def test_worker_defaults(self):
        args = build_parser().parse_args(["worker", "/shared/campaign"])
        assert args.command == "worker"
        assert args.campaign_dir == "/shared/campaign"
        assert args.id is None
        assert args.poll == 0.2
        assert args.heartbeat == 5.0
        assert args.lease_duration == 60.0
        assert args.once is False
        assert args.max_units is None

    def test_worker_flags_parsed(self):
        args = build_parser().parse_args(
            ["worker", "c", "--id", "w1", "--poll", "0.05",
             "--heartbeat", "0.5", "--lease-duration", "10",
             "--once", "--max-units", "3"]
        )
        assert args.id == "w1" and args.poll == 0.05
        assert args.heartbeat == 0.5 and args.lease_duration == 10.0
        assert args.once and args.max_units == 3

    def test_worker_rejects_zero_max_units(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["worker", "c", "--max-units", "0"])


class TestSweepBackendFlags:
    def test_backend_default_none(self):
        # None lets the engine fall back to $REPRO_BACKEND, then "local".
        args = build_parser().parse_args(["panel", "fig1_h40"])
        assert args.backend is None
        assert args.allow_failures is False

    def test_backend_and_allow_failures_parsed(self):
        args = build_parser().parse_args(
            ["figure", "1", "--backend", "file:/shared/c", "--allow-failures"]
        )
        assert args.backend == "file:/shared/c"
        assert args.allow_failures is True


class _StubEngine:
    """run_panel stand-in returning a canned result with failures."""

    def __init__(self, failures):
        from types import SimpleNamespace

        from repro.resilience import ExecutorStats

        self.stats = ExecutorStats()
        sim = SimpleNamespace(failures=list(failures), points=[])
        self._result = SimpleNamespace(simulation=sim, model=None)

    def run_panel(self, spec, **kwargs):
        return self._result


def _stub_failure():
    from types import SimpleNamespace

    return SimpleNamespace(
        index=2, rate=0.12, kind="worker-dead", attempts=5, message="boom"
    )


class TestFailureExitCodes:
    """`repro panel` exits non-zero when points exhausted their retries."""

    @pytest.fixture(autouse=True)
    def _stub_rendering(self, monkeypatch):
        import repro.cli as cli

        monkeypatch.setattr(cli, "format_panel_table", lambda result: "table")

    def test_partial_sweep_exits_nonzero(self, monkeypatch, capsys):
        import repro.cli as cli

        monkeypatch.setattr(
            cli, "_sweep_engine", lambda args: _StubEngine([_stub_failure()])
        )
        assert main(["panel", "fig1_h40"]) == 1
        captured = capsys.readouterr()
        assert "FAILED point 2" in captured.out
        assert "--allow-failures" in captured.err

    def test_allow_failures_opts_out(self, monkeypatch, capsys):
        import repro.cli as cli

        monkeypatch.setattr(
            cli, "_sweep_engine", lambda args: _StubEngine([_stub_failure()])
        )
        assert main(["panel", "fig1_h40", "--allow-failures"]) == 0
        assert capsys.readouterr().err == ""

    def test_clean_sweep_exits_zero(self, monkeypatch, capsys):
        import repro.cli as cli

        monkeypatch.setattr(cli, "_sweep_engine", lambda args: _StubEngine([]))
        assert main(["panel", "fig1_h40"]) == 0
        assert capsys.readouterr().err == ""


class TestImportHygiene:
    def test_runtime_loads_no_scipy_or_networkx(self):
        """numpy is the only third-party runtime dependency: a fresh
        process that imports the CLI, simulates long enough for a
        batch-means CI and evaluates the model loads neither scipy nor
        networkx."""
        code = textwrap.dedent("""
            import sys

            import repro.cli
            from repro import HotSpotLatencyModel, Simulation, SimulationConfig

            cfg = SimulationConfig(k=4, message_length=8, rate=5e-3,
                                   hotspot_fraction=0.2, warmup_cycles=500,
                                   measure_cycles=20000, seed=1)
            assert Simulation(cfg).run().ci95 is not None
            HotSpotLatencyModel(k=4, message_length=8,
                                hotspot_fraction=0.2).evaluate(5e-3)
            print(sorted(m for m in sys.modules
                         if m.split(".")[0] in ("scipy", "networkx")))
        """)
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    # -- start-up contract: a command imports what it runs -------------
    #: Stdlib modules only the process pool needs.
    POOL_MODULES = ("concurrent.futures.process", "multiprocessing")

    @staticmethod
    def _modules_after(argv, cache_dir):
        """Modules a fresh process holds after ``import repro.cli`` and,
        when ``argv`` is given, ``main(argv)`` (stdout discarded)."""
        code = textwrap.dedent("""
            import contextlib, io, json, sys

            import repro.cli

            argv = json.loads(sys.argv[1])
            if argv:
                with contextlib.redirect_stdout(io.StringIO()):
                    assert repro.cli.main(argv) == 0
            print(json.dumps(sorted(sys.modules)))
        """)
        env = dict(os.environ, PYTHONPATH=str(SRC),
                   REPRO_CACHE_DIR=str(cache_dir))
        for var in ("REPRO_BACKEND", "REPRO_FAULTS"):
            env.pop(var, None)
        proc = subprocess.run(
            [sys.executable, "-c", code, json.dumps(argv or [])],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        return set(json.loads(proc.stdout))

    @staticmethod
    def _loaded(modules, names):
        """The loaded modules that are one of ``names`` or inside one."""
        return sorted(m for m in modules
                      if any(m == n or m.startswith(n + ".") for n in names))

    def test_cli_import_loads_no_sweep_or_simulator_layer(self, tmp_path):
        modules = self._modules_after(None, tmp_path)
        assert self._loaded(modules, (
            "repro.simulator", "repro.backends", "repro.resilience",
            "repro.store", "repro.faults", "repro.viz",
        ) + self.POOL_MODULES) == []

    @pytest.mark.parametrize("argv", [["model", "--rate", "3e-4"],
                                      ["saturation"]])
    def test_model_commands_load_no_simulator_backend_or_store(
            self, tmp_path, argv):
        modules = self._modules_after(argv, tmp_path)
        assert "repro.core.model" in modules
        assert self._loaded(modules, (
            "repro.simulator", "repro.backends", "repro.store",
        ) + self.POOL_MODULES) == []

    def test_warm_store_figure_loads_no_engine_or_file_queue(self, tmp_path):
        argv = ["figure", "1", "--simulate", "--jobs", "1",
                "--cycles", "1000"]
        self._modules_after(argv, tmp_path)  # fills the store
        modules = self._modules_after(argv, tmp_path)
        assert "repro.store" in modules
        assert self._loaded(modules, (
            "repro.simulator.network", "repro.simulator.span",
            "repro.simulator.kernel", "repro.simulator.engine",
            "repro.simulator.soa", "repro.backends.filequeue",
        ) + self.POOL_MODULES) == []
