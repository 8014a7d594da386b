"""Tests for the repro.bench harness and the `repro bench` CLI command."""

import json
from dataclasses import replace

import pytest

from repro import bench
from repro.cli import main
from repro.simulator import kernel
from repro.simulator.kernel import c_kernel_available


def hide_kernel(monkeypatch):
    """Take the compiler-less path: the reference engine."""
    monkeypatch.setattr(kernel, "_loaded", None)
    monkeypatch.setattr(kernel, "_load_attempted", True)


class TestHarness:
    def test_run_sim_once_counts(self):
        cfg = bench.bench_sim_config(quick=True)
        run = bench.run_sim_once(cfg)
        assert run.cycles_run > 0
        assert run.completed > 0
        assert run.flit_moves >= run.completed * cfg.message_length
        if c_kernel_available():
            assert (run.engine, run.kernel) == ("soa", "span")

    def test_run_sim_once_labels_the_reference_engine(self, monkeypatch):
        hide_kernel(monkeypatch)
        cfg = replace(bench.bench_sim_config(quick=True), measure_cycles=1_000)
        run = bench.run_sim_once(cfg)
        assert (run.engine, run.kernel) == ("reference", "python")
        assert run.completed > 0

    def test_throughput_stats(self):
        run = bench.SimRun(
            cycles_run=1000, flit_moves=4000, completed=10,
            engine="soa", kernel="c",
        )
        stats = bench.throughput_stats(run, 0.5)
        assert stats["cycles_per_sec"] == 2000.0
        assert stats["flits_per_sec"] == 8000.0

    def test_build_and_write_report(self, tmp_path):
        report = bench.build_report(quick=True, rounds=1)
        assert report["kind"] == "repro-bench"
        assert report["simulator"]["cycles_per_sec"] > 0
        assert report["model"]["solves_per_sec"] > 0
        assert report["model_batch"]["points_per_sec"] > 0
        assert report["model_batch"]["points"] == len(bench.bench_model_rates())
        assert len(report["config_hash"]) == 16
        path = bench.write_report(report, tmp_path)
        assert path.name.startswith("BENCH_")
        assert json.loads(path.read_text()) == json.loads(
            json.dumps(report)
        )

    def test_measure_model(self):
        out = bench.measure_model(rounds=1)
        assert out["solves_per_sec"] > 0

    def test_measure_model_batch_panel_shaped(self):
        out = bench.measure_model_batch(rounds=1)
        assert out["points"] >= 5
        assert out["points_per_sec"] > 0

    def test_write_report_explicit_file(self, tmp_path):
        report = {"timestamp": "2026-01-01T00:00:00+00:00", "git_rev": "abc"}
        path = bench.write_report(report, tmp_path / "BENCH_x.json")
        assert path == tmp_path / "BENCH_x.json"
        assert path.exists()

    @staticmethod
    def _report(cycles, solves, quick=True):
        return {
            "quick": quick,
            "simulator": {"cycles_per_sec": cycles},
            "model": {"solves_per_sec": solves},
        }

    def test_check_regression_pass_and_fail(self):
        fast = self._report(50_000.0, 200.0)
        slow = self._report(30_000.0, 150.0)
        # Within 2x either way: no failure.
        assert bench.check_regression(fast, slow) == []
        assert bench.check_regression(slow, fast) == []
        crawl = self._report(4_000.0, 150.0)
        failures = bench.check_regression(crawl, fast)
        assert len(failures) == 1
        assert "regressed" in failures[0]

    def test_check_regression_gates_model_solves(self):
        fast = self._report(50_000.0, 200.0)
        slow_model = self._report(50_000.0, 40.0)
        failures = bench.check_regression(slow_model, fast)
        assert len(failures) == 1
        assert "model throughput regressed" in failures[0]

    def test_check_regression_gates_batched_panel(self):
        fast = self._report(50_000.0, 200.0)
        fast["model_batch"] = {"points_per_sec": 1_000.0}
        slow_batch = self._report(50_000.0, 200.0)
        slow_batch["model_batch"] = {"points_per_sec": 100.0}
        failures = bench.check_regression(slow_batch, fast)
        assert len(failures) == 1
        assert "batched model throughput regressed" in failures[0]
        # Pre-batch baselines (no model_batch section) skip this gate.
        assert bench.check_regression(fast, self._report(50_000.0, 200.0)) == []

    def test_check_regression_tolerates_pre_kernel_baseline(self):
        # The model gate applies in both directions against an old
        # baseline whose model section holds solves_per_sec alone.
        new = self._report(50_000.0, 200.0)
        old = {
            "quick": True,
            "simulator": {"cycles_per_sec": 50_000.0},
            "model": {"solves_per_sec": 20.0},
        }
        assert bench.check_regression(new, old) == []
        failures = bench.check_regression(old | {"model": {"solves_per_sec": 20.0}}, new)
        assert any("model throughput regressed" in f for f in failures)
        # The committed baselines still carry a model "kernel" field,
        # which no check reads.
        tagged = old | {"model": {"solves_per_sec": 20.0, "kernel": "vector"}}
        assert bench.check_regression(new, tagged) == []

    def test_check_regression_missing_model_metrics(self):
        new = self._report(50_000.0, 200.0)
        old = {"quick": True, "simulator": {"cycles_per_sec": 50_000.0}}
        failures = bench.check_regression(new, old)
        assert any("model.solves_per_sec" in f for f in failures)

    def test_check_regression_quick_mismatch_flagged(self):
        quick = {"quick": True, "simulator": {"cycles_per_sec": 50_000.0}}
        full = {"quick": False, "simulator": {"cycles_per_sec": 50_000.0}}
        failures = bench.check_regression(quick, full)
        assert any("quick-mode mismatch" in f for f in failures)

    def test_check_regression_engine_mismatch(self):
        soa = self._report(50_000.0, 200.0)
        soa["simulator"]["engine"] = "soa"
        ref = self._report(50_000.0, 200.0)
        ref["simulator"]["engine"] = "reference"
        failures = bench.check_regression(ref, soa)
        assert any("engine mismatch" in f for f in failures)

    def test_check_regression_malformed_baseline(self):
        report = {"quick": True, "simulator": {"cycles_per_sec": 1.0}}
        assert bench.check_regression(report, {}) != []


class TestCli:
    def test_bench_writes_report(self, tmp_path, capsys):
        out = tmp_path / "BENCH_ci.json"
        rc = main(["bench", "--quick", "--rounds", "1",
                   "--output", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["simulator"]["cycles_per_sec"] > 0
        captured = capsys.readouterr().out
        assert "cycles/s" in captured

    def test_bench_check_against_derated_self_passes(self, tmp_path):
        # Comparing two independent wall-clock measurements against the
        # 2x gate would be timing-flaky (single-round quick runs vary
        # ~2x on noisy machines), so derate the recorded baseline well
        # below any plausible re-measurement instead.
        out = tmp_path / "BENCH_base.json"
        assert main(["bench", "--quick", "--rounds", "1",
                     "--output", str(out)]) == 0
        baseline = json.loads(out.read_text())
        baseline["simulator"]["cycles_per_sec"] /= 100.0
        baseline["model"]["solves_per_sec"] /= 100.0
        baseline["model_batch"]["points_per_sec"] /= 100.0
        out.write_text(json.dumps(baseline))
        assert main(["bench", "--quick", "--rounds", "1",
                     "--check", str(out)]) == 0

    def test_bench_check_fails_on_regression(self, tmp_path, capsys):
        baseline = {
            "quick": True,
            "git_rev": "cafe",
            "simulator": {"cycles_per_sec": 1e12},
        }
        path = tmp_path / "BENCH_fast.json"
        path.write_text(json.dumps(baseline))
        rc = main(["bench", "--quick", "--rounds", "1",
                   "--check", str(path)])
        assert rc == 1
        assert "REGRESSION" in capsys.readouterr().err

    def test_bench_check_missing_baseline(self, tmp_path):
        rc = main(["bench", "--quick", "--rounds", "1",
                   "--check", str(tmp_path / "missing.json")])
        assert rc == 2

    def test_simulate_on_reference_engine(self, capsys, monkeypatch):
        argv = ["simulate", "--k", "4", "--lm", "4", "--rate", "1e-3",
                "--cycles", "2000"]
        assert main(argv) == 0
        compiled = capsys.readouterr().out
        assert "completed" in compiled
        hide_kernel(monkeypatch)
        assert main(argv) == 0
        assert capsys.readouterr().out == compiled
