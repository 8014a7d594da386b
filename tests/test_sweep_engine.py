"""Tests for the sweep engine (repro.experiments.sweep).

The load-bearing guarantees:

* ``jobs > 1`` produces **bit-identical** results to the in-process
  ``jobs = 1`` run, including the stop-at-first-saturation truncation;
* per-point seeds are deterministic (process- and run-independent);
* the on-disk cache returns exactly what was computed and is bypassed
  cleanly with ``use_cache=False``;
* corrupt, truncated or stale-schema cache entries are quarantined to
  ``corrupt/`` and recomputed — reads never raise;
* a crashing or permanently failing point becomes a structured
  ``PointFailure`` record while every other point survives;
* every checkpoint-journal line carries the keys ``--resume`` and the
  benchmark's journal statistics read;
* warm-started model sweeps reproduce the cold curves with strictly
  fewer total fixed-point iterations.
"""

import json
import math
import os
import time

import pytest

import repro.experiments.sweep as sweep_mod
from repro.core.model import HotSpotLatencyModel
from repro.core.uniform import UniformLatencyModel
from repro.experiments import PanelSpec, SweepEngine, get_panel, point_seed
from repro.store import config_key, payload_checksum


def tiny_panel(name="tiny", rates=(0.002, 0.01, 0.12, 0.18)):
    """A 4x4 panel cheap enough to simulate in-tests.

    The last two rates sit far past the hot-sink bandwidth bound
    (~0.046 messages/cycle/node here), so the simulated sweep exercises
    the stop-at-first-saturation truncation.
    """
    return PanelSpec(
        figure=1,
        name=name,
        k=4,
        message_length=8,
        hotspot_fraction=0.2,
        rates=tuple(rates),
        paper_axis_max_rate=max(rates),
        paper_axis_max_latency=500.0,
    )


class TestDeterminism:
    def test_parallel_bit_identical_to_sequential(self):
        spec = tiny_panel()
        kwargs = dict(seed=7, measure_cycles=3_000, warmup_cycles=500)
        seq = SweepEngine(jobs=1, use_cache=False).run_panel(spec, **kwargs)
        par = SweepEngine(jobs=4, use_cache=False).run_panel(spec, **kwargs)
        assert seq.model == par.model
        assert seq.simulation == par.simulation  # bit-identical points

    def test_stops_at_first_saturation(self, monkeypatch):
        spec = tiny_panel()
        simulated = []

        class CountingSim(sweep_mod.Simulation):
            def run(self):
                simulated.append(self.config.rate)
                return super().run()

        monkeypatch.setattr(sweep_mod, "Simulation", CountingSim)
        for jobs in (1, 4):
            simulated.clear()
            result = SweepEngine(jobs=jobs, use_cache=False).run_panel(
                spec, seed=7, measure_cycles=3_000, warmup_cycles=500
            )
            sim = result.simulation
            assert sim.points[-1].saturated
            assert len(sim.points) < len(spec.rates)
            assert all(not p.saturated for p in sim.points[:-1])
            if jobs == 1:
                # In-process, nothing past the first saturated point runs.
                assert simulated == [p.rate for p in sim.points]

    def test_run_panels_matches_per_panel_runs(self):
        specs = [tiny_panel("tiny_a"), tiny_panel("tiny_b", rates=(0.004, 0.15))]
        kwargs = dict(seed=3, measure_cycles=3_000, warmup_cycles=500)
        engine = SweepEngine(jobs=2, use_cache=False)
        combined = engine.run_panels(specs, **kwargs)
        for spec in specs:
            single = engine.run_panel(spec, **kwargs)
            assert combined[spec.name].model == single.model
            assert combined[spec.name].simulation == single.simulation

    def test_seed_changes_simulation(self):
        spec = tiny_panel(rates=(0.004,))
        engine = SweepEngine(jobs=1, use_cache=False)
        a = engine.run_panel(spec, seed=1, measure_cycles=3_000, warmup_cycles=500)
        b = engine.run_panel(spec, seed=2, measure_cycles=3_000, warmup_cycles=500)
        assert a.simulation != b.simulation


class TestPointSeeds:
    def test_deterministic(self):
        assert point_seed(42, "fig1_h20", 3) == point_seed(42, "fig1_h20", 3)

    def test_distinct_across_index_panel_and_base(self):
        seeds = {
            point_seed(base, panel, i)
            for base in (0, 1)
            for panel in ("fig1_h20", "fig2_h70")
            for i in range(8)
        }
        assert len(seeds) == 2 * 2 * 8

    def test_known_value_pinned(self):
        # Regression pin: the seed derivation is part of the result
        # contract — changing it silently invalidates every cache entry
        # and shifts every simulated curve, so the literal values are
        # asserted here.
        assert point_seed(42, "fig1_h20", 0) == 3531883728933608867
        assert point_seed(42, "fig1_h20", 1) == 9297857992161947417


class TestCache:
    def test_second_run_served_from_cache(self, tmp_path, monkeypatch):
        spec = tiny_panel()
        kwargs = dict(seed=7, measure_cycles=3_000, warmup_cycles=500)
        engine = SweepEngine(jobs=1, use_cache=True, cache_dir=tmp_path)
        first = engine.run_panel(spec, **kwargs)
        assert list(tmp_path.glob("*.json")), "cache must be populated"

        class Boom:
            def __init__(self, *a, **k):
                raise AssertionError("cache miss: simulation was re-run")

        monkeypatch.setattr(sweep_mod, "Simulation", Boom)
        second = engine.run_panel(spec, **kwargs)
        assert second.simulation == first.simulation

    def test_cache_respects_config_changes(self, tmp_path):
        spec = tiny_panel(rates=(0.004,))
        engine = SweepEngine(jobs=1, use_cache=True, cache_dir=tmp_path)
        engine.run_panel(spec, seed=1, measure_cycles=3_000, warmup_cycles=500)
        n = len(list(tmp_path.glob("*.json")))
        engine.run_panel(spec, seed=2, measure_cycles=3_000, warmup_cycles=500)
        assert len(list(tmp_path.glob("*.json"))) == 2 * n

    def test_no_cache_writes_nothing(self, tmp_path):
        spec = tiny_panel(rates=(0.004,))
        engine = SweepEngine(jobs=1, use_cache=False, cache_dir=tmp_path)
        engine.run_panel(spec, seed=1, measure_cycles=3_000, warmup_cycles=500)
        assert not list(tmp_path.glob("*.json"))

    def test_corrupt_cache_entry_recomputed(self, tmp_path):
        spec = tiny_panel(rates=(0.004,))
        kwargs = dict(seed=1, measure_cycles=3_000, warmup_cycles=500)
        engine = SweepEngine(jobs=1, use_cache=True, cache_dir=tmp_path)
        first = engine.run_panel(spec, **kwargs)
        for f in tmp_path.glob("*.json"):
            f.write_text("{not json")
        second = engine.run_panel(spec, **kwargs)
        assert second.simulation == first.simulation

    def test_store_from_before_the_version_bump_misses(self, tmp_path, monkeypatch):
        # Version 3 changed the simulator's random stream, so a store
        # written by version 2 holds old-stream numbers for the very
        # configs that now simulate to others: every point must miss.
        import repro.store as store_mod

        assert store_mod.CACHE_VERSION == 3
        spec = tiny_panel(rates=(0.004, 0.01))
        kwargs = dict(seed=1, measure_cycles=3_000, warmup_cycles=500)
        with monkeypatch.context() as m:
            m.setattr(store_mod, "CACHE_VERSION", 2)
            SweepEngine(jobs=1, use_cache=True, cache_dir=tmp_path).run_panel(
                spec, **kwargs
            )
        old = set(tmp_path.glob("*.json"))
        assert len(old) == 2
        runs = []
        simulation = sweep_mod.Simulation
        monkeypatch.setattr(
            sweep_mod, "Simulation",
            lambda *a, **k: runs.append(a) or simulation(*a, **k),
        )
        SweepEngine(jobs=1, use_cache=True, cache_dir=tmp_path).run_panel(
            spec, **kwargs
        )
        assert len(runs) == 2
        assert len(set(tmp_path.glob("*.json")) - old) == 2

    def test_saturated_point_roundtrips(self, tmp_path, monkeypatch):
        spec = tiny_panel(rates=(0.18,))  # deep saturation
        kwargs = dict(seed=1, measure_cycles=3_000, warmup_cycles=500)
        engine = SweepEngine(jobs=1, use_cache=True, cache_dir=tmp_path)
        first = engine.run_panel(spec, **kwargs)
        assert first.simulation.points[0].saturated
        assert math.isinf(first.simulation.points[0].latency)

        class Boom:
            def __init__(self, *a, **k):
                raise AssertionError("cache miss")

        monkeypatch.setattr(sweep_mod, "Simulation", Boom)
        second = engine.run_panel(spec, **kwargs)
        assert second.simulation == first.simulation


class TestCacheHardening:
    """Corrupt entries are quarantined and recomputed, never raised on."""

    def _seed_cache(self, tmp_path):
        spec = tiny_panel(rates=(0.004,))
        kwargs = dict(seed=1, measure_cycles=3_000, warmup_cycles=500)
        engine = SweepEngine(jobs=1, use_cache=True, cache_dir=tmp_path)
        first = engine.run_panel(spec, **kwargs)
        entries = list(tmp_path.glob("*.json"))
        assert entries
        return spec, kwargs, engine, first, entries

    def _assert_recovered(self, tmp_path, spec, kwargs, first, reason):
        engine = SweepEngine(jobs=1, use_cache=True, cache_dir=tmp_path)
        second = engine.run_panel(spec, **kwargs)
        assert second.simulation == first.simulation
        quarantined = list((tmp_path / "corrupt").glob(f"*.{reason}.json"))
        assert quarantined, f"expected a .{reason}.json quarantine file"
        # The recomputed entry replaced the corrupt one: a third run is a
        # clean cache hit again.
        third = SweepEngine(
            jobs=1, use_cache=True, cache_dir=tmp_path
        ).run_panel(spec, **kwargs)
        assert third.simulation == first.simulation

    def test_truncated_json(self, tmp_path):
        spec, kwargs, _, first, entries = self._seed_cache(tmp_path)
        for f in entries:
            f.write_text(f.read_text()[: len(f.read_text()) // 2])
        self._assert_recovered(tmp_path, spec, kwargs, first, "parse")

    def test_wrong_schema_version(self, tmp_path):
        spec, kwargs, _, first, entries = self._seed_cache(tmp_path)
        for f in entries:
            body = json.loads(f.read_text())
            body["schema"] = 999
            f.write_text(json.dumps(body))
        self._assert_recovered(tmp_path, spec, kwargs, first, "schema")

    def test_legacy_v1_entry_is_stale(self, tmp_path):
        # A pre-hardening cache body (bare payload, no envelope) must be
        # treated as stale schema, not served.
        spec, kwargs, _, first, entries = self._seed_cache(tmp_path)
        for f in entries:
            f.write_text(
                json.dumps({"rate": 0.004, "latency": 1.0, "saturated": False})
            )
        self._assert_recovered(tmp_path, spec, kwargs, first, "schema")

    def test_checksum_mismatch(self, tmp_path):
        spec, kwargs, _, first, entries = self._seed_cache(tmp_path)
        for f in entries:
            body = json.loads(f.read_text())
            body["payload"]["latency"] = body["payload"]["latency"] + 1.0
            f.write_text(json.dumps(body))  # stale checksum
        self._assert_recovered(tmp_path, spec, kwargs, first, "checksum")

    def test_non_numeric_fields(self, tmp_path):
        spec, kwargs, _, first, entries = self._seed_cache(tmp_path)
        for f in entries:
            body = json.loads(f.read_text())
            body["payload"]["latency"] = "fast"
            body["checksum"] = payload_checksum(body["payload"])
            f.write_text(json.dumps(body))
        self._assert_recovered(tmp_path, spec, kwargs, first, "fields")

    def test_bool_masquerading_as_number_rejected(self, tmp_path):
        spec, kwargs, _, first, entries = self._seed_cache(tmp_path)
        for f in entries:
            body = json.loads(f.read_text())
            body["payload"]["latency"] = True
            body["checksum"] = payload_checksum(body["payload"])
            f.write_text(json.dumps(body))
        self._assert_recovered(tmp_path, spec, kwargs, first, "fields")

    def test_get_never_raises_on_garbage(self, tmp_path):
        spec, kwargs, _, first, entries = self._seed_cache(tmp_path)
        for f in entries:
            f.write_bytes(b"\x00\xff\xfe garbage \x80")
        second = SweepEngine(
            jobs=1, use_cache=True, cache_dir=tmp_path
        ).run_panel(spec, **kwargs)
        assert second.simulation == first.simulation


class TestStaleTmpCleanup:
    def test_old_orphan_removed_on_startup(self, tmp_path):
        orphan = tmp_path / "deadbeef.12345.tmp"
        orphan.write_text("half-written entry")
        old = time.time() - 7200
        os.utime(orphan, (old, old))
        SweepEngine(jobs=1, use_cache=True, cache_dir=tmp_path)
        assert not orphan.exists()

    def test_young_tmp_preserved(self, tmp_path):
        # A young tmp may belong to a concurrently running writer.
        young = tmp_path / "cafebabe.99999.tmp"
        young.write_text("in-progress entry")
        SweepEngine(jobs=1, use_cache=True, cache_dir=tmp_path)
        assert young.exists()

    def test_no_cache_engine_does_not_touch_dir(self, tmp_path):
        orphan = tmp_path / "deadbeef.12345.tmp"
        orphan.write_text("x")
        old = time.time() - 7200
        os.utime(orphan, (old, old))
        SweepEngine(jobs=1, use_cache=False, cache_dir=tmp_path)
        assert orphan.exists()


class _FailingSim:
    """Stand-in Simulation that raises on one specific rate."""

    real = None  # patched in by the test
    bad_rate = None

    def __init__(self, cfg):
        self.cfg = cfg

    def run(self):
        if abs(self.cfg.rate - type(self).bad_rate) < 1e-12:
            raise RuntimeError("flaky point")
        return type(self).real(self.cfg).run()


class _CrashingSim(_FailingSim):
    """Stand-in Simulation that kills its worker on one specific rate.

    The short sleep lets concurrently running points finish before the
    pool breaks — a broken pool charges every in-flight task an attempt
    (the culprit cannot be attributed), and this test wants the innocent
    points to complete rather than exhaust their budgets alongside the
    crasher.
    """

    def run(self):
        if abs(self.cfg.rate - type(self).bad_rate) < 1e-12:
            time.sleep(0.3)
            os._exit(1)
        return type(self).real(self.cfg).run()


class TestFailureRecords:
    def test_failed_point_recorded_others_survive(self, monkeypatch):
        spec = tiny_panel()
        _FailingSim.real = sweep_mod.Simulation
        _FailingSim.bad_rate = spec.rates[1]
        monkeypatch.setattr(sweep_mod, "Simulation", _FailingSim)
        engine = SweepEngine(
            jobs=1, use_cache=False, max_retries=1, backoff_base=0.001
        )
        result = engine.run_panel(
            spec, seed=7, measure_cycles=3_000, warmup_cycles=500
        )
        sim = result.simulation
        assert len(sim.failures) == 1
        failure = sim.failures[0]
        assert failure.kind == "exception"
        assert failure.index == 1
        assert failure.rate == spec.rates[1]
        assert failure.attempts == 2
        assert "flaky point" in failure.message
        # The surviving points are exactly the clean run's, minus index 1.
        assert [p.rate for p in sim.points] == [spec.rates[0], spec.rates[2]]
        assert sim.points[-1].saturated
        assert engine.stats.failures == 1
        assert engine.stats.retries == 1

    def test_worker_crash_does_not_discard_finished_points(
        self, tmp_path, monkeypatch
    ):
        # The pre-resilience engine unwrapped future.result() per panel:
        # one dead worker threw away every completed point.  Now the
        # crashing point becomes a PointFailure, every other point
        # survives — and is already in the cache, having been written the
        # moment its future resolved.
        spec = tiny_panel()
        _CrashingSim.real = sweep_mod.Simulation
        _CrashingSim.bad_rate = spec.rates[1]
        monkeypatch.setattr(sweep_mod, "Simulation", _CrashingSim)
        engine = SweepEngine(
            jobs=2,
            use_cache=True,
            cache_dir=tmp_path,
            max_retries=6,
            backoff_base=0.001,
        )
        result = engine.run_panel(
            spec, seed=7, measure_cycles=3_000, warmup_cycles=500
        )
        sim = result.simulation
        assert [f.index for f in sim.failures] == [1]
        assert sim.failures[0].kind == "worker-crash"
        assert engine.stats.pool_rebuilds >= 1
        completed_rates = {p.rate for p in sim.points}
        assert spec.rates[0] in completed_rates
        assert list(tmp_path.glob("*.json")), (
            "completed points must be cached despite the crashes"
        )

        # The undamaged points match a fault-free sequential run.
        monkeypatch.setattr(sweep_mod, "Simulation", _CrashingSim.real)
        clean = SweepEngine(jobs=1, use_cache=False).run_panel(
            spec, seed=7, measure_cycles=3_000, warmup_cycles=500
        )
        clean_by_rate = {p.rate: p for p in clean.simulation.points}
        for p in sim.points:
            assert p == clean_by_rate[p.rate]

    def test_parallel_failure_matches_sequential(self, monkeypatch):
        spec = tiny_panel()
        _FailingSim.real = sweep_mod.Simulation
        _FailingSim.bad_rate = spec.rates[0]
        monkeypatch.setattr(sweep_mod, "Simulation", _FailingSim)
        kwargs = dict(seed=7, measure_cycles=3_000, warmup_cycles=500)
        seq = SweepEngine(
            jobs=1, use_cache=False, max_retries=0
        ).run_panel(spec, **kwargs)
        par = SweepEngine(
            jobs=3, use_cache=False, max_retries=0
        ).run_panel(spec, **kwargs)
        assert seq.simulation == par.simulation
        assert len(seq.simulation.failures) == 1


class _FlakySim(_FailingSim):
    """Stand-in Simulation that also fails the first run of one rate."""

    flaky_rate = None
    tripped = False

    def run(self):
        cls = type(self)
        if self.cfg.rate == cls.flaky_rate and not cls.tripped:
            cls.tripped = True
            raise RuntimeError("transient")
        return super().run()


class TestJournalFormat:
    def test_every_line_kind_carries_its_keys(self, tmp_path, monkeypatch):
        # --resume reads the done lines back; the benchmark counts every
        # workload's attempted and failed points from `source`, `status`
        # and the retry lines.  One point fails once, one always fails.
        spec = tiny_panel()
        _FlakySim.real = sweep_mod.Simulation
        _FlakySim.flaky_rate = spec.rates[0]
        _FlakySim.tripped = False
        _FlakySim.bad_rate = spec.rates[1]
        monkeypatch.setattr(sweep_mod, "Simulation", _FlakySim)
        engine = SweepEngine(
            jobs=1, cache_dir=tmp_path, max_retries=1, backoff_base=0.001
        )
        cfgs = engine._panel_configs(spec, 7, 3_000, 500)
        cid = engine._campaign_id([spec], {spec.name: cfgs}, 7)
        journal = engine.journal_dir() / f"{cid}.jsonl"

        def run_and_read():
            sim = engine.run_panel(
                spec, seed=7, measure_cycles=3_000, warmup_cycles=500
            ).simulation
            lines = journal.read_text().splitlines()
            return sim.points, [json.loads(line) for line in lines]

        def point(i, **fields):
            return {"event": "point", "panel": "tiny", "index": i,
                    "config": config_key(cfgs[i])[:16], **fields}

        def done(i, p, attempts, source):
            return point(i, status="done", rate=p.rate, latency=p.latency,
                         saturated=p.saturated, attempts=attempts,
                         source=source)

        def retry(i):
            return {"event": "retry", "panel": "tiny", "index": i,
                    "kind": "exception", "attempt": 0}

        header = {"event": "campaign", "campaign": cid, "version": 1,
                  "seed": 7, "panels": {"tiny": 4}}
        failed = point(1, status="failed", kind="exception", attempts=2,
                       message="RuntimeError: flaky point")

        (p0, p2), lines = run_and_read()
        assert p2.saturated
        assert lines == [
            header,
            retry(0), done(0, p0, 2, "simulated"),
            retry(1), done(2, p2, 1, "simulated"),
            failed,
        ]
        # The rerun takes points 0 and 2 from the store and retries 1.
        points, lines = run_and_read()
        assert points == [p0, p2]
        assert lines == [
            header,
            done(0, p0, 0, "cache"), done(2, p2, 0, "cache"),
            retry(1), failed,
        ]


class TestWarmStart:
    def test_fig1_model_sweep_fewer_iterations(self):
        """Acceptance: a warm-started Figure-1 model sweep spends
        strictly fewer fixed-point iterations than cold starts while
        reproducing the same curve."""
        spec = get_panel("fig1_h20")
        model = HotSpotLatencyModel(
            k=spec.k,
            message_length=spec.message_length,
            hotspot_fraction=spec.hotspot_fraction,
            num_vcs=spec.num_vcs,
        )
        cold = model.sweep(spec.rates, warm_start=False)
        warm = model.sweep(spec.rates, warm_start=True)
        assert warm.total_iterations < cold.total_iterations
        for w, c in zip(warm.points, cold.points):
            assert w.saturated == c.saturated
            if not w.saturated:
                assert w.latency == pytest.approx(c.latency, rel=1e-7)

    def test_evaluate_initial_passthrough(self):
        model = HotSpotLatencyModel(k=8, message_length=16, hotspot_fraction=0.3)
        cold = model.evaluate(2e-4)
        assert cold.fixed_point_state is not None
        warm = model.evaluate(2e-4, initial=cold.fixed_point_state)
        assert warm.iterations <= 2
        assert warm.latency == pytest.approx(cold.latency, rel=1e-9)

    def test_initial_shape_validated(self):
        import numpy as np

        model = HotSpotLatencyModel(k=8, message_length=16, hotspot_fraction=0.3)
        with pytest.raises(ValueError, match="shape"):
            model.evaluate(2e-4, initial=np.zeros(3))

    def test_warm_start_preserves_saturation_classification(self):
        model = HotSpotLatencyModel(k=8, message_length=16, hotspot_fraction=0.3)
        converged = model.evaluate(2e-4)
        hot_rate = 0.05  # far past saturation
        cold = model.evaluate(hot_rate)
        warm = model.evaluate(hot_rate, initial=converged.fixed_point_state)
        assert cold.saturated and warm.saturated

    def test_uniform_model_warm_start(self):
        model = UniformLatencyModel(k=8, n=2, message_length=16)
        cold = model.evaluate(1e-3)
        warm = model.evaluate(1e-3, initial=cold.fixed_point_state)
        assert warm.iterations <= 2
        assert warm.latency == pytest.approx(cold.latency, rel=1e-9)
        sweep_warm = model.sweep([5e-4, 6e-4, 7e-4], warm_start=True)
        sweep_cold = model.sweep([5e-4, 6e-4, 7e-4], warm_start=False)
        assert sweep_warm.total_iterations < sweep_cold.total_iterations
        for w, c in zip(sweep_warm.points, sweep_cold.points):
            assert w.latency == pytest.approx(c.latency, rel=1e-7)


class TestValidation:
    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError, match="jobs"):
            SweepEngine(jobs=0)

    def test_point_timeout_rejected_in_process(self):
        # One point at a time in this process cannot be interrupted, so
        # a deadline there would be silently ignored.
        with pytest.raises(ValueError, match=r"point_timeout.*jobs=1"):
            SweepEngine(jobs=1, point_timeout=5)

    def test_point_timeout_accepted_on_pool(self):
        engine = SweepEngine(jobs=2, point_timeout=5, use_cache=False)
        assert engine.policy.point_timeout == 5

    def test_jobs_picks_in_process_or_pool(self, monkeypatch):
        import concurrent.futures

        pools = []

        class RecordingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                pools.append(max_workers)
                super().__init__(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", RecordingPool
        )
        kwargs = dict(seed=7, measure_cycles=3_000, warmup_cycles=500)
        SweepEngine(jobs=1, use_cache=False).run_panel(tiny_panel(), **kwargs)
        assert pools == []
        SweepEngine(jobs=3, use_cache=False).run_panel(tiny_panel(), **kwargs)
        assert pools == [3]

    def test_model_only_panel_has_no_simulation(self):
        result = SweepEngine(use_cache=False).run_panel(
            tiny_panel(), simulate=False
        )
        assert result.simulation is None
        assert len(result.model.points) == 4
