"""Lease lifecycle, crash-safety and equivalence of the file-queue backend.

Covers the ISSUE-9 satellite edge cases: the double-claim race, lease
expiry under host clock skew (mtime is authoritative, embedded deadlines
are advisory), SIGTERM drain mid-point, speculation where both copies
finish (first-wins, identical payload), the startup stale-file sweep,
and undecodable-lease quarantine.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.backends import (
    FileQueueBackend,
    InlineBackend,
    LocalPoolBackend,
    resolve_backend,
)
from repro.backends import filequeue as fq
from repro.backends.worker import FileQueueWorker
from repro.experiments import sweep as sweep_module
from repro.experiments.sweep import SweepEngine, _simulate_point, point_seed
from repro.resilience import ExecutorStats, RetryPolicy
from repro.simulator.config import SimulationConfig
from repro.store import atomic_write_json

from test_sweep_engine import tiny_panel

SIM_KWARGS = dict(seed=7, measure_cycles=3_000, warmup_cycles=500)


def tiny_cfg(rate=0.01, index=0, measure_cycles=3_000):
    return SimulationConfig(
        k=4,
        n=2,
        num_vcs=2,
        message_length=8,
        rate=rate,
        hotspot_fraction=0.2,
        warmup_cycles=500,
        measure_cycles=measure_cycles,
        seed=point_seed(7, "tiny", index),
    )


def make_worker(root, **kw):
    kw.setdefault("poll_interval", 0.05)
    kw.setdefault("heartbeat_interval", 0.3)
    return FileQueueWorker(root, **kw)


def publish_unit(root, uid, cfg, attempt=0):
    atomic_write_json(
        fq.queue_dir(root) / f"{uid}.json",
        {
            "protocol": fq.PROTOCOL_VERSION,
            "unit": uid,
            "attempt": attempt,
            "config": asdict(cfg),
        },
    )


def campaign_leftovers(root):
    """Leaked coordination files after a campaign.

    ``results/`` is excluded here: these tests run workers in-process
    without the coordinator owning them, so a worker finishing a
    retracted/duplicate unit may legitimately publish just after the
    coordinator returned (the next campaign's startup clears it).  The
    spawned-fleet chaos test asserts the full zero-leak guarantee,
    results included.
    """
    root = Path(root)
    return (
        list(root.glob("queue/*"))
        + list(root.glob("leases/*"))
        + list(root.rglob("*.tmp"))
    )


class TestClaiming:
    def test_double_claim_race_one_winner(self, tmp_path):
        """N simultaneous claimers of one lease: exactly one O_EXCL win."""
        fq.ensure_layout(tmp_path)
        lease = fq.leases_dir(tmp_path) / "unit.lease"
        wins = []
        barrier = threading.Barrier(8)

        def contend(i):
            barrier.wait()
            if fq.try_claim(lease, {"worker": f"w{i}"}):
                wins.append(i)

        threads = [threading.Thread(target=contend, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(wins) == 1
        payload = fq.read_json(lease)
        assert payload == {"worker": f"w{wins[0]}"}

    def test_two_workers_one_queue_entry(self, tmp_path):
        """Worker-level double claim: the loser sees the lease and skips."""
        fq.ensure_layout(tmp_path)
        publish_unit(tmp_path, "u-0", tiny_cfg())
        w1 = make_worker(tmp_path, worker_id="w1")
        w2 = make_worker(tmp_path, worker_id="w2")
        claim1 = w1._claim_next()
        claim2 = w2._claim_next()
        assert claim1 is not None
        assert claim2 is None
        _, body, lease = claim1
        assert body["unit"] == "u-0"
        assert fq.read_json(lease)["worker"] == "w1"

    def test_claim_released_when_unit_retracted(self, tmp_path):
        """Winning the lease of a just-retracted unit releases it again."""
        fq.ensure_layout(tmp_path)
        publish_unit(tmp_path, "u-0", tiny_cfg())
        worker = make_worker(tmp_path, worker_id="w1")
        real_read = fq.read_json
        calls = []

        def racing_read(path):
            # Retract the queue file between the worker's pre-claim read
            # and its post-claim authoritative re-read.
            body = real_read(path)
            calls.append(Path(path).name)
            if len(calls) == 2:
                return None
            return body

        import repro.backends.worker as worker_mod

        try:
            worker_mod.read_json = racing_read
            assert worker._claim_next() is None
        finally:
            worker_mod.read_json = fq.read_json
        assert not list(fq.leases_dir(tmp_path).glob("*.lease"))

    def test_undecodable_lease_does_not_crash_claimer(self, tmp_path):
        """A corrupt lease file is skipped (never decoded) by claimers."""
        fq.ensure_layout(tmp_path)
        publish_unit(tmp_path, "u-0", tiny_cfg())
        (fq.leases_dir(tmp_path) / "u-0.lease").write_bytes(b"\xff\x00garbage")
        worker = make_worker(tmp_path, worker_id="w1")
        assert worker._claim_next() is None  # lease exists -> skip, no raise

    def test_release_lease_respects_ownership(self, tmp_path):
        fq.ensure_layout(tmp_path)
        lease = fq.leases_dir(tmp_path) / "u.lease"
        assert fq.try_claim(lease, {"worker": "other"})
        assert not fq.release_lease(lease, "me")
        assert lease.exists()
        assert fq.release_lease(lease, "other")
        assert not lease.exists()


class TestStaleSweep:
    def test_startup_sweep_clears_stale_keeps_fresh(self, tmp_path):
        fq.ensure_layout(tmp_path)
        old = time.time() - 7200
        stale_lease = fq.leases_dir(tmp_path) / "old.lease"
        stale_lease.write_text(json.dumps({"worker": "dead"}))
        os.utime(stale_lease, (old, old))
        fresh_lease = fq.leases_dir(tmp_path) / "new.lease"
        fresh_lease.write_text(json.dumps({"worker": "alive"}))
        stale_hb = fq.heartbeats_dir(tmp_path) / "dead.json"
        stale_hb.write_text("{}")
        os.utime(stale_hb, (old, old))
        stale_tmp = fq.results_dir(tmp_path) / "orphan.1234.0.tmp"
        stale_tmp.write_text("half-written")
        os.utime(stale_tmp, (old, old))
        bad_lease = fq.leases_dir(tmp_path) / "bad.lease"
        bad_lease.write_bytes(b"\xffnot-json")
        os.utime(bad_lease, (old, old))

        counts = fq.sweep_stale(
            tmp_path, lease_timeout=60.0, heartbeat_timeout=15.0
        )
        assert counts == {"leases": 1, "heartbeats": 1, "tmp": 1, "quarantined": 1}
        assert not stale_lease.exists()
        assert fresh_lease.exists()  # young: may belong to a live campaign
        assert not stale_hb.exists()
        assert not stale_tmp.exists()
        # Undecodable lease is quarantined for inspection, not deleted.
        assert not bad_lease.exists()
        assert list(fq.corrupt_dir(tmp_path).glob("bad.lease.*"))

    def test_young_undecodable_lease_kept(self, tmp_path):
        """A fresh undecodable lease may be a claim mid-write: keep it."""
        fq.ensure_layout(tmp_path)
        bad = fq.leases_dir(tmp_path) / "young.lease"
        bad.write_bytes(b"\xffnot-json")
        counts = fq.sweep_stale(tmp_path)
        assert counts["quarantined"] == 0
        assert bad.exists()


class TestCoordinator:
    def run_backend(self, backend, tasks, **kw):
        stats = ExecutorStats()
        policy = kw.pop("policy", RetryPolicy(max_retries=2, backoff_base=0.01))
        out = {}

        def target():
            out["result"] = backend.run(
                _simulate_point, tasks, policy=policy, stats=stats, **kw
            )

        thread = threading.Thread(target=target)
        thread.start()
        return thread, out, stats

    def test_lease_expiry_mtime_beats_embedded_deadline(self, tmp_path):
        """Clock-skew robustness: a refreshed lease with a *past* embedded
        deadline is kept; only a stale mtime expires a lease."""
        backend = FileQueueBackend(
            tmp_path,
            lease_timeout=1.0,
            heartbeat_timeout=30.0,
            poll_interval=0.05,
            clock_skew=0.25,
            speculate_factor=None,
        )
        cfg = tiny_cfg()
        thread, out, stats = self.run_backend(backend, {("p", 0): (cfg,)})
        try:
            deadline = time.time() + 10.0
            queue_file = None
            while queue_file is None and time.time() < deadline:
                entries = list(fq.queue_dir(tmp_path).glob("*.json"))
                if entries:
                    queue_file = entries[0]
                time.sleep(0.02)
            assert queue_file is not None
            lease = fq.lease_path_for(queue_file)
            # Claim with a deadline hours in the past — a worker whose
            # wall clock is skewed far behind the coordinator's.
            assert fq.try_claim(
                lease, {"worker": "skewed", "deadline": time.time() - 3600}
            )
            # Refresh mtime well past lease_timeout + clock_skew.
            hold_until = time.time() + 2.0
            while time.time() < hold_until:
                os.utime(lease)
                time.sleep(0.1)
            assert stats.timeouts == 0  # never expired while refreshed
            assert fq.read_json(queue_file)["attempt"] == 0
            # Stop refreshing: now the mtime goes stale and the unit is
            # requeued, charged as a lease expiry.
            expire_by = time.time() + 10.0
            while stats.timeouts == 0 and time.time() < expire_by:
                time.sleep(0.05)
            assert stats.timeouts >= 1
            assert stats.retries >= 1
            # A worker picks the republished unit up and finishes.
            worker = make_worker(tmp_path, worker_id="rescuer")
            wt = threading.Thread(target=worker.run)
            wt.start()
            thread.join(timeout=30.0)
            worker.request_stop()
            wt.join(timeout=10.0)
            assert not thread.is_alive()
        finally:
            thread.join(timeout=30.0)
        results, failures = out["result"]
        assert failures == {}
        assert results[("p", 0)] == _simulate_point(cfg)
        assert campaign_leftovers(tmp_path) == []

    def test_speculation_both_copies_finish_first_wins(self, tmp_path, monkeypatch):
        """A straggler gets a speculative duplicate; both finish; payloads
        are identical and the campaign consumes exactly one.

        The order is fixed, not raced: the fleet worker runs one unit at
        a time, and the campaign is held open (the slow unit's
        ``on_result`` waits) until the straggler has published its copy,
        so the straggler's write can never land after the campaign
        cleaned up.  The fast unit holds its lease for several
        coordinator polls: a unit whose claim the coordinator never sees
        records no duration, and without one nothing is speculated."""
        backend = FileQueueBackend(
            tmp_path,
            lease_timeout=60.0,
            heartbeat_timeout=60.0,
            poll_interval=0.05,
            speculate_factor=1.0,
            speculate_min_seconds=0.3,
        )
        cfg_fast = tiny_cfg(rate=0.002, index=0)
        cfg_slow = tiny_cfg(rate=0.01, index=1)
        tasks = {("p", 0): (cfg_fast,), ("p", 1): (cfg_slow,)}
        straggler_done = threading.Event()

        def on_result(key, value, attempts):
            if key == ("p", 1):
                straggler_done.wait(timeout=30.0)

        def held_point(cfg, *args):
            if cfg == cfg_fast:
                time.sleep(10 * backend.poll_interval)
            return _simulate_point(cfg, *args)

        # The worker imports the point function when it runs a unit.
        monkeypatch.setattr(sweep_module, "_simulate_point", held_point)

        def run_worker(units):
            wt = threading.Thread(target=worker.run, kwargs={"max_units": units})
            wt.start()
            wt.join(timeout=30.0)
            assert not wt.is_alive()

        worker = make_worker(tmp_path, worker_id="fleet")
        thread, out, stats = self.run_backend(backend, tasks, on_result=on_result)
        try:
            # Find the slow unit's queue entry and squat on its lease —
            # the straggling original copy.
            deadline = time.time() + 10.0
            slow_qf = None
            while slow_qf is None and time.time() < deadline:
                for qf in fq.queue_dir(tmp_path).glob("*.json"):
                    body = fq.read_json(qf)
                    if body and body["config"]["rate"] == cfg_slow.rate:
                        slow_qf = qf
                time.sleep(0.02)
            assert slow_qf is not None
            uid = fq.read_json(slow_qf)["unit"]
            lease = fq.lease_path_for(slow_qf)
            assert fq.try_claim(lease, {"worker": "straggler", "unit": uid})
            # The fleet worker finishes the fast unit, establishing a
            # duration median.
            run_worker(1)
            # Hold the lease (alive, just slow) until the speculative
            # copy is issued.
            spec_by = time.time() + 20.0
            spec_qf = fq.queue_dir(tmp_path) / f"{uid}.spec.json"
            while not spec_qf.exists() and time.time() < spec_by:
                os.utime(lease)
                time.sleep(0.05)
            assert spec_qf.exists()
            # The fleet worker computes and publishes the speculative
            # copy, which wins.
            run_worker(2)
            # The straggler finally finishes too: identical payload by
            # determinism, atomically renamed over the winner's result
            # or written after it was consumed.
            point = _simulate_point(cfg_slow)
            atomic_write_json(
                fq.results_dir(tmp_path) / f"{uid}.json",
                {
                    "protocol": fq.PROTOCOL_VERSION,
                    "unit": uid,
                    "attempt": 0,
                    "worker": "straggler",
                    "status": "ok",
                    "point": {
                        "rate": point.rate,
                        "latency": point.latency,
                        "saturated": point.saturated,
                    },
                },
            )
            fq.release_lease(lease, "straggler")
        finally:
            straggler_done.set()
            worker.request_stop()
            thread.join(timeout=30.0)
        assert not thread.is_alive()
        results, failures = out["result"]
        assert failures == {}
        # Both copies' payloads are the same deterministic point.
        assert results[("p", 0)] == _simulate_point(cfg_fast)
        assert results[("p", 1)] == _simulate_point(cfg_slow)
        assert stats.submitted == 3  # two units + one speculative copy
        assert stats.completed == 2
        assert stats.retries == 0  # speculation is not a charged attempt
        assert campaign_leftovers(tmp_path) == []


class TestWorkerDrain:
    def test_sigterm_drains_mid_point(self, tmp_path):
        """SIGTERM mid-compute: the worker finishes and publishes the
        current unit, leaves the rest unclaimed, and deregisters."""
        fq.ensure_layout(tmp_path)
        atomic_write_json(
            fq.meta_path(tmp_path),
            {"protocol": fq.PROTOCOL_VERSION, "store": None},
        )
        # First (sorted) unit is slow enough to catch mid-compute.
        publish_unit(
            tmp_path, "u-00", tiny_cfg(rate=0.01, index=0, measure_cycles=150_000)
        )
        for i in range(1, 4):
            publish_unit(tmp_path, f"u-{i:02d}", tiny_cfg(rate=0.002, index=i))
        src_root = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src_root)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "worker",
                str(tmp_path),
                "--id",
                "drainee",
                "--poll",
                "0.05",
                "--heartbeat",
                "0.3",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            lease = fq.leases_dir(tmp_path) / "u-00.lease"
            deadline = time.time() + 30.0
            while not lease.exists() and time.time() < deadline:
                time.sleep(0.005)
            assert lease.exists(), "worker never claimed the slow unit"
            time.sleep(0.05)  # let the compute start (claim->run is <1ms)
            result = fq.results_dir(tmp_path) / "u-00.json"
            assert not result.exists(), "too late: unit already finished"
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=60.0)
        finally:
            if proc.poll() is None:
                proc.kill()
        assert proc.returncode == 0, out
        # The in-flight unit was finished and published, not abandoned.
        payload = fq.read_json(fq.results_dir(tmp_path) / "u-00.json")
        assert payload is not None and payload["status"] == "ok"
        assert payload["worker"] == "drainee"
        # Remaining units left unclaimed for other workers; no leases,
        # no heartbeat (deregistered).
        assert len(list(fq.queue_dir(tmp_path).glob("*.json"))) >= 1
        assert list(fq.leases_dir(tmp_path).glob("*.lease")) == []
        assert list(fq.heartbeats_dir(tmp_path).glob("*.json")) == []
        assert "1 unit(s) completed" in out


class TestEngineIntegration:
    def test_engine_default_backend_is_local(self):
        engine = SweepEngine(jobs=3)
        assert isinstance(engine.backend, LocalPoolBackend)
        assert engine.backend.jobs == 3
        assert engine.backend.name == "local"
        engine = SweepEngine(jobs=1)
        assert isinstance(engine.backend, InlineBackend)
        assert engine.backend.name == "local"

    def test_backend_env_var(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_BACKEND", f"file:{tmp_path}")
        engine = SweepEngine()
        assert isinstance(engine.backend, FileQueueBackend)
        assert engine.backend.root == tmp_path

    def test_resolve_backend_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown sweep backend"):
            resolve_backend("carrier-pigeon")
        with pytest.raises(ValueError, match="file:<campaign-dir>"):
            resolve_backend("file")
        with pytest.raises(ValueError, match="takes no argument"):
            resolve_backend("local:extra")

    def test_file_backend_campaign_matches_local(self, tmp_path, monkeypatch):
        """Engine-level equivalence: file-queue campaign == jobs=1 run."""
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        spec = tiny_panel()
        baseline = SweepEngine(jobs=1, use_cache=False).run_panel(
            spec, simulate=True, **SIM_KWARGS
        )
        campaign = tmp_path / "campaign"
        backend = FileQueueBackend(
            campaign,
            lease_timeout=30.0,
            heartbeat_timeout=30.0,
            poll_interval=0.05,
            speculate_factor=None,
        )
        worker = make_worker(campaign)
        wt = threading.Thread(target=worker.run)
        wt.start()
        try:
            result = SweepEngine(use_cache=False, backend=backend).run_panel(
                spec, simulate=True, **SIM_KWARGS
            )
        finally:
            worker.request_stop()
            wt.join(timeout=30.0)
        assert [
            (p.rate, p.latency, p.saturated) for p in result.simulation.points
        ] == [
            (p.rate, p.latency, p.saturated) for p in baseline.simulation.points
        ]
        assert result.simulation.failures == []
        assert campaign_leftovers(campaign) == []
