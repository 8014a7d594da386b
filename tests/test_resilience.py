"""Tests for the resilience layer (repro.resilience).

The executor guarantees under test:

* transient exceptions are retried under the policy and succeed without
  losing other tasks' results;
* a worker crash (``BrokenProcessPool``) rebuilds the pool, resubmits
  unfinished tasks, and never recomputes completed ones;
* a hung task is killed at ``point_timeout`` and retried on a fresh
  pool; innocent in-flight tasks are requeued without an attempt charge;
* exhausted retry budgets become structured :class:`TaskFailure` records
  instead of propagating;
* ``on_result`` fires per completion and can drop queued tasks.

The cases that do not need a pool (success, retry, terminal failure,
drops, shared stats) also run on ``run_inline``, the in-process runner
the sweep engine uses at ``jobs=1``, through the same contract.

The journal guarantees: per-line durability, truncated trailing lines
skipped on load (and ended before a resumed writer appends), header
recovery.
"""

import json
import os
import time

import pytest

from repro.resilience import (
    CheckpointJournal,
    ExecutorStats,
    ResilientExecutor,
    RetryPolicy,
    TaskFailure,
    run_inline,
)

# Fast backoff so retry-heavy tests stay quick.
FAST = dict(backoff_base=0.001, backoff_cap=0.01)


# Worker functions must be module-level (pickled by reference into the
# pool; visible in forked workers).
def _ok(x, attempt):
    return (x, attempt)


def _fail_then_ok(x, attempt):
    if attempt == 0:
        raise ValueError(f"transient failure on {x}")
    return x * 10


def _always_fail(x, attempt):
    raise RuntimeError(f"permanent failure on {x}")


def _crash_then_ok(x, attempt):
    if attempt == 0:
        os._exit(1)  # hard worker death -> BrokenProcessPool in the parent
    return x + 100


def _hang_then_ok(x, attempt):
    if attempt == 0:
        time.sleep(60.0)
    return x + 1000


def _slow_ok(x, attempt):
    time.sleep(0.1)
    return x


class TestRetryPolicy:
    def test_backoff_capped_exponential(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_cap=0.5)
        assert policy.backoff(0) == pytest.approx(0.1)
        assert policy.backoff(1) == pytest.approx(0.2)
        assert policy.backoff(2) == pytest.approx(0.4)
        assert policy.backoff(3) == pytest.approx(0.5)  # capped
        assert policy.backoff(10) == pytest.approx(0.5)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(max_retries=-1),
            dict(point_timeout=0.0),
            dict(point_timeout=-1.0),
            dict(backoff_base=-0.1),
            dict(backoff_cap=-1.0),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)


class RunnerContract:
    """Cases both task runners pass.

    A subclass names the runner under test with ``make_runner(jobs)``,
    a callable ``run(fn, tasks, *, policy, stats, on_result=None,
    on_retry=None)``.
    """

    @staticmethod
    def make_runner(jobs):
        raise NotImplementedError

    def test_all_success(self):
        stats = ExecutorStats()
        results, failures = self.make_runner(2)(
            _ok, {i: (i,) for i in range(5)},
            policy=RetryPolicy(**FAST), stats=stats,
        )
        assert failures == {}
        assert results == {i: (i, 0) for i in range(5)}
        assert stats.completed == 5
        assert stats.submitted == 5
        assert not stats.eventful

    def test_transient_exception_retried(self):
        stats = ExecutorStats()
        retried = []
        results, failures = self.make_runner(2)(
            _fail_then_ok,
            {i: (i,) for i in range(3)},
            policy=RetryPolicy(max_retries=2, **FAST),
            stats=stats,
            on_retry=lambda key, kind, attempt: retried.append(
                (key, kind, attempt)
            ),
        )
        assert failures == {}
        assert results == {i: i * 10 for i in range(3)}
        assert stats.retries == 3
        assert sorted(retried) == [(i, "exception", 0) for i in range(3)]

    def test_terminal_exception_becomes_failure_record(self):
        stats = ExecutorStats()
        results, failures = self.make_runner(1)(
            _always_fail, {0: (0,), 1: (1,)},
            policy=RetryPolicy(max_retries=1, **FAST), stats=stats,
        )
        assert results == {}
        assert set(failures) == {0, 1}
        for key, failure in failures.items():
            assert isinstance(failure, TaskFailure)
            assert failure.kind == "exception"
            assert failure.attempts == 2  # first try + one retry
            assert "permanent failure" in failure.message
        assert stats.failures == 2

    def test_on_result_streams_and_drops(self):
        # jobs=1 runs tasks in order; completing task 0 drops 2..4.
        seen = []

        def on_result(key, value, attempts):
            seen.append((key, value, attempts))
            if key == 0:
                return [2, 3, 4]
            return None

        results, failures = self.make_runner(1)(
            _ok, {i: (i,) for i in range(5)},
            policy=RetryPolicy(**FAST), stats=ExecutorStats(),
            on_result=on_result,
        )
        assert failures == {}
        assert set(results) == {0, 1}
        assert [s[0] for s in seen] == [0, 1]
        assert all(attempts == 1 for _, _, attempts in seen)

    def test_shared_stats_accumulate(self):
        stats = ExecutorStats()
        for key in (0, 1):
            self.make_runner(1)(
                _ok, {key: (key,)}, policy=RetryPolicy(**FAST), stats=stats
            )
        assert stats.completed == 2
        assert stats.as_dict()["completed"] == 2


class TestInlineBackend(RunnerContract):
    """The contract on ``run_inline``, one task at a time in this process."""

    @staticmethod
    def make_runner(jobs):
        return run_inline


class TestResilientExecutor(RunnerContract):
    """The contract on the process pool, plus the pool-only crash, hang
    and timeout cases."""

    @staticmethod
    def make_runner(jobs):
        def run(fn, tasks, *, policy, stats, **callbacks):
            executor = ResilientExecutor(jobs, policy, stats=stats)
            return executor.run(fn, tasks, **callbacks)

        return run

    def test_worker_crash_rebuilds_pool_and_retries(self):
        ex = ResilientExecutor(1, RetryPolicy(max_retries=3, **FAST))
        results, failures = ex.run(_crash_then_ok, {7: (7,)})
        assert failures == {}
        assert results == {7: 107}
        assert ex.stats.pool_rebuilds >= 1

    def test_crash_does_not_lose_completed_results(self):
        # Task 0 completes before task 1 crashes its worker; the rebuild
        # must keep 0's result and only re-run 1.
        ex = ResilientExecutor(1, RetryPolicy(max_retries=3, **FAST))
        results, failures = ex.run(_mixed_crash, {0: (0,), 1: (1,)})
        assert failures == {}
        assert results == {0: 0, 1: 101}

    def test_hung_task_times_out_and_retries(self):
        ex = ResilientExecutor(
            1, RetryPolicy(max_retries=2, point_timeout=0.5, **FAST)
        )
        t0 = time.monotonic()
        results, failures = ex.run(_hang_then_ok, {3: (3,)})
        elapsed = time.monotonic() - t0
        assert failures == {}
        assert results == {3: 1003}
        assert ex.stats.timeouts == 1
        assert ex.stats.pool_rebuilds >= 1
        assert elapsed < 30.0  # the 60s hang was actually killed

    def test_timeout_exhaustion_is_terminal(self):
        ex = ResilientExecutor(
            1, RetryPolicy(max_retries=0, point_timeout=0.3, **FAST)
        )
        results, failures = ex.run(_always_hang, {0: (0,)})
        assert results == {}
        assert failures[0].kind == "timeout"
        assert failures[0].attempts == 1

    def test_jobs_validated(self):
        with pytest.raises(ValueError, match="jobs"):
            ResilientExecutor(0)


def _mixed_crash(x, attempt):
    if x == 1 and attempt == 0:
        time.sleep(0.2)  # let task 0 finish first under jobs=1
        os._exit(1)
    return x + 100 if x == 1 else x


def _always_hang(x, attempt):
    time.sleep(60.0)
    return x


class TestCheckpointJournal:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "j" / "camp.jsonl"
        journal = CheckpointJournal(path)
        journal.start({"event": "campaign", "campaign": "abc"}, fresh=True)
        journal.record({"event": "point", "index": 0, "latency": 1.5})
        journal.record({"event": "point", "index": 1, "latency": float("inf")})
        journal.close()
        header, entries = CheckpointJournal.load(path)
        assert header == {"event": "campaign", "campaign": "abc"}
        assert len(entries) == 2
        assert entries[1]["latency"] == float("inf")

    def test_truncated_trailing_line_skipped(self, tmp_path):
        path = tmp_path / "camp.jsonl"
        journal = CheckpointJournal(path)
        journal.start({"event": "campaign"}, fresh=True)
        journal.record({"event": "point", "index": 0})
        journal.close()
        with open(path, "a") as fh:
            fh.write('{"event": "point", "ind')  # interrupted writer
        header, entries = CheckpointJournal.load(path)
        assert header == {"event": "campaign"}
        assert entries == [{"event": "point", "index": 0}]

    def test_missing_file(self, tmp_path):
        header, entries = CheckpointJournal.load(tmp_path / "nope.jsonl")
        assert header is None
        assert entries == []

    def test_append_after_torn_line_keeps_every_record(self, tmp_path):
        # A resumed writer appends after the torn line an interrupted one
        # left: its first record must still load.
        path = tmp_path / "camp.jsonl"
        journal = CheckpointJournal(path)
        journal.start({"event": "campaign"}, fresh=True)
        journal.record({"event": "point", "index": 0})
        journal.close()
        with open(path, "a") as fh:
            fh.write('{"event": "point", "ind')  # interrupted writer
        journal = CheckpointJournal(path)
        journal.start({"event": "campaign"}, fresh=False)
        journal.record({"event": "point", "index": 1})
        journal.record({"event": "point", "index": 2})
        journal.close()
        _, entries = CheckpointJournal.load(path)
        assert [e["index"] for e in entries] == [0, 1, 2]

    def test_append_mode_preserves_existing_lines(self, tmp_path):
        path = tmp_path / "camp.jsonl"
        j1 = CheckpointJournal(path)
        j1.start({"event": "campaign"}, fresh=True)
        j1.record({"event": "point", "index": 0})
        j1.close()
        j2 = CheckpointJournal(path)
        j2.start({"event": "campaign"}, fresh=False)
        j2.record({"event": "point", "index": 1})
        j2.close()
        _, entries = CheckpointJournal.load(path)
        assert [e["index"] for e in entries] == [0, 1]

    def test_fresh_truncates(self, tmp_path):
        path = tmp_path / "camp.jsonl"
        for _ in range(2):
            journal = CheckpointJournal(path)
            journal.start({"event": "campaign"}, fresh=True)
            journal.record({"event": "point", "index": 0})
            journal.close()
        _, entries = CheckpointJournal.load(path)
        assert len(entries) == 1

    def test_record_requires_start(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "camp.jsonl")
        with pytest.raises(RuntimeError, match="not open"):
            journal.record({"event": "point"})
