"""Fault-tolerant execution primitives for long sweep campaigns.

The sweep engine fans thousands of simulation points out over a
:class:`~concurrent.futures.ProcessPoolExecutor`; at atlas scale a
campaign *will* see worker death, hangs and interrupted runs.  This
module is the resilience layer underneath
:class:`~repro.experiments.sweep.SweepEngine`:

:class:`RetryPolicy`
    Per-point wall-clock timeout plus capped exponential backoff
    retries.  Retries are deterministic by construction: a retried
    point re-runs the *same* configuration (including its SHA-256
    per-point seed), so a campaign that suffered faults produces
    bit-identical points to a fault-free run.

:class:`ResilientExecutor`
    A windowed wrapper around ``ProcessPoolExecutor`` that survives
    worker crashes (``BrokenProcessPool`` rebuilds the pool and resubmits
    only the unfinished tasks), enforces per-attempt timeouts (a hung
    worker is terminated and its pool rebuilt), retries failed attempts
    under the policy, and converts terminal failures into structured
    :class:`TaskFailure` records instead of propagating — one bad point
    never discards a panel's completed points.

:class:`CheckpointJournal`
    An append-only JSONL journal of per-point status (done / failed /
    retried, config hash, failure taxonomy) written next to the sweep
    cache.  An interrupted campaign resumed from its journal skips every
    checkpointed point — even with the result cache disabled.

Everything here is dependency-free (stdlib only) so it can be imported
from any layer, including pool workers.
"""

from __future__ import annotations

import json
import os
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING
from typing import Callable, Dict, Hashable, List, Mapping, Optional, Tuple

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

__all__ = [
    "CheckpointJournal",
    "ExecutorStats",
    "PointFailure",
    "ResilientExecutor",
    "RetryPolicy",
    "TaskFailure",
]

#: Failure taxonomy recorded on :class:`TaskFailure` / :class:`PointFailure`
#: and in the checkpoint journal.  ``lease-expired`` and ``worker-dead``
#: are charged by the distributed file-queue backend when orphaned work
#: is requeued (see :mod:`repro.backends.filequeue`).
FAILURE_KINDS = (
    "timeout",
    "worker-crash",
    "exception",
    "lease-expired",
    "worker-dead",
)


@dataclass(frozen=True)
class RetryPolicy:
    """Retry/timeout/backoff parameters for one campaign.

    Attributes
    ----------
    max_retries:
        Extra attempts after the first (``0`` disables retries).
    point_timeout:
        Wall-clock seconds allowed per attempt, measured from
        submission to a worker; ``None`` disables the deadline.  A
        timed-out attempt's worker is presumed hung and terminated.
    backoff_base / backoff_cap:
        Attempt ``n`` (0-based) sleeps ``min(cap, base * 2**n)`` seconds
        before its retry — capped exponential, jitter-free by default so
        campaign wall-clock is reproducible.
    jitter:
        When enabled, :meth:`backoff` draws a decorrelated delay
        uniformly from ``[base, min(cap, 3 × plain))`` instead of the
        fixed exponential — this de-synchronises resubmission when many
        distributed workers requeue leases after a mass expiry
        (thundering herd).  Off by default: deterministic chaos replay
        depends on jitter-free backoff.
    """

    max_retries: int = 2
    point_timeout: Optional[float] = None
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    jitter: bool = False

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.point_timeout is not None and self.point_timeout <= 0:
            raise ValueError(
                f"point_timeout must be positive, got {self.point_timeout}"
            )
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ValueError("backoff parameters must be non-negative")

    def backoff(self, attempt: int) -> float:
        """Delay before retry ``attempt`` (0-based).

        Deterministic capped exponential by default; with
        ``jitter=True``, a decorrelated draw from ``[base, min(cap,
        3 × plain))`` so simultaneous requeuers spread out.
        """
        plain = min(self.backoff_cap, self.backoff_base * (2.0 ** attempt))
        if not self.jitter:
            return plain
        import random

        high = min(self.backoff_cap, 3.0 * plain)
        if high <= self.backoff_base:
            return plain
        return random.uniform(self.backoff_base, high)


@dataclass
class ExecutorStats:
    """Counters accumulated by a campaign (exposed on ``SweepEngine.stats``)."""

    submitted: int = 0
    completed: int = 0
    retries: int = 0
    timeouts: int = 0
    pool_rebuilds: int = 0
    failures: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "pool_rebuilds": self.pool_rebuilds,
            "failures": self.failures,
        }

    @property
    def eventful(self) -> bool:
        """Anything worth reporting happened (retry/timeout/rebuild/failure)."""
        return bool(
            self.retries or self.timeouts or self.pool_rebuilds or self.failures
        )


@dataclass(frozen=True)
class TaskFailure:
    """Terminal failure of one executor task (all attempts exhausted)."""

    key: Hashable
    kind: str  # one of FAILURE_KINDS
    attempts: int
    message: str = ""


@dataclass(frozen=True)
class PointFailure:
    """Terminal failure of one sweep point, attached to ``SweepResult``.

    ``kind`` is the failure taxonomy (:data:`FAILURE_KINDS`): ``timeout``
    (every attempt exceeded the per-point deadline), ``worker-crash``
    (the point was in flight each time its pool died) or ``exception``
    (the point itself raised).  ``attempts`` counts attempts charged to
    the point, including ones where it was merely a crash victim.
    """

    panel: str
    index: int
    rate: float
    kind: str
    attempts: int
    message: str = ""


class ResilientExecutor:
    """Process-pool runner that survives crashes, hangs and exceptions.

    Tasks are submitted in a sliding window of at most ``jobs`` in-flight
    futures (so per-attempt deadlines measure actual execution, not queue
    time).  The pool is rebuilt whenever it breaks (a worker died) or an
    attempt exceeds ``policy.point_timeout`` (the hung worker is
    terminated); unfinished tasks are resubmitted, completed results are
    never recomputed.  A worker crash cannot be attributed to a single
    task, so every in-flight task is charged an attempt; innocent
    victims of a *timeout* rebuild are resubmitted free of charge.
    """

    def __init__(
        self,
        jobs: int,
        policy: Optional[RetryPolicy] = None,
        *,
        stats: Optional[ExecutorStats] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = int(jobs)
        self.policy = policy if policy is not None else RetryPolicy()
        self.stats = stats if stats is not None else ExecutorStats()

    # ------------------------------------------------------------------
    def _new_pool(self) -> ProcessPoolExecutor:
        # Imported here: only the pool needs concurrent.futures, and its
        # process module pulls in multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor(max_workers=self.jobs)

    @staticmethod
    def _terminate_workers(pool: ProcessPoolExecutor) -> None:
        procs = getattr(pool, "_processes", None) or {}
        for proc in list(procs.values()):
            try:
                proc.terminate()
            except Exception:  # already dead / not startable
                pass

    def _abandon_pool(self, pool: ProcessPoolExecutor) -> ProcessPoolExecutor:
        """Kill a broken/hung pool's workers and hand back a fresh pool."""
        self.stats.pool_rebuilds += 1
        self._terminate_workers(pool)
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass
        return self._new_pool()

    # ------------------------------------------------------------------
    def run(
        self,
        fn: Callable,
        tasks: Mapping[Hashable, tuple],
        *,
        on_result: Optional[Callable] = None,
        on_retry: Optional[Callable] = None,
    ) -> Tuple[Dict[Hashable, object], Dict[Hashable, TaskFailure]]:
        """Run every task to completion or terminal failure.

        Parameters
        ----------
        fn:
            Picklable callable, invoked in a worker as
            ``fn(*tasks[key], attempt)`` — the 0-based attempt number is
            appended so deterministic fault injection can key on it.
        tasks:
            Ordered mapping ``key -> args tuple``.
        on_result:
            ``on_result(key, value, attempts)`` called as soon as each
            task completes (checkpoint/cache as you go).  It may return
            an iterable of keys to *drop*: dropped tasks are removed
            from the queue, never retried, and their eventual results
            ignored — how the sweep engine cancels points past a
            panel's first saturated rate.
        on_retry:
            ``on_retry(key, kind, attempt)`` called for every
            non-terminal failed attempt (``kind`` from
            :data:`FAILURE_KINDS`).

        Returns
        -------
        ``(results, failures)`` keyed like ``tasks``.  Every non-dropped
        key appears in exactly one of the two mappings.
        """
        from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, wait

        results: Dict[Hashable, object] = {}
        failures: Dict[Hashable, TaskFailure] = {}
        queue = deque(tasks)
        attempts: Dict[Hashable, int] = {k: 0 for k in tasks}
        dropped: set = set()
        in_flight: Dict[object, Hashable] = {}
        deadlines: Dict[object, float] = {}
        pool = self._new_pool()
        rebuild_round = 0  # consecutive rebuilds, for the backoff delay

        def fail_or_requeue(key: Hashable, kind: str, message: str) -> bool:
            """Charge an attempt; terminal-fail or requeue.  True if terminal."""
            attempts[key] += 1
            if attempts[key] > self.policy.max_retries:
                failures[key] = TaskFailure(
                    key=key, kind=kind, attempts=attempts[key], message=message
                )
                self.stats.failures += 1
                return True
            self.stats.retries += 1
            if on_retry is not None:
                on_retry(key, kind, attempts[key] - 1)
            queue.append(key)
            return False

        def handle_success(key: Hashable, value: object) -> None:
            nonlocal rebuild_round
            rebuild_round = 0
            results[key] = value
            self.stats.completed += 1
            if on_result is not None:
                drops = on_result(key, value, attempts[key] + 1)
                if drops:
                    dropped.update(drops)

        try:
            while True:
                pending_live = any(k not in dropped for k in queue) or any(
                    k not in dropped for k in in_flight.values()
                )
                if not pending_live:
                    break

                # Top up the in-flight window.
                while queue and len(in_flight) < self.jobs:
                    key = queue.popleft()
                    if key in dropped:
                        continue
                    try:
                        future = pool.submit(fn, *tasks[key], attempts[key])
                    except (BrokenExecutor, RuntimeError):
                        # Pool died between completions: put the task back
                        # and fall through to the broken-pool handling.
                        queue.appendleft(key)
                        pool = self._on_pool_broken(
                            pool, in_flight, deadlines, queue, fail_or_requeue
                        )
                        rebuild_round += 1
                        time.sleep(self.policy.backoff(rebuild_round - 1))
                        continue
                    self.stats.submitted += 1
                    in_flight[future] = key
                    if self.policy.point_timeout is not None:
                        deadlines[future] = (
                            time.monotonic() + self.policy.point_timeout
                        )
                if not in_flight:
                    continue

                timeout = None
                if deadlines:
                    timeout = max(0.0, min(deadlines.values()) - time.monotonic())
                done, _ = wait(
                    list(in_flight), timeout=timeout, return_when=FIRST_COMPLETED
                )

                broken = False
                for future in done:
                    key = in_flight.pop(future)
                    deadlines.pop(future, None)
                    try:
                        value = future.result()
                    except BrokenExecutor:
                        broken = True
                        if key not in dropped:
                            fail_or_requeue(
                                key, "worker-crash", "process pool broke"
                            )
                        continue
                    except BaseException as exc:  # noqa: BLE001 — taxonomy'd below
                        if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                            raise
                        if key not in dropped:
                            terminal = fail_or_requeue(
                                key,
                                "exception",
                                f"{type(exc).__name__}: {exc}",
                            )
                            if not terminal:
                                time.sleep(
                                    self.policy.backoff(attempts[key] - 1)
                                )
                        continue
                    if key not in dropped:
                        handle_success(key, value)

                if broken:
                    pool = self._on_pool_broken(
                        pool, in_flight, deadlines, queue, fail_or_requeue
                    )
                    rebuild_round += 1
                    time.sleep(self.policy.backoff(rebuild_round - 1))
                    continue

                # Deadline sweep: any still-running future past its
                # deadline marks a hung worker.  Futures of running tasks
                # cannot be cancelled, so the pool is abandoned: hung
                # workers are terminated, innocent in-flight tasks are
                # resubmitted without being charged an attempt.
                if deadlines:
                    now = time.monotonic()
                    timed_out = [
                        f for f, d in deadlines.items() if d <= now and not f.done()
                    ]
                    if timed_out:
                        for future in timed_out:
                            key = in_flight.pop(future)
                            deadlines.pop(future, None)
                            self.stats.timeouts += 1
                            if key not in dropped:
                                fail_or_requeue(
                                    key,
                                    "timeout",
                                    f"attempt exceeded "
                                    f"{self.policy.point_timeout:g}s",
                                )
                        for future, key in list(in_flight.items()):
                            if key not in dropped:
                                queue.appendleft(key)
                        in_flight.clear()
                        deadlines.clear()
                        pool = self._abandon_pool(pool)
        finally:
            if in_flight:
                self._terminate_workers(pool)
                pool.shutdown(wait=False, cancel_futures=True)
            else:
                pool.shutdown(wait=True)
        return results, failures

    def _on_pool_broken(
        self,
        pool: ProcessPoolExecutor,
        in_flight: Dict[object, Hashable],
        deadlines: Dict[object, float],
        queue: deque,
        fail_or_requeue: Callable[[Hashable, str, str], bool],
    ) -> ProcessPoolExecutor:
        """Account every in-flight task of a broken pool and rebuild it.

        A crashed worker takes the whole ``ProcessPoolExecutor`` down and
        the culprit cannot be identified, so every in-flight task is
        charged one attempt (tasks that persistently crash their worker
        exhaust their budget and surface as ``worker-crash`` failures).
        """
        for future, key in list(in_flight.items()):
            fail_or_requeue(key, "worker-crash", "process pool broke")
        in_flight.clear()
        deadlines.clear()
        return self._abandon_pool(pool)


# ----------------------------------------------------------------------
# Checkpoint journal
# ----------------------------------------------------------------------

#: Bump when the journal line format changes incompatibly.
JOURNAL_VERSION = 1


class CheckpointJournal:
    """Append-only JSONL journal of a sweep campaign's per-point status.

    One file per campaign (named after the campaign hash), living next
    to the sweep cache.  The first line is a campaign header; every
    later line is an event: ``point`` (status ``done`` with the result
    payload, or ``failed`` with the failure taxonomy) or ``retry``.
    Lines are flushed as written, so a crashed campaign leaves at worst
    one truncated trailing line — :meth:`load` skips undecodable lines.
    """

    def __init__(self, path: "Path | str") -> None:
        self.path = Path(path)
        self._fh = None

    # -- reading -------------------------------------------------------
    @staticmethod
    def load(path: "Path | str") -> Tuple[Optional[dict], List[dict]]:
        """``(header, entries)`` of an existing journal.

        Undecodable lines (e.g. a truncated final line from an
        interrupted writer) are skipped; a missing file yields
        ``(None, [])``.
        """
        header: Optional[dict] = None
        entries: List[dict] = []
        try:
            raw = Path(path).read_text()
        except OSError:
            return None, []
        for line in raw.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except ValueError:
                continue
            if not isinstance(entry, dict):
                continue
            if entry.get("event") == "campaign" and header is None:
                header = entry
            else:
                entries.append(entry)
        return header, entries

    # -- writing -------------------------------------------------------
    def start(self, header: dict, *, fresh: bool) -> None:
        """Open for writing; truncate and write ``header`` when ``fresh``."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "w" if fresh else "a")
        if fresh:
            self.record(header)

    def record(self, entry: dict) -> None:
        if self._fh is None:
            raise RuntimeError("journal is not open (call start() first)")
        self._fh.write(json.dumps(entry, sort_keys=True) + "\n")
        self._fh.flush()
        try:
            os.fsync(self._fh.fileno())
        except OSError:
            pass

    def close(self) -> None:
        if self._fh is not None:
            try:
                self._fh.close()
            finally:
                self._fh = None
