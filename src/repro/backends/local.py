"""The in-process backends: a resilient pool, and one point at a time.

:class:`LocalPoolBackend` wraps
:class:`~repro.resilience.ResilientExecutor` *unchanged* — the
``jobs=N`` process pool with per-attempt timeouts, capped-backoff
retries and pool rebuilds.

:class:`InlineBackend` is the ``jobs=1`` case: it runs each unit in
order, in the calling process, under the same contract, so a panel
stops at its first saturated point before the next point starts.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Hashable, Mapping, Optional, Tuple

from repro.backends.base import SweepBackend
from repro.resilience import (
    ExecutorStats,
    ResilientExecutor,
    RetryPolicy,
    TaskFailure,
)

__all__ = ["InlineBackend", "LocalPoolBackend"]


class LocalPoolBackend(SweepBackend):
    """Run work units on a local resilient process pool.

    Parameters
    ----------
    jobs:
        Worker processes of the underlying pool.
    """

    def __init__(self, jobs: int = 1) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = int(jobs)

    def run(
        self,
        fn: Callable,
        tasks: Mapping[Hashable, tuple],
        *,
        policy: RetryPolicy,
        stats: ExecutorStats,
        on_result: Optional[Callable] = None,
        on_retry: Optional[Callable] = None,
    ) -> Tuple[Dict[Hashable, object], Dict[Hashable, TaskFailure]]:
        executor = ResilientExecutor(self.jobs, policy, stats=stats)
        return executor.run(fn, tasks, on_result=on_result, on_retry=on_retry)


class InlineBackend(SweepBackend):
    """Run work units one at a time, in order, in this process.

    A unit's retries run back to back (after the policy's backoff)
    before the next unit starts, and an ``on_result`` drop takes effect
    before the next unit starts.  ``policy.point_timeout`` cannot be
    enforced here — nothing can interrupt a unit running in the calling
    process — so the engine only accepts a timeout on the pool.
    """

    def run(
        self,
        fn: Callable,
        tasks: Mapping[Hashable, tuple],
        *,
        policy: RetryPolicy,
        stats: ExecutorStats,
        on_result: Optional[Callable] = None,
        on_retry: Optional[Callable] = None,
    ) -> Tuple[Dict[Hashable, object], Dict[Hashable, TaskFailure]]:
        results: Dict[Hashable, object] = {}
        failures: Dict[Hashable, TaskFailure] = {}
        dropped: set = set()
        for key, args in tasks.items():
            if key in dropped:
                continue
            for attempt in range(policy.max_retries + 1):
                stats.submitted += 1
                try:
                    value = fn(*args, attempt)
                except Exception as exc:
                    message = f"{type(exc).__name__}: {exc}"
                    if attempt == policy.max_retries:
                        failures[key] = TaskFailure(
                            key=key,
                            kind="exception",
                            attempts=attempt + 1,
                            message=message,
                        )
                        stats.failures += 1
                        break
                    stats.retries += 1
                    if on_retry is not None:
                        on_retry(key, "exception", attempt)
                    time.sleep(policy.backoff(attempt))
                    continue
                results[key] = value
                stats.completed += 1
                if on_result is not None:
                    dropped.update(on_result(key, value, attempt + 1) or ())
                break
        return results, failures
