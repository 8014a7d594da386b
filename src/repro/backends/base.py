"""The sweep-backend interface.

A :class:`SweepBackend` is the execution substrate of one sweep
campaign: the :class:`~repro.experiments.sweep.SweepEngine` hands it an
ordered mapping of *work units* (one simulation point each) and two
streaming callbacks, and the backend runs every unit to completion or
terminal failure: one at a time in the calling process
(:class:`~repro.backends.local.InlineBackend`) or on a local process
pool (:class:`~repro.backends.local.LocalPoolBackend`).

The contract is exactly the one
:meth:`repro.resilience.ResilientExecutor.run` established — the local
pool backend *is* that executor, and the in-process backend must be
indistinguishable from it result-wise:

* retried units re-run identical configurations, so results are
  bit-identical to a fault-free run on any backend;
* ``on_result`` streams each completion (the engine checkpoints and
  caches there) and may return keys to *drop* (cancel);
* terminal failures surface as :class:`~repro.resilience.TaskFailure`
  records, never exceptions — one bad unit cannot discard a campaign.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Dict, Hashable, Mapping, Optional, Tuple

from repro.resilience import ExecutorStats, RetryPolicy, TaskFailure

__all__ = ["SweepBackend"]


class SweepBackend(ABC):
    """Executes one campaign's work units under a retry policy."""

    @abstractmethod
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
        """Run every task to completion or terminal failure.

        Parameters mirror :meth:`repro.resilience.ResilientExecutor.run`:
        ``fn(*tasks[key], attempt)`` is the unit of work, ``on_result``
        streams completions (and may return keys to drop), ``on_retry``
        observes every charged non-terminal failure, ``policy`` budgets
        retries/timeouts and ``stats`` accumulates counters.

        Returns ``(results, failures)`` keyed like ``tasks``; every
        non-dropped key appears in exactly one of the two mappings.
        """
