"""Uniform-traffic baseline model (the ``h = 0`` degenerate case).

Before this paper, analytical models of deterministic wormhole routing in
k-ary n-cubes assumed a uniform traffic distribution (the paper cites
Dally [4] and Draper & Ghosh [6] among others).  This module implements
that baseline with the same modelling machinery — M/G/1 blocking at every
channel, Dally VC multiplexing, M/G/1 source queue — for an
``n``-dimensional unidirectional k-ary n-cube.

Two uses:

* a correctness cross-check: at ``h = 0`` the hot-spot model of
  :class:`~repro.core.model.HotSpotLatencyModel` must coincide with this
  baseline for ``n = 2`` (tested in ``tests/test_model.py``);
* the "what did hot-spots change" comparisons in the examples and
  ablation benchmarks.

Like the hot-spot model, it evaluates every load through one batched
fixed-point solve (:meth:`UniformLatencyModel.evaluate_batch`); the
per-dimension Python loops it replaced are the reference oracle of
``tests/test_model_kernel_equivalence.py``.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

import numpy as np

from repro.core.fixed_point import (
    FixedPointSolver,
    batch_start,
    solve_batch_with_fallback,
)
from repro.core.results import ModelResult, SweepPoint, SweepResult
from repro.queueing.blocking import blocking_delay_raw
from repro.queueing.mg1 import mg1_waiting_time
from repro.queueing.vc_multiplexing import multiplexing_degree

__all__ = ["UniformLatencyModel"]


class UniformLatencyModel:
    """Mean-latency model for uniform traffic in a k-ary n-cube.

    Messages cross dimensions in increasing order; by symmetry every
    channel of dimension ``i`` carries rate ``lam_r = lam * (k-1)/2``
    (eq 3 with ``h = 0``).  The per-dimension entrance service times
    ``S_i`` obey

        S_{n-1,j} = j (1 + B_{n-1}) + Lm
        S_{i,j}   = j (1 + B_i) + P(later dims used | reached) * ...

    Following the 2-D hot-spot model's structure, a message entering
    dimension ``i`` either terminates there or chains into the entrance
    service time of the next *used* dimension; with uniform traffic each
    later dimension is skipped with probability ``1/k``.  The same
    ``trip_averaging`` switch as the hot-spot model selects entrance
    values or trip-length-averaged values.
    """

    def __init__(
        self,
        k: int,
        n: int,
        message_length: int,
        num_vcs: int = 2,
        *,
        trip_averaging: bool = True,
        blocking_service: "BlockingServicePolicy | str" = "transmission",
        solver: Optional[FixedPointSolver] = None,
    ) -> None:
        if k < 3:
            raise ValueError(f"radix must be >= 3, got {k}")
        if n < 1:
            raise ValueError(f"dimensions must be >= 1, got {n}")
        if message_length < 1:
            raise ValueError(f"message length must be >= 1, got {message_length}")
        if num_vcs < 2:
            raise ValueError(f"need >= 2 virtual channels, got {num_vcs}")
        self.k = int(k)
        self.n = int(n)
        self.num_nodes = self.k**self.n
        self.message_length = int(message_length)
        self.num_vcs = int(num_vcs)
        self.trip_averaging = bool(trip_averaging)
        from repro.core.model import BlockingServicePolicy

        if isinstance(blocking_service, str):
            blocking_service = BlockingServicePolicy(blocking_service)
        self.blocking_service = blocking_service
        # Cached policy decision: the fixed-point hot loop branches on it.
        self.blocking_service_is_transmission = (
            blocking_service is BlockingServicePolicy.TRANSMISSION
        )
        self.solver = solver or FixedPointSolver(
            tol=1e-10, max_iterations=5_000, damping=0.5
        )

    @property
    def regular_rate_factor(self) -> float:
        """Channel rate per unit generation rate: ``(k-1)/2``."""
        return (self.k - 1) / 2.0

    def _competing_service_batch(self, entries: np.ndarray):
        """Service time charged to competing traffic per the policy.

        Under uniform traffic there is a single class, so HOLDING and
        ENTRANCE coincide on the ``(P, n)`` entrance values;
        TRANSMISSION charges the bandwidth occupancy ``Lm + 1``.
        """
        if self.blocking_service_is_transmission:
            return float(self.message_length + 1)
        return entries

    def _profiles_batch(
        self, b: np.ndarray
    ) -> tuple:
        """Per-dimension class latencies and entrance times for a batch.

        ``b`` is the ``(P, n)`` per-dimension blocking grid.  Walks the
        dimensions from the last (terminates at the PE) backwards, with
        every point of the batch advanced per numpy step.  Returns
        ``(entrances (P, n), class_latencies (P, n))``.
        """
        k, lm, n = self.k, self.message_length, self.n
        n_points = b.shape[0]
        j = np.arange(1, k + 1, dtype=float)[None, :]
        p_use = (k - 1.0) / k
        entrances = np.empty((n_points, n))
        class_lat = np.empty((n_points, n))
        next_entry: "np.ndarray | None" = None
        for i in reversed(range(n)):
            if next_entry is None:
                tail = np.full(n_points, float(lm))
            else:
                # A message that continues past dimension i uses each
                # later dimension with probability (k-1)/k; the expected
                # continuation mixes draining (Lm) and the next
                # dimension's entrance time.
                tail = p_use * next_entry + (1.0 - p_use) * lm
            prof = j * (1.0 + b[:, i])[:, None] + tail[:, None]
            entrances[:, i] = prof[:, -1]
            if self.trip_averaging:
                class_lat[:, i] = np.mean(prof[:, : k - 1], axis=1)
            else:
                class_lat[:, i] = prof[:, -1]
            next_entry = class_lat[:, i]
        return entrances, class_lat

    def _entrance_times_batch(
        self, lam_r: np.ndarray, states: np.ndarray
    ) -> np.ndarray:
        """One update of the per-dimension entrance service times.

        Row ``states[p, i]`` is the previous iterate of dimension i's
        entrance service time (used as the competing traffic's service
        time in the blocking term of dimension i).  Saturated rows carry
        ``inf`` (the infinite blocking delay propagates through the
        backward chain); the batched solver retires them.
        """
        entrances, _ = self._profiles_batch(self._blocking_batch(lam_r, states))
        return entrances

    def _blocking_batch(self, lam_r: np.ndarray, states: np.ndarray) -> np.ndarray:
        """Per-dimension blocking delays, shape ``(P, n)``.

        Under TRANSMISSION the competing service time is a constant, so
        the elementwise result is broadcast back to the full grid.
        """
        comp = self._competing_service_batch(states)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            b = blocking_delay_raw(
                lam_r[:, None], 0.0, comp, 0.0, self.message_length
            )
        return np.broadcast_to(b, (lam_r.size, self.n))

    def evaluate_batch(
        self,
        rates: "Sequence[float] | np.ndarray",
        *,
        initials: Optional[Sequence[Optional[np.ndarray]]] = None,
        chain: bool = True,
        wave: int = 4,
    ) -> List[ModelResult]:
        """Evaluate many offered loads in one batched fixed-point solve.

        Same contract as
        :meth:`repro.core.model.HotSpotLatencyModel.evaluate_batch`:
        per-point convergence/saturation masking, warm-start chaining
        along the (assumed ordered) rate axis, and a cold-start retry
        for any warm-seeded point that fails.  Zero-rate points always
        use the exact zero-load state, and ``chain=True`` replaces
        caller initials past the first wave — pass ``chain=False`` when
        the initials should drive the solve.
        """
        k, lm, vcs = self.k, self.message_length, self.num_vcs
        cold = np.full(self.n, float(k + lm))
        rates_arr, states0, warm = batch_start(rates, initials, cold)
        n_points = rates_arr.size

        lam_r = rates_arr * self.regular_rate_factor
        solve_rows = np.flatnonzero(rates_arr > 0.0)
        iterations = np.zeros(n_points, dtype=np.int64)
        converged = np.ones(n_points, dtype=bool)
        final_states = states0.copy()

        if solve_rows.size:
            def update(sub: np.ndarray, idx: np.ndarray) -> np.ndarray:
                return self._entrance_times_batch(lam_r[solve_rows[idx]], sub)

            ok, states, iters = solve_batch_with_fallback(
                self.solver,
                update,
                states0[solve_rows],
                warm[solve_rows],
                cold,
                chain=chain,
                wave=wave,
            )
            iterations[solve_rows] = iters
            converged[solve_rows] = ok
            final_states[solve_rows] = states

        results: List[Optional[ModelResult]] = [None] * n_points
        agg_rows = np.flatnonzero(converged)
        if agg_rows.size:
            entries = final_states[agg_rows]
            _, class_lat = self._profiles_batch(
                self._blocking_batch(lam_r[agg_rows], entries)
            )
            # Network latency: a message enters at its first non-matching
            # dimension, with weight (1/k)^i (1 - 1/k), normalised.
            p_skip = 1.0 / k
            weights = (p_skip ** np.arange(self.n)) * (1.0 - p_skip)
            network = class_lat @ weights / weights.sum()
            # V-bar uses the unchained single-dimension entrance time (the
            # last dimension's entry, k(1+B)+Lm) — the convention the 2-D
            # hot-spot model inherits from the paper's eqs 36-37.
            v_bar = multiplexing_degree(
                lam_r[agg_rows], entries[:, -1], vcs
            )
            ws = mg1_waiting_time(rates_arr[agg_rows] / vcs, network, lm)
            if self.blocking_service_is_transmission:
                util = lam_r[agg_rows] * (lm + 1.0)
            else:
                util = lam_r[agg_rows] * np.max(entries, axis=1)
            with np.errstate(invalid="ignore"):
                latency = (network + ws) * v_bar
            for row_pos, row in enumerate(agg_rows):
                if not math.isfinite(float(np.asarray(ws)[row_pos])):
                    results[row] = ModelResult(
                        rate=float(rates_arr[row]),
                        latency=math.inf,
                        saturated=True,
                        iterations=int(iterations[row]),
                    )
                    continue
                vb = float(np.asarray(v_bar)[row_pos])
                results[row] = ModelResult(
                    rate=float(rates_arr[row]),
                    latency=float(latency[row_pos]),
                    saturated=False,
                    iterations=int(iterations[row]),
                    mean_multiplexing_x=vb,
                    mean_multiplexing_hot_ring=vb,
                    mean_multiplexing_nonhot_ring=vb,
                    max_utilization=float(util[row_pos]),
                    fixed_point_state=entries[row_pos].copy(),
                )
        for p in np.flatnonzero(~converged):
            results[p] = ModelResult(
                rate=float(rates_arr[p]),
                latency=math.inf,
                saturated=True,
                iterations=int(iterations[p]),
            )
        return results  # type: ignore[return-value]

    def evaluate(
        self, rate: float, *, initial: Optional[np.ndarray] = None
    ) -> ModelResult:
        """Mean message latency at per-node rate ``rate`` (uniform traffic).

        ``initial`` warm-starts the fixed-point solve from a previous
        result's ``fixed_point_state`` (same contract as
        :meth:`repro.core.model.HotSpotLatencyModel.evaluate`): a
        non-converging warm start falls back to the cold start, so a
        warm start can only improve convergence — it never reports
        saturated a load the cold solve resolves, though it may resolve
        a borderline load whose cold solve only ran out of budget.
        """
        return self.evaluate_batch(
            [rate],
            initials=None if initial is None else [initial],
            chain=False,
        )[0]

    def saturation_rate(
        self, lo: float = 0.0, hi: float = 0.1, tol: float = 1e-9
    ) -> float:
        """Smallest rate at which the model saturates.

        Batched bracketing (a probe grid per round as one solve); see
        :func:`repro.core.model.batched_saturation_search`.
        """
        from repro.core.model import batched_saturation_search

        return batched_saturation_search(self, lo, hi, tol)

    def sweep(
        self, rates, label: str = "uniform-model", *, warm_start: bool = True
    ) -> SweepResult:
        """Evaluate over a rate grid as one batched solve, chaining warm
        starts along the rate axis unless ``warm_start`` is false."""
        out = SweepResult(label=label)
        for res in self.evaluate_batch(rates, chain=warm_start):
            out.points.append(
                SweepPoint(
                    rate=res.rate,
                    latency=res.latency,
                    saturated=res.saturated,
                    iterations=res.iterations,
                )
            )
        return out
