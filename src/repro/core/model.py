"""The paper's analytical hot-spot latency model (eqs 1-37).

:class:`HotSpotLatencyModel` predicts the mean message latency of a
``k x k`` unidirectional torus with deterministic (x-then-y) wormhole
routing, ``V`` virtual channels per physical channel, fixed ``Lm``-flit
messages, Poisson sources of rate ``lambda`` messages/cycle per node and
Pfister–Norton hot-spot traffic with fraction ``h``.

Solution structure
------------------
The model variables — the dimension-entrance service times of the three
regular path families and the position-dependent hot-spot service times
— are mutually dependent through the blocking delays (eqs 16-20, 23, 25
all contain ``B(...)`` terms that reference the entrance service times).
They are resolved by damped fixed-point iteration
(:class:`~repro.core.fixed_point.FixedPointSolver`), after which the
latency aggregation (eqs 10-15, 21-24, 31-32, 36-37) is evaluated once.

The ``trip_averaging`` switch selects between averaging the
per-position recurrence values over the true uniform trip-length
distribution (the default — consistent with the paper's plotted
light-load agreement with simulation) and the literal text's reading
where every message of a class is charged the *entrance* service time
``S_{.,k}`` of the full k-channel ring pipeline (see DESIGN.md §4).
Both variants use the same fixed point; only the aggregation differs.

Array-native evaluation
-----------------------
The per-iteration blocking grids, service-time recurrences and the
latency aggregation are whole-grid numpy expressions, and
:meth:`HotSpotLatencyModel.evaluate_batch` solves *many* offered loads
in one batched fixed-point sweep
(:meth:`~repro.core.fixed_point.FixedPointSolver.solve_batch`) with
per-point convergence/saturation masking and warm-start chaining along
the rate axis — a whole figure panel is one solve.  ``evaluate``,
``sweep`` and ``saturation_rate`` all run through it.  The original
per-channel Python loops are the reference oracle of
``tests/test_model_kernel_equivalence.py``, which pins this code
against them.
"""

from __future__ import annotations

import enum
import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.equations import (
    PathProbabilities,
    hot_x_service_profile,
    hot_y_service_profile,
    regular_service_profile,
)
from repro.core.fixed_point import (
    FixedPointSolver,
    batch_start,
    solve_batch_with_fallback,
)
from repro.core.results import LatencyBreakdown, ModelResult, SweepPoint, SweepResult
from repro.queueing.blocking import blocking_delay_raw
from repro.queueing.mg1 import mg1_waiting_time
from repro.queueing.vc_multiplexing import multiplexing_degree

__all__ = [
    "HotSpotLatencyModel",
    "BlockingServicePolicy",
    "batched_saturation_search",
]


def batched_saturation_search(model, lo: float, hi: float, tol: float, probes: int = 12) -> float:
    """Bracketing search for the smallest saturated rate, in batches.

    Each round evaluates ``probes`` interior rates of the current
    bracket as one ``evaluate_batch`` call and narrows the bracket to
    the first saturated probe, shrinking it ``probes + 1``-fold — the
    multi-point form of bisection, with its contract: returns the
    saturated end of a final bracket no wider than
    ``tol * max(1, hi)``.
    """
    if not model.evaluate(hi).saturated:
        raise ValueError(f"upper bound {hi} does not saturate the model")
    lo_rate, hi_rate = lo, hi
    while hi_rate - lo_rate > tol * max(1.0, hi_rate):
        grid = np.linspace(lo_rate, hi_rate, probes + 2)[1:-1]
        flags = [r.saturated for r in model.evaluate_batch(grid, chain=False)]
        first = next((i for i, s in enumerate(flags) if s), None)
        if first is None:
            lo_rate = float(grid[-1])
        else:
            hi_rate = float(grid[first])
            if first > 0:
                lo_rate = float(grid[first - 1])
    return hi_rate


class BlockingServicePolicy(enum.Enum):
    """Which service time a channel's *competing* traffic is charged in
    the blocking terms (eqs 26-30).

    The paper's prose charges each class "the mean service time expected"
    at the channel, but reading that as the full recurrence value
    ``S_{.,j}`` (own blocking delay included) makes the fixed point
    diverge at roughly half the load the paper's own validation figures
    reach — the blocking delay then feeds its own utilisation.  The three
    defensible readings, ordered by where they place saturation:

    ``TRANSMISSION`` (default)
        Each message occupies the channel's *bandwidth* for its
        transmission time ``Lm + 1`` (header + body at one flit/cycle).
        A worm stalled downstream holds a virtual channel but leaves the
        physical bandwidth to other VCs, so this is the physically
        correct stability boundary: channels saturate when the flit
        throughput demand reaches one — which is exactly where the
        paper's figures saturate (e.g. ``lam*h*k(k-1)*Lm ~ 1``).
    ``HOLDING``
        Each message occupies the channel from header acquisition until
        its tail crosses: ``1 + S_{.,j-1}`` (downstream delays included,
        own acquisition wait excluded).  Captures virtual-channel
        exhaustion ("tree saturation"), so it saturates earlier —
        a conservative bound.
    ``ENTRANCE``
        The literal recurrence values (own blocking included) —
        reproduced for completeness and for the ablation benchmark; the
        self-reference makes this the most pessimistic reading.
    """

    TRANSMISSION = "transmission"
    HOLDING = "holding"
    ENTRANCE = "entrance"


class HotSpotLatencyModel:
    """Mean-latency model for hot-spot traffic in a 2-D unidirectional torus.

    Parameters
    ----------
    k:
        Radix; the network is the ``k x k`` torus with ``N = k**2`` nodes
        (the paper validates with ``k = 16``).
    message_length:
        Message length ``Lm`` in flits (one flit crosses one channel per
        cycle).
    hotspot_fraction:
        Pfister–Norton hot-spot probability ``h``.
    num_vcs:
        Virtual channels per physical channel, ``V >= 2`` (deadlock
        freedom on the torus requires at least two; assumption vi).
    trip_averaging:
        ``True`` (default): class latencies average the service-time
        recurrence over the uniform trip-length distribution — the
        reading consistent with the paper's plotted light-load agreement
        with simulation.  ``False``: the literal text's dimension-
        entrance value ``S_{.,k}`` (a constant ~``k - k̄`` overestimate;
        kept for the ablation benchmark).
    solver:
        Optional custom fixed-point solver.

    Examples
    --------
    >>> model = HotSpotLatencyModel(k=16, message_length=32,
    ...                             hotspot_fraction=0.2)
    >>> r = model.evaluate(0.0003)
    >>> r.saturated
    False
    >>> r.latency > 32
    True
    """

    def __init__(
        self,
        k: int,
        message_length: int,
        hotspot_fraction: float,
        num_vcs: int = 2,
        *,
        trip_averaging: bool = True,
        blocking_service: BlockingServicePolicy | str = BlockingServicePolicy.TRANSMISSION,
        solver: Optional[FixedPointSolver] = None,
    ) -> None:
        if k < 3:
            raise ValueError(f"radix must be >= 3 for the 2-D model, got {k}")
        if message_length < 1:
            raise ValueError(f"message length must be >= 1, got {message_length}")
        if not 0.0 <= hotspot_fraction < 1.0:
            raise ValueError(
                f"hot-spot fraction must be in [0, 1), got {hotspot_fraction}"
            )
        if num_vcs < 2:
            raise ValueError(
                f"deadlock freedom on the torus needs >= 2 VCs, got {num_vcs}"
            )
        self.k = int(k)
        self.n = 2
        self.num_nodes = self.k**2
        self.message_length = int(message_length)
        self.h = float(hotspot_fraction)
        self.num_vcs = int(num_vcs)
        self.trip_averaging = bool(trip_averaging)
        if isinstance(blocking_service, str):
            blocking_service = BlockingServicePolicy(blocking_service)
        self.blocking_service = blocking_service
        self.solver = solver or FixedPointSolver(
            tol=1e-10, max_iterations=5_000, damping=0.5
        )
        self.probabilities = PathProbabilities(k=self.k)
        # Constant competing services of the TRANSMISSION policy in the
        # packed channel layout of the batched update, shared by every
        # update: [hybar | hy positions 1..k | x grid (k, k) row-major].
        # Position k carries no hot traffic.
        tx = float(self.message_length + 1)
        comp_y = np.full(self.k, tx)
        comp_y[self.k - 1] = 0.0
        comp_x = np.full((self.k, self.k), tx)
        comp_x[self.k - 1, :] = 0.0
        self._tx_comp_packed = np.concatenate([[0.0], comp_y, comp_x.ravel()])

    # ------------------------------------------------------------------
    # Fixed point: whole-grid equations over a (points, ...) batch
    # ------------------------------------------------------------------
    def _zero_load_state(self) -> np.ndarray:
        k, lm = self.k, self.message_length
        entry = regular_service_profile(k, 0.0, lm)[-1]
        hot_y = hot_y_service_profile(k, np.zeros(k - 1), lm)
        hot_x = hot_x_service_profile(k, np.zeros((k - 1, k)), hot_y, lm)
        return np.concatenate([[entry, entry, entry], hot_y, hot_x.ravel()])

    def _batch_rates(
        self, rates: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-point channel rates (eqs 3, 6, 7) for a rate batch.

        Returns ``(lam_r (P,), hot_x (P, k), hot_y (P, k))`` — the same
        values (to the bit) as :class:`~repro.traffic.rates.HotSpotRates`
        produces per point.
        """
        k, h = self.k, self.h
        j = np.arange(1, k + 1, dtype=float)
        lam_r = rates * (1.0 - h) * ((k - 1) / 2.0)
        scale = (self.num_nodes * rates * h)[:, None]
        hot_x = scale * ((k - j) / self.num_nodes)[None, :]
        hot_y = scale * (k * (k - j) / self.num_nodes)[None, :]
        return lam_r, hot_x, hot_y

    @staticmethod
    def _unpack_batch(
        states: np.ndarray, k: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Views ``(s_x, s_hy, s_hybar, s_hot_y, s_hot_x)`` of a batch.

        Each state row is ``[S_x, S_hy, S_hybar | S^h_y | S^h_x]``: the
        entrance service times of the three regular path families, then
        the hot profile of the hot y-ring (``k - 1`` values, index
        ``j - 1``) and of the x-rings (``(k - 1, k)`` row-major, index
        ``(j - 1, t - 1)``).
        """
        n_points = states.shape[0]
        return (
            states[:, 0],
            states[:, 1],
            states[:, 2],
            states[:, 3 : 3 + (k - 1)],
            states[:, 3 + (k - 1) :].reshape(n_points, k - 1, k),
        )

    def _hot_holding_times_batch(
        self, s_hot_y: np.ndarray, s_hot_x: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Channel-holding times of hot-spot messages (see DESIGN.md §4).

        A message holds a channel from header acquisition until its tail
        crosses: the holding time is its remaining service *after*
        acquiring the channel, ``S_{.,j} - B_j = 1 + S_{.,j-1}`` — the
        wait to acquire the channel itself is spent upstream and must not
        be charged to this channel's utilisation.  Feeding the full
        ``S_{.,j}`` (own blocking included) into eq (27) instead creates
        a self-referential blow-up that saturates the model at roughly
        half the load the paper's own figures reach, so the holding time
        is the reconstruction consistent with the published curves.

        Returns hold times of shapes ``(P, k)`` and ``(P, k, k)``, padded
        to position ``k`` (rate there is zero).
        """
        k, lm = self.k, self.message_length
        n_points = s_hot_y.shape[0]
        hold_y = np.empty((n_points, k))
        hold_y[:, 0] = 1.0 + lm
        hold_y[:, 1 : k - 1] = 1.0 + s_hot_y[:, : k - 2]
        hold_y[:, k - 1] = 0.0  # position k carries no hot traffic
        hold_x = np.empty((n_points, k, k))
        hold_x[:, 0, : k - 1] = 1.0 + s_hot_y  # chain into y at distance t
        hold_x[:, 0, k - 1] = 1.0 + lm  # hot row: delivers
        hold_x[:, 1 : k - 1, :] = 1.0 + s_hot_x[:, : k - 2, :]
        hold_x[:, k - 1, :] = 0.0
        return hold_y, hold_x

    def _packed_gam(self, hot_x_rates: np.ndarray, hot_y_rates: np.ndarray) -> np.ndarray:
        """Competing (hot) rates in the packed channel layout, per point.

        Layout ``[hybar | hy 1..k | x (ring, position) row-major]`` —
        one column per channel family position, so a single elementwise
        :func:`blocking_delay_raw` call covers every blocking term of an
        update.  Rate-dependent only, so computed once per solve.
        """
        n_points = hot_x_rates.shape[0]
        return np.concatenate(
            [
                np.zeros((n_points, 1)),
                hot_y_rates,
                np.repeat(hot_x_rates, self.k, axis=1),
            ],
            axis=1,
        )

    def _packed_competing_services(
        self, states: np.ndarray, holding: Optional[Tuple[np.ndarray, np.ndarray]] = None
    ) -> Tuple:
        """Service times charged to competing traffic in blocking terms.

        Per :class:`BlockingServicePolicy`: ``TRANSMISSION`` charges
        every class its transmission time ``Lm + 1``; ``HOLDING``
        charges the regular classes their entrance values and the hot
        classes their holding times (:meth:`_hot_holding_times_batch`);
        ``ENTRANCE`` charges every class its literal recurrence value.
        Position ``k`` carries no hot traffic and is charged nothing.

        Returns ``(s_lam, s_gam)`` broadcastable against the packed
        ``(P, 1 + k + k^2)`` channel grid — the single batched
        representation of the per-policy competing services, shared by
        the update loop and the aggregation.  ``holding`` passes
        already-computed ``(hold_y, hold_x)`` grids so callers that need
        them anyway (the aggregation) don't build them twice.
        """
        k = self.k
        if self.blocking_service is BlockingServicePolicy.TRANSMISSION:
            return float(self.message_length + 1), self._tx_comp_packed
        n_points = states.shape[0]
        s_x, s_hy, s_hybar, s_hot_y, s_hot_x = self._unpack_batch(states, k)
        if self.blocking_service is BlockingServicePolicy.HOLDING:
            hold_y, hold_x = (
                holding
                if holding is not None
                else self._hot_holding_times_batch(s_hot_y, s_hot_x)
            )
            comp = np.concatenate(
                [np.zeros((n_points, 1)), hold_y, hold_x.reshape(n_points, -1)],
                axis=1,
            )
        else:  # ENTRANCE: the literal recurrence values.
            comp = np.zeros((n_points, 1 + k + k * k))
            comp[:, 1:k] = s_hot_y
            comp[:, 1 + k :] = np.concatenate(
                [s_hot_x, np.zeros((n_points, 1, k))], axis=1
            ).reshape(n_points, -1)
        s_lam = np.concatenate(
            [
                s_hybar[:, None],
                np.broadcast_to(s_hy[:, None], (n_points, k)),
                np.broadcast_to(s_x[:, None], (n_points, k * k)),
            ],
            axis=1,
        )
        return s_lam, comp

    def _update_batch(
        self,
        states: np.ndarray,
        lam_r: np.ndarray,
        gam_all: np.ndarray,
    ) -> np.ndarray:
        """One fixed-point step for every row of a batch.

        All blocking terms of an update — eqs 16-20, 23 and 25 across
        every channel family and position — evaluate as *one*
        elementwise :func:`blocking_delay_raw` call on the packed
        ``(P, 1 + k + k^2)`` channel grid (``gam_all`` from
        :meth:`_packed_gam`).  Saturated rows carry ``inf`` entries (an
        infinite blocking delay propagates through every sum), which
        the batched solver retires — no separate finiteness pass is
        needed because no operation here can turn ``inf`` into ``nan``.
        """
        k, lm = self.k, self.message_length
        n_points = states.shape[0]
        s_lam, s_gam = self._packed_competing_services(states)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            b_all = blocking_delay_raw(lam_r[:, None], gam_all, s_lam, s_gam, lm)
        b_hy_terms = b_all[:, 1 : 1 + k]
        b_x_flat = b_all[:, 1 + k :]
        b_hybar = b_all[:, 0]
        b_hy = b_hy_terms.mean(axis=1)
        b_x = b_x_flat.mean(axis=1)

        # Eqs (23) and (25): the position-dependent blocking of the hot
        # classes at positions 1..k-1 coincides with the per-position
        # regular terms (same rates, same competing services), so the
        # grids are slices (the test oracle recomputes them per channel).
        b_hot_y = b_hy_terms[:, : k - 1]
        b_hot_x = b_x_flat.reshape(n_points, k, k)[:, : k - 1, :]

        out = np.empty((n_points, states.shape[1]))
        # Entrance values S_{.,k} = k (1 + B) + Lm of the regular classes.
        out[:, 0] = k * (1.0 + b_x) + lm
        out[:, 1] = k * (1.0 + b_hy) + lm
        out[:, 2] = k * (1.0 + b_hybar) + lm
        # Position-dependent recurrences (eqs 23, 25) as cumulative sums:
        # S_j = sum_{i<=j} (1 + B_i) + tail.
        new_hot_y = np.cumsum(1.0 + b_hot_y, axis=1) + lm
        out[:, 3 : 3 + (k - 1)] = new_hot_y
        tail = np.empty((n_points, k))
        tail[:, : k - 1] = new_hot_y
        tail[:, k - 1] = lm
        new_hot_x = np.cumsum(1.0 + b_hot_x, axis=1) + tail[:, None, :]
        out[:, 3 + (k - 1) :] = new_hot_x.reshape(n_points, -1)
        return out

    def _channel_multiplexing_batch(
        self, lam, gam, s_lam, s_gam
    ) -> np.ndarray:
        """V̄ at channels shared by the two classes (text above eq 36).

        Elementwise over broadcast grids; a channel with no traffic has
        ``V̄ = 1``.
        """
        total = np.asarray(lam + gam)
        with np.errstate(divide="ignore", invalid="ignore"):
            s_bar = (lam * s_lam + gam * s_gam) / np.where(total == 0.0, 1.0, total)
        degree = multiplexing_degree(total, s_bar, self.num_vcs)
        return np.where(total == 0.0, 1.0, degree)

    def _aggregate_batch(
        self,
        rates: np.ndarray,
        lam_r: np.ndarray,
        hot_x_rates: np.ndarray,
        hot_y_rates: np.ndarray,
        gam_all: np.ndarray,
        states: np.ndarray,
        iterations: np.ndarray,
    ) -> List[ModelResult]:
        """Batched latency aggregation (eqs 10-15, 21-24, 31-37).

        ``states`` rows must be converged fixed points; rows whose
        source-queue waits diverge still come back saturated.  The
        converged blocking delays are
        recomputed once on the same packed channel grid the update loop
        uses (the state stores only entrance values for the regular
        classes).
        """
        k, lm, h, vcs = self.k, self.message_length, self.h, self.num_vcs
        n_points = states.shape[0]
        probs = self.probabilities
        s_x, s_hy, s_hybar, s_hot_y, s_hot_x = self._unpack_batch(states, k)

        hold_y, hold_x = self._hot_holding_times_batch(s_hot_y, s_hot_x)
        s_lam_packed, comp_packed = self._packed_competing_services(
            states, holding=(hold_y, hold_x)
        )
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            b_all = blocking_delay_raw(
                lam_r[:, None], gam_all, s_lam_packed, comp_packed, lm
            )
        b_hybar = b_all[:, 0]
        b_hy = b_all[:, 1 : 1 + k].mean(axis=1)
        b_x = b_all[:, 1 + k :].mean(axis=1)

        # Full regular service profiles S_{.,1..k} and class latencies.
        j = np.arange(1, k + 1, dtype=float)[None, :]
        prof_x = j * (1.0 + b_x)[:, None] + lm
        prof_hy = j * (1.0 + b_hy)[:, None] + lm
        prof_hybar = j * (1.0 + b_hybar)[:, None] + lm
        s_hy_latency = self._class_latency_batch(prof_hy)
        s_hybar_latency = self._class_latency_batch(prof_hybar)
        prof_xhy = j * (1.0 + b_x)[:, None] + s_hy_latency[:, None]
        prof_xhybar = j * (1.0 + b_x)[:, None] + s_hybar_latency[:, None]
        s_x_latency = self._class_latency_batch(prof_x)
        s_xhy_latency = self._class_latency_batch(prof_xhy)
        s_xhybar_latency = self._class_latency_batch(prof_xhybar)

        # Eq (15) and eq (31).
        t_x = probs.p_enter_x * (
            probs.p_x_only_given_x * s_x_latency
            + probs.p_x_to_hot_given_x * s_xhy_latency
            + probs.p_x_to_nonhot_given_x * s_xhybar_latency
        )
        s_r_network = (
            t_x
            + probs.p_hot_y_only * s_hy_latency
            + probs.p_nonhot_y_only * s_hybar_latency
        )

        # Virtual-channel multiplexing (eqs 33-37).
        v_hybar = multiplexing_degree(lam_r, s_hybar, vcs)
        v_hy_pos = self._channel_multiplexing_batch(
            lam_r[:, None], hot_y_rates, s_hy[:, None], hold_y
        )
        v_hy = np.mean(v_hy_pos, axis=1)  # eq (36)
        v_x_grid = self._channel_multiplexing_batch(
            lam_r[:, None, None],
            hot_x_rates[:, :, None],
            s_x[:, None, None],
            hold_x,
        )
        v_x = np.mean(v_x_grid, axis=(1, 2))  # eq (37)

        # Source queue waiting times (eq 32) via the vectorized M/G/1.
        lam_vc = rates / vcs
        wait_hot_node = mg1_waiting_time(lam_vc, s_r_network, lm)
        wait_hot_ring = mg1_waiting_time(
            lam_vc[:, None], (1.0 - h) * s_r_network[:, None] + h * s_hot_y, lm
        )
        wait_x = mg1_waiting_time(
            lam_vc[:, None, None],
            (1.0 - h) * s_r_network[:, None, None] + h * s_hot_x,
            lm,
        )
        wait_all = np.concatenate(
            [
                np.asarray(wait_hot_node).reshape(n_points, 1),
                wait_hot_ring,
                wait_x.reshape(n_points, -1),
            ],
            axis=1,
        )
        ws_r = np.mean(wait_all, axis=1)
        sat = ~np.isfinite(ws_r)

        with np.errstate(invalid="ignore"):
            # Regular latency (eqs 11-15).
            reg_hot_ring = probs.p_hot_y_only * (s_hy_latency + ws_r) * v_hy
            reg_nonhot_ring = (
                probs.p_nonhot_y_only * (s_hybar_latency + ws_r) * v_hybar
            )
            reg_enter_x = (t_x + probs.p_enter_x * ws_r) * v_x
            s_r = reg_hot_ring + reg_nonhot_ring + reg_enter_x

            # Hot-spot latency (eqs 21-24).
            denom = self.num_nodes - 1
            s_h_y = (
                np.sum((s_hot_y + wait_hot_ring) * v_hy_pos[:, : k - 1], axis=1)
                / denom
            )
            s_h_x = (
                np.sum(
                    (s_hot_x + wait_x) * v_x_grid[:, : k - 1, :], axis=(1, 2)
                )
                / denom
            )
            latency = (1.0 - h) * s_r + h * (s_h_y + s_h_x)  # eq (10)

        # Largest channel utilisation of the converged solution — the
        # packed grid's per-channel occupancy maximised per point.
        util = np.max(
            lam_r[:, None] * np.asarray(s_lam_packed, dtype=float)
            + gam_all * comp_packed,
            axis=1,
        )

        results: List[ModelResult] = []
        for p in range(n_points):
            if sat[p]:
                results.append(
                    ModelResult(
                        rate=float(rates[p]),
                        latency=math.inf,
                        saturated=True,
                        iterations=int(iterations[p]),
                    )
                )
                continue
            breakdown = LatencyBreakdown(
                regular_hot_ring=float(reg_hot_ring[p]),
                regular_nonhot_ring=float(reg_nonhot_ring[p]),
                regular_enter_x=float(reg_enter_x[p]),
                hot_from_hot_ring=float(s_h_y[p]),
                hot_from_x=float(s_h_x[p]),
                regular_source_wait=float(ws_r[p]),
                regular_network_latency=float(s_r_network[p]),
            )
            results.append(
                ModelResult(
                    rate=float(rates[p]),
                    latency=float(latency[p]),
                    saturated=False,
                    iterations=int(iterations[p]),
                    breakdown=breakdown,
                    mean_multiplexing_x=float(v_x[p]),
                    mean_multiplexing_hot_ring=float(v_hy[p]),
                    mean_multiplexing_nonhot_ring=float(v_hybar[p]),
                    max_utilization=float(util[p]),
                    fixed_point_state=states[p].copy(),
                )
            )
        return results

    def _class_latency_batch(self, profiles: np.ndarray) -> np.ndarray:
        """Latency charged to a class from its ``(P, k)`` service profiles.

        Literal mode: the entrance value ``S_{.,k}``.  Averaged mode: the
        mean over the uniform 1..k-1 trip-length distribution.
        """
        if self.trip_averaging:
            return np.mean(profiles[:, : self.k - 1], axis=1)
        return profiles[:, -1]

    def evaluate_batch(
        self,
        rates: "Sequence[float] | np.ndarray",
        *,
        initials: Optional[Sequence[Optional[np.ndarray]]] = None,
        chain: bool = True,
        wave: int = 4,
    ) -> List[ModelResult]:
        """Evaluate many offered loads in one batched fixed-point solve.

        The workhorse behind :meth:`evaluate`, :meth:`sweep` and
        :meth:`saturation_rate`: all points iterate simultaneously as a
        2-D ``(points, variables)`` state with per-point
        convergence/saturation masking; ``chain`` adds warm-start
        chaining along the (assumed ordered) rate axis in waves of
        ``wave`` points.  Any warm-seeded point that fails is re-solved
        from the cold zero-load start, so no load a cold evaluation
        resolves is ever reported saturated.

        ``initials`` optionally warm-starts individual points (entries
        may be ``None``); zero-rate points always use the exact
        zero-load state.  Note that ``chain=True``
        re-seeds every row past the first wave from converged
        neighbours, replacing caller-supplied initials there — pass
        ``chain=False`` (as :meth:`evaluate` does) when the initials
        themselves should drive the solve.  Results come back in input
        order.
        """
        cold = self._zero_load_state()
        rates_arr, states0, warm = batch_start(rates, initials, cold)
        n_points = rates_arr.size

        lam_r, hot_x, hot_y = self._batch_rates(rates_arr)
        gam_all = self._packed_gam(hot_x, hot_y)
        solve_rows = np.flatnonzero(rates_arr > 0.0)
        iterations = np.zeros(n_points, dtype=np.int64)
        converged = np.ones(n_points, dtype=bool)
        final_states = states0.copy()

        if solve_rows.size:
            def update(sub: np.ndarray, idx: np.ndarray) -> np.ndarray:
                rows = solve_rows[idx]
                return self._update_batch(sub, lam_r[rows], gam_all[rows])

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
            aggregated = self._aggregate_batch(
                rates_arr[agg_rows],
                lam_r[agg_rows],
                hot_x[agg_rows],
                hot_y[agg_rows],
                gam_all[agg_rows],
                final_states[agg_rows],
                iterations[agg_rows],
            )
            for row, result in zip(agg_rows, aggregated):
                results[row] = result
        for p in np.flatnonzero(~converged):
            results[p] = ModelResult(
                rate=float(rates_arr[p]),
                latency=math.inf,
                saturated=True,
                iterations=int(iterations[p]),
            )
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Evaluation, sweeps and saturation
    # ------------------------------------------------------------------
    def evaluate(
        self, rate: float, *, initial: Optional[np.ndarray] = None
    ) -> ModelResult:
        """Mean message latency at per-node generation rate ``rate``.

        Returns a saturated :class:`ModelResult` (``latency = inf``) when
        the offered load has no steady state under the model.

        ``initial`` warm-starts the fixed-point solve — pass the
        ``fixed_point_state`` of a previous result at a nearby rate to
        converge in a handful of iterations instead of hundreds.  A warm
        start can only improve convergence: if the warm-started solve
        fails, the evaluation falls back to the cold zero-load start, so
        no load a cold evaluation resolves is ever reported saturated.
        The one asymmetry is the borderline load whose cold solve
        exhausts the iteration budget: a warm start may legitimately
        converge there (the fixed point exists — the cold "saturated"
        verdict was a budget artefact).
        """
        return self.evaluate_batch(
            [rate],
            initials=None if initial is None else [initial],
            chain=False,
        )[0]

    def sweep(
        self,
        rates: "np.ndarray | list[float]",
        label: str = "model",
        *,
        warm_start: bool = True,
    ) -> SweepResult:
        """Evaluate the model over a grid of per-node rates.

        The whole grid is *one* batched fixed-point solve.  With
        ``warm_start`` (the default) it chains warm starts along the
        rate axis — adjacent grid rates have nearby fixed points, so the
        total iteration count of a figure sweep drops severalfold while
        every point converges (to solver tolerance) on the same fixed
        point as a cold solve.
        """
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

    def saturation_rate(
        self, lo: float = 0.0, hi: float = 1.0, tol: float = 1e-9
    ) -> float:
        """Smallest rate at which the model saturates (bracketing search).

        ``hi`` must saturate; the default upper bound of 1 message/cycle
        per node saturates any realistic configuration.  Each round
        evaluates a whole probe grid inside the bracket as one batched
        solve (:func:`batched_saturation_search`), shrinking the bracket
        ~13x per round, and the saturated end of the final bracket is
        returned.
        """
        return batched_saturation_search(self, lo, hi, tol)
