"""Equivalence: the array-native model kernel vs the per-channel oracle.

The oracle below is the model's original per-channel-loop
implementation, kept here as the reference the array-native code in
:mod:`repro.core.model` and :mod:`repro.core.uniform` is compared
against.  It reads its parameters from the model instance it is given
and shares none of the batched code: channel rates come from
:class:`~repro.traffic.rates.HotSpotRates`, every blocking term is its
own :func:`~repro.queueing.blocking.blocking_delay` call, and the fixed
point is solved one load at a time with ``model.solver.solve``.

The array-native kernel is only allowed to be *faster* than the oracle,
never different: over radix ``k``, message length ``Lm``, VC count
``V``, hot-spot fraction ``h``, blocking policy and offered load, both
must report the same saturation classification (bit-identical booleans)
and latencies that agree to far below any physically meaningful
tolerance — the only permitted divergence is floating-point summation
order (loop-carried adds vs ``cumsum``/axis reductions), which the
converged fixed point damps to ~1e-9 relative.

A hypothesis property sweeps random configurations; pinned example
matrices keep the (k, Lm, V, h) coverage even on --hypothesis-seed
reruns.  Batched sweeps (warm-start chaining on) and the multi-probe
saturation search are pinned against the oracle's sequential sweep and
bisection too, since those paths rewire the solve structure, not just
the arithmetic.
"""

import math
import time
from typing import NamedTuple, Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.equations import (
    PathProbabilities,
    chained_service_profile,
    hot_x_service_profile,
    hot_y_service_profile,
    regular_service_profile,
)
from repro.core.fixed_point import FixedPointStatus
from repro.core.model import BlockingServicePolicy, HotSpotLatencyModel
from repro.core.results import LatencyBreakdown, ModelResult, SweepPoint, SweepResult
from repro.core.uniform import UniformLatencyModel
from repro.queueing.blocking import BlockingInputs, blocking_delay
from repro.queueing.mg1 import mg1_waiting_time
from repro.queueing.vc_multiplexing import multiplexing_degree
from repro.traffic.rates import HotSpotRates

REL_TOL = 1e-7


# ----------------------------------------------------------------------
# Oracle: the hot-spot model, one channel at a time
# ----------------------------------------------------------------------
class _View(NamedTuple):
    """Typed view over the flat fixed-point state vector."""

    s_x_entry: float
    s_hy_entry: float
    s_hybar_entry: float
    s_hot_y: np.ndarray  # shape (k-1,), index j-1
    s_hot_x: np.ndarray  # shape (k-1, k), index (j-1, t-1)


def _unpack(state: np.ndarray, k: int) -> _View:
    return _View(
        s_x_entry=float(state[0]),
        s_hy_entry=float(state[1]),
        s_hybar_entry=float(state[2]),
        s_hot_y=state[3 : 3 + (k - 1)],
        s_hot_x=state[3 + (k - 1) :].reshape(k - 1, k),
    )


def _pack(s_x_entry, s_hy_entry, s_hybar_entry, s_hot_y, s_hot_x) -> np.ndarray:
    return np.concatenate(
        [
            np.array([s_x_entry, s_hy_entry, s_hybar_entry]),
            np.asarray(s_hot_y, dtype=float).ravel(),
            np.asarray(s_hot_x, dtype=float).ravel(),
        ]
    )


def _zero_load_state(model) -> np.ndarray:
    k, lm = model.k, model.message_length
    prof = regular_service_profile(k, 0.0, lm)
    hot_y = hot_y_service_profile(k, np.zeros(k - 1), lm)
    hot_x = hot_x_service_profile(k, np.zeros((k - 1, k)), hot_y, lm)
    return _pack(prof[-1], prof[-1], prof[-1], hot_y, hot_x)


def _hot_holding_times(model, s_hot_y, s_hot_x):
    """Hot-message holding times ``1 + S_{.,j-1}``, padded to position k."""
    k, lm = model.k, model.message_length
    hold_y = np.empty(k)
    hold_y[0] = 1.0 + lm
    hold_y[1 : k - 1] = 1.0 + s_hot_y[: k - 2]
    hold_y[k - 1] = 0.0  # position k carries no hot traffic
    hold_x = np.empty((k, k))
    hold_x[0, : k - 1] = 1.0 + s_hot_y  # chain into y at distance t
    hold_x[0, k - 1] = 1.0 + lm  # hot row: delivers
    hold_x[1 : k - 1, :] = 1.0 + s_hot_x[: k - 2, :]
    hold_x[k - 1, :] = 0.0  # position k carries no hot traffic
    return hold_y, hold_x


def _competing_services(model, v: _View):
    """``(reg_x, reg_hy, reg_hybar, hot_y[k], hot_x[k, k])`` per policy."""
    k, lm = model.k, model.message_length
    policy = model.blocking_service
    if policy is BlockingServicePolicy.TRANSMISSION:
        tx = float(lm + 1)
        hot_y = np.full(k, tx)
        hot_y[k - 1] = 0.0  # no hot traffic leaves the hot node
        hot_x = np.full((k, k), tx)
        hot_x[k - 1, :] = 0.0
        return tx, tx, tx, hot_y, hot_x
    if policy is BlockingServicePolicy.HOLDING:
        hold_y, hold_x = _hot_holding_times(model, v.s_hot_y, v.s_hot_x)
        return v.s_x_entry, v.s_hy_entry, v.s_hybar_entry, hold_y, hold_x
    # ENTRANCE: the literal recurrence values.
    hot_y = np.append(v.s_hot_y, 0.0)
    hot_x = np.vstack([v.s_hot_x, np.zeros(k)])
    return v.s_x_entry, v.s_hy_entry, v.s_hybar_entry, hot_y, hot_x


def _update(model, rates: HotSpotRates, state: np.ndarray) -> np.ndarray:
    k, lm = model.k, model.message_length
    v = _unpack(state, k)
    lam_r = rates.channel.regular_rate
    hot_x_rates = rates.hot_rates_x()  # index j-1, j = 1..k (j=k entry 0)
    hot_y_rates = rates.hot_rates_y()

    reg_x, reg_hy, reg_hybar, comp_y, comp_x = _competing_services(model, v)

    # Eq (16): non-hot y-rings carry only regular traffic.
    b_hybar = blocking_delay(BlockingInputs(lam_r, 0.0, reg_hybar, 0.0), lm)
    # Eq (17): hot-ring blocking averaged over the k positions.
    b_hy_terms = [
        blocking_delay(
            BlockingInputs(lam_r, float(hot_y_rates[l]), reg_hy, float(comp_y[l])),
            lm,
        )
        for l in range(k)
    ]
    b_hy = float(np.mean(b_hy_terms))
    # Eqs (18-20): x-channel blocking averaged over the k x k
    # (ring t, position l) grid.
    b_x_terms = np.empty((k, k))  # [l, t]
    for l in range(k):
        for t in range(k):
            b_x_terms[l, t] = blocking_delay(
                BlockingInputs(
                    lam_r, float(hot_x_rates[l]), reg_x, float(comp_x[l, t])
                ),
                lm,
            )
    b_x = float(np.mean(b_x_terms))

    if not (math.isfinite(b_hybar) and math.isfinite(b_hy) and math.isfinite(b_x)):
        return np.full_like(state, np.inf)

    prof_x = regular_service_profile(k, b_x, lm)
    prof_hy = regular_service_profile(k, b_hy, lm)
    prof_hybar = regular_service_profile(k, b_hybar, lm)

    # Eq (23): hot messages in the hot ring see position-dependent
    # blocking.
    b_hot_y = np.array(
        [
            blocking_delay(
                BlockingInputs(
                    lam_r, float(hot_y_rates[j]), reg_hy, float(comp_y[j])
                ),
                lm,
            )
            for j in range(k - 1)
        ]
    )
    # Eq (25): per (j, t) blocking for hot messages crossing x.
    b_hot_x = np.empty((k - 1, k))
    for j in range(k - 1):
        for t in range(k):
            b_hot_x[j, t] = blocking_delay(
                BlockingInputs(
                    lam_r, float(hot_x_rates[j]), reg_x, float(comp_x[j, t])
                ),
                lm,
            )
    if not (np.all(np.isfinite(b_hot_y)) and np.all(np.isfinite(b_hot_x))):
        return np.full_like(state, np.inf)

    new_hot_y = hot_y_service_profile(k, b_hot_y, lm)
    new_hot_x = hot_x_service_profile(k, b_hot_x, new_hot_y, lm)
    return _pack(prof_x[-1], prof_hy[-1], prof_hybar[-1], new_hot_y, new_hot_x)


def _class_latency(model, profile: np.ndarray) -> float:
    """Entrance value ``S_{.,k}``, or the mean over trips 1..k-1."""
    if model.trip_averaging:
        return float(np.mean(profile[: model.k - 1]))
    return float(profile[-1])


def _channel_multiplexing(model, lam, gam, s_lam, s_gam) -> float:
    """V̄ at a channel shared by the two classes (text above eq 36)."""
    total = lam + gam
    if total == 0.0:
        return 1.0
    s_bar = (lam * s_lam + gam * s_gam) / total
    return multiplexing_degree(total, s_bar, model.num_vcs)


def _max_utilization(model, rates: HotSpotRates, v: _View) -> float:
    """Largest channel utilisation of the converged solution."""
    k = model.k
    lam_r = rates.channel.regular_rate
    hot_y_rates = rates.hot_rates_y()
    hot_x_rates = rates.hot_rates_x()
    reg_x, reg_hy, reg_hybar, comp_y, comp_x = _competing_services(model, v)
    util = lam_r * reg_hybar
    for j in range(k):
        util = max(util, lam_r * reg_hy + float(hot_y_rates[j]) * float(comp_y[j]))
        for t in range(k):
            util = max(
                util,
                lam_r * reg_x + float(hot_x_rates[j]) * float(comp_x[j, t]),
            )
    return float(util)


def oracle_evaluate(
    model: HotSpotLatencyModel, rate: float, initial: Optional[np.ndarray] = None
) -> ModelResult:
    """:meth:`HotSpotLatencyModel.evaluate`, one channel at a time.

    A warm start (``initial``) that fails to converge falls back to the
    cold zero-load start, as the model's contract requires.
    """
    if rate < 0:
        raise ValueError(f"rate must be non-negative, got {rate}")
    k, lm, h, vcs = model.k, model.message_length, model.h, model.num_vcs
    rates = HotSpotRates(k, rate, h)
    lam_r = rates.channel.regular_rate
    hot_x_rates = rates.hot_rates_x()
    hot_y_rates = rates.hot_rates_y()

    cold_start = _zero_load_state(model)
    if initial is not None:
        initial = np.asarray(initial, dtype=float)
        if initial.shape != cold_start.shape:
            raise ValueError(
                f"initial state has shape {initial.shape}, "
                f"expected {cold_start.shape}"
            )

    if rate == 0.0:
        state = cold_start
        fp_iterations = 0
    else:
        result = model.solver.solve(
            lambda s: _update(model, rates, s),
            cold_start if initial is None else initial,
        )
        fp_iterations = result.iterations
        if result.status is not FixedPointStatus.CONVERGED and initial is not None:
            result = model.solver.solve(
                lambda s: _update(model, rates, s), cold_start
            )
            fp_iterations += result.iterations
        if result.status is not FixedPointStatus.CONVERGED:
            return ModelResult(
                rate=rate, latency=math.inf, saturated=True, iterations=fp_iterations
            )
        state = result.state

    v = _unpack(state, k)
    probs = PathProbabilities(k=k)

    # Recompute the converged blocking delays once to obtain the full
    # profiles (the state stores only entrance values for the regular
    # classes).
    reg_x, reg_hy, reg_hybar, comp_y, comp_x = _competing_services(model, v)
    hold_y, hold_x = _hot_holding_times(model, v.s_hot_y, v.s_hot_x)
    b_hybar = blocking_delay(BlockingInputs(lam_r, 0.0, reg_hybar, 0.0), lm)
    b_hy = float(
        np.mean(
            [
                blocking_delay(
                    BlockingInputs(
                        lam_r, float(hot_y_rates[l]), reg_hy, float(comp_y[l])
                    ),
                    lm,
                )
                for l in range(k)
            ]
        )
    )
    b_x_grid = np.empty((k, k))
    for l in range(k):
        for t in range(k):
            b_x_grid[l, t] = blocking_delay(
                BlockingInputs(
                    lam_r, float(hot_x_rates[l]), reg_x, float(comp_x[l, t])
                ),
                lm,
            )
    b_x = float(np.mean(b_x_grid))
    prof_x = regular_service_profile(k, b_x, lm)
    prof_hy = regular_service_profile(k, b_hy, lm)
    prof_hybar = regular_service_profile(k, b_hybar, lm)
    s_hy_latency = _class_latency(model, prof_hy)
    s_hybar_latency = _class_latency(model, prof_hybar)
    prof_xhy = chained_service_profile(k, b_x, s_hy_latency)
    prof_xhybar = chained_service_profile(k, b_x, s_hybar_latency)
    s_x_latency = _class_latency(model, prof_x)
    s_xhy_latency = _class_latency(model, prof_xhy)
    s_xhybar_latency = _class_latency(model, prof_xhybar)

    # Eq (15): x-entering network latency including path weights.
    t_x = probs.p_enter_x * (
        probs.p_x_only_given_x * s_x_latency
        + probs.p_x_to_hot_given_x * s_xhy_latency
        + probs.p_x_to_nonhot_given_x * s_xhybar_latency
    )
    # Eq (31): regular network latency seen at any source.
    s_r_network = (
        t_x
        + probs.p_hot_y_only * s_hy_latency
        + probs.p_nonhot_y_only * s_hybar_latency
    )

    # Virtual-channel multiplexing (eqs 33-37).
    v_hybar = multiplexing_degree(lam_r, v.s_hybar_entry, vcs)
    v_hy_pos = np.array(
        [
            _channel_multiplexing(
                model, lam_r, float(hot_y_rates[j]), v.s_hy_entry, float(hold_y[j])
            )
            for j in range(k)
        ]
    )
    v_hy = float(np.mean(v_hy_pos))  # eq (36)
    v_x_grid = np.empty((k, k))  # [j, t]
    for j in range(k):
        for t in range(k):
            v_x_grid[j, t] = _channel_multiplexing(
                model, lam_r, float(hot_x_rates[j]), v.s_x_entry, float(hold_x[j, t])
            )
    v_x = float(np.mean(v_x_grid))  # eq (37)

    # Source queue waiting times (eq 32).  Hot node: generates only
    # regular traffic; hot-ring sources at distance j = 1..k-1;
    # remaining sources at (j = 1..k-1, t = 1..k).
    lam_vc = rate / vcs
    wait_hot_node = mg1_waiting_time(lam_vc, s_r_network, lm)
    wait_hot_ring = mg1_waiting_time(
        lam_vc, (1.0 - h) * s_r_network + h * v.s_hot_y, lm
    )
    wait_x = mg1_waiting_time(lam_vc, (1.0 - h) * s_r_network + h * v.s_hot_x, lm)
    wait_terms = np.concatenate([[wait_hot_node], wait_hot_ring, wait_x.ravel()])
    if not np.all(np.isfinite(wait_terms)):
        return ModelResult(
            rate=rate, latency=math.inf, saturated=True, iterations=fp_iterations
        )
    ws_r = float(np.mean(wait_terms))

    # Regular latency (eqs 11-15).
    reg_hot_ring = probs.p_hot_y_only * (s_hy_latency + ws_r) * v_hy
    reg_nonhot_ring = probs.p_nonhot_y_only * (s_hybar_latency + ws_r) * v_hybar
    reg_enter_x = (t_x + probs.p_enter_x * ws_r) * v_x
    s_r = reg_hot_ring + reg_nonhot_ring + reg_enter_x

    # Hot-spot latency (eqs 21-24).
    denom = model.num_nodes - 1
    hot_y_sum = 0.0
    for j in range(k - 1):
        hot_y_sum += (float(v.s_hot_y[j]) + float(wait_hot_ring[j])) * float(
            v_hy_pos[j]
        )
    s_h_y = hot_y_sum / denom
    hot_x_sum = 0.0
    for j in range(k - 1):
        for t in range(k):
            hot_x_sum += (float(v.s_hot_x[j, t]) + float(wait_x[j, t])) * float(
                v_x_grid[j, t]
            )
    s_h_x = hot_x_sum / denom
    s_h = s_h_y + s_h_x

    latency = (1.0 - h) * s_r + h * s_h  # eq (10)

    breakdown = LatencyBreakdown(
        regular_hot_ring=reg_hot_ring,
        regular_nonhot_ring=reg_nonhot_ring,
        regular_enter_x=reg_enter_x,
        hot_from_hot_ring=s_h_y,
        hot_from_x=s_h_x,
        regular_source_wait=ws_r,
        regular_network_latency=s_r_network,
    )
    return ModelResult(
        rate=rate,
        latency=float(latency),
        saturated=False,
        iterations=fp_iterations,
        breakdown=breakdown,
        mean_multiplexing_x=v_x,
        mean_multiplexing_hot_ring=v_hy,
        mean_multiplexing_nonhot_ring=v_hybar,
        max_utilization=_max_utilization(model, rates, v),
        fixed_point_state=state.copy(),
    )


def _chain_sweep(evaluate, model, rates, warm_start: bool, label: str) -> SweepResult:
    """Evaluate ``rates`` in order, each solve warm-started from the last."""
    out = SweepResult(label=label)
    state: Optional[np.ndarray] = None
    for r in rates:
        res = evaluate(model, float(r), initial=state if warm_start else None)
        state = res.fixed_point_state
        out.points.append(
            SweepPoint(
                rate=float(r),
                latency=res.latency,
                saturated=res.saturated,
                iterations=res.iterations,
            )
        )
    return out


def oracle_sweep(model, rates, warm_start: bool = True) -> SweepResult:
    """:meth:`HotSpotLatencyModel.sweep` as a sequential warm chain."""
    return _chain_sweep(oracle_evaluate, model, rates, warm_start, "model")


def oracle_saturation_rate(model, hi: float, tol: float) -> float:
    """Smallest saturated rate by bisection, one evaluation at a time."""
    if not oracle_evaluate(model, hi).saturated:
        raise ValueError(f"upper bound {hi} does not saturate the model")
    lo_rate, hi_rate = 0.0, hi
    while hi_rate - lo_rate > tol * max(1.0, hi_rate):
        mid = 0.5 * (lo_rate + hi_rate)
        if oracle_evaluate(model, mid).saturated:
            hi_rate = mid
        else:
            lo_rate = mid
    return hi_rate


# ----------------------------------------------------------------------
# Oracle: the uniform model, one dimension at a time
# ----------------------------------------------------------------------
def _uniform_competing_service(model, entry: float) -> float:
    """``Lm + 1`` under TRANSMISSION, else the entrance value."""
    if model.blocking_service is BlockingServicePolicy.TRANSMISSION:
        return float(model.message_length + 1)
    return entry


def _uniform_entrance_times(model, rate: float, entries: np.ndarray) -> np.ndarray:
    """One update of the per-dimension entrance service times."""
    k, lm = model.k, model.message_length
    lam_r = rate * ((k - 1) / 2.0)
    new = np.empty(model.n)
    # Walk dimensions from the last (terminates at the PE) backwards.
    next_entry = None
    for i in reversed(range(model.n)):
        b = blocking_delay(
            BlockingInputs(
                lam_r, 0.0, _uniform_competing_service(model, float(entries[i])), 0.0
            ),
            lm,
        )
        if not math.isfinite(b):
            return np.full(model.n, np.inf)
        if next_entry is None:
            prof = regular_service_profile(k, b, lm)
        else:
            # Each later dimension is used with probability (k-1)/k.
            p_use = (k - 1.0) / k
            tail = p_use * next_entry + (1.0 - p_use) * lm
            prof = chained_service_profile(k, b, tail)
        new[i] = prof[-1]
        next_entry = _class_latency(model, prof) if model.trip_averaging else prof[-1]
    return new


def oracle_uniform_evaluate(
    model: UniformLatencyModel, rate: float, initial: Optional[np.ndarray] = None
) -> ModelResult:
    """:meth:`UniformLatencyModel.evaluate`, one dimension at a time."""
    if rate < 0:
        raise ValueError(f"rate must be non-negative, got {rate}")
    k, lm = model.k, model.message_length
    lam_r = rate * ((k - 1) / 2.0)
    init = np.full(model.n, float(k + lm))
    if initial is not None:
        initial = np.asarray(initial, dtype=float)
        if initial.shape != init.shape:
            raise ValueError(
                f"initial state has shape {initial.shape}, expected {init.shape}"
            )
    if rate == 0.0:
        entries = init
        iterations = 0
    else:
        result = model.solver.solve(
            lambda s: _uniform_entrance_times(model, rate, s),
            init if initial is None else initial,
        )
        iterations = result.iterations
        if result.status is not FixedPointStatus.CONVERGED and initial is not None:
            result = model.solver.solve(
                lambda s: _uniform_entrance_times(model, rate, s), init
            )
            iterations += result.iterations
        if result.status is not FixedPointStatus.CONVERGED:
            return ModelResult(
                rate=rate, latency=math.inf, saturated=True, iterations=iterations
            )
        entries = result.state

    # A message enters at its first non-matching dimension (weight
    # (1/k)^i (1-1/k)); each entry dimension's class latency chains into
    # the next dimension's class latency.
    p_skip = 1.0 / k
    class_lat = [0.0] * model.n
    next_latency = None
    for i in reversed(range(model.n)):
        b = blocking_delay(
            BlockingInputs(
                lam_r, 0.0, _uniform_competing_service(model, float(entries[i])), 0.0
            ),
            lm,
        )
        if next_latency is None:
            prof = regular_service_profile(k, b, lm)
        else:
            p_use = (k - 1.0) / k
            tail = p_use * next_latency + (1.0 - p_use) * lm
            prof = chained_service_profile(k, b, tail)
        class_lat[i] = _class_latency(model, prof)
        next_latency = class_lat[i]
    network = 0.0
    total_weight = 0.0
    for i in range(model.n):
        weight = (p_skip**i) * (1.0 - p_skip)
        network += weight * class_lat[i]
        total_weight += weight
    network /= total_weight

    v_bar = multiplexing_degree(lam_r, float(entries[-1]), model.num_vcs)
    ws = mg1_waiting_time(rate / model.num_vcs, network, lm)
    if not math.isfinite(ws):
        return ModelResult(
            rate=rate, latency=math.inf, saturated=True, iterations=iterations
        )
    latency = (network + ws) * v_bar
    return ModelResult(
        rate=rate,
        latency=float(latency),
        saturated=False,
        iterations=iterations,
        mean_multiplexing_x=v_bar,
        mean_multiplexing_hot_ring=v_bar,
        mean_multiplexing_nonhot_ring=v_bar,
        max_utilization=lam_r
        * _uniform_competing_service(model, float(np.max(entries))),
        fixed_point_state=np.array(entries, dtype=float, copy=True),
    )


def oracle_uniform_sweep(model, rates, warm_start: bool = True) -> SweepResult:
    """:meth:`UniformLatencyModel.sweep` as a sequential warm chain."""
    return _chain_sweep(
        oracle_uniform_evaluate, model, rates, warm_start, "uniform-model"
    )


# ----------------------------------------------------------------------
# Tests
# ----------------------------------------------------------------------
def make_model(k, lm, h, vcs, policy="transmission", trip_averaging=True):
    return HotSpotLatencyModel(
        k=k,
        message_length=lm,
        hotspot_fraction=h,
        num_vcs=vcs,
        blocking_service=policy,
        trip_averaging=trip_averaging,
    )


def assert_results_match(a, b, label=""):
    """Oracle result ``a`` vs model result ``b`` for the same load."""
    assert a.saturated == b.saturated, f"saturation classification split {label}"
    assert a.rate == b.rate, label
    if a.saturated:
        assert math.isinf(a.latency) and math.isinf(b.latency), label
        return
    assert a.latency == pytest.approx(b.latency, rel=REL_TOL), label
    assert a.max_utilization == pytest.approx(
        b.max_utilization, rel=REL_TOL, abs=1e-12
    ), label
    assert a.mean_multiplexing_x == pytest.approx(
        b.mean_multiplexing_x, rel=REL_TOL
    ), label
    assert a.mean_multiplexing_hot_ring == pytest.approx(
        b.mean_multiplexing_hot_ring, rel=REL_TOL
    ), label
    assert a.mean_multiplexing_nonhot_ring == pytest.approx(
        b.mean_multiplexing_nonhot_ring, rel=REL_TOL
    ), label
    if a.breakdown is not None:
        assert b.breakdown is not None, label
        assert a.breakdown.regular_total == pytest.approx(
            b.breakdown.regular_total, rel=REL_TOL
        ), label
        assert a.breakdown.hot_total == pytest.approx(
            b.breakdown.hot_total, rel=REL_TOL
        ), label
        assert a.breakdown.regular_source_wait == pytest.approx(
            b.breakdown.regular_source_wait, rel=REL_TOL, abs=1e-12
        ), label


@st.composite
def kernel_configs(draw):
    k = draw(st.integers(3, 10))
    lm = draw(st.integers(1, 48))
    h = draw(st.sampled_from([0.0, 0.05, 0.2, 0.4, 0.7, 0.9]))
    vcs = draw(st.integers(2, 6))
    policy = draw(
        st.sampled_from(["transmission", "holding", "entrance"])
    )
    trip = draw(st.booleans())
    # Loads spanning light load to past saturation: scale by the
    # hot-sink bandwidth bound (regular-path bound at h = 0).
    if h > 0:
        bound = 1.0 / (h * k * (k - 1) * (lm + 1))
    else:
        bound = 2.0 / ((k - 1) * (lm + 1))
    frac = draw(st.sampled_from([0.0, 0.1, 0.5, 0.8, 1.5]))
    return k, lm, h, vcs, policy, trip, frac * bound


class TestEquivalenceProperty:
    @given(cfg=kernel_configs())
    @settings(max_examples=25, deadline=None)
    def test_vector_matches_scalar(self, cfg):
        k, lm, h, vcs, policy, trip, rate = cfg
        model = make_model(k, lm, h, vcs, policy, trip)
        assert_results_match(
            oracle_evaluate(model, rate), model.evaluate(rate), f"cfg={cfg}"
        )


# (k, Lm, V, h) matrix pinned across hypothesis reruns; rates chosen at
# light load, moderate load, near saturation, and past saturation.
PINNED_MATRIX = [
    (16, 32, 2, 0.2),
    (16, 32, 2, 0.4),
    (16, 100, 2, 0.7),
    (16, 100, 4, 0.4),
    (8, 16, 3, 0.0),
    (8, 64, 2, 0.9),
    (5, 1, 2, 0.5),
    (3, 8, 6, 0.3),
]


class TestEquivalencePinned:
    @pytest.mark.parametrize("k,lm,vcs,h", PINNED_MATRIX)
    def test_pinned_case(self, k, lm, vcs, h):
        model = make_model(k, lm, h, vcs)
        if h > 0:
            bound = 1.0 / (h * k * (k - 1) * (lm + 1))
        else:
            bound = 2.0 / ((k - 1) * (lm + 1))
        for frac in (0.0, 0.25, 0.6, 0.9, 1.2, 3.0):
            rate = frac * bound
            assert_results_match(
                oracle_evaluate(model, rate),
                model.evaluate(rate),
                f"k={k} Lm={lm} V={vcs} h={h} rate={rate}",
            )

    @pytest.mark.parametrize("policy", list(BlockingServicePolicy))
    def test_policies(self, policy):
        model = make_model(8, 16, 0.4, 3, policy=policy)
        for rate in (0.0, 2e-4, 8e-4, 2e-3, 1e-2):
            assert_results_match(
                oracle_evaluate(model, rate),
                model.evaluate(rate),
                f"policy={policy} rate={rate}",
            )

    def test_warm_started_sweep_matches_scalar_sweep(self):
        """The one-batch chained sweep must land on the oracle's warm
        sweep's curve: same saturation split (bit-identical flags),
        latencies within solver tolerance."""
        model = make_model(16, 32, 0.4, 2)
        rates = np.linspace(0.0, 3.4e-4, 24)
        s = oracle_sweep(model, rates, warm_start=True)
        v = model.sweep(rates, warm_start=True)
        assert [p.saturated for p in s.points] == [
            p.saturated for p in v.points
        ]
        for p, q in zip(s.points, v.points):
            if not p.saturated:
                assert q.latency == pytest.approx(p.latency, rel=REL_TOL)

    def test_saturation_search_matches_bisection(self):
        model = make_model(16, 32, 0.4, 2)
        a = oracle_saturation_rate(model, hi=0.01, tol=1e-7)
        b = model.saturation_rate(hi=0.01, tol=1e-7)
        # tol bounds the final *bracket width* (absolute, hi < 1), so
        # the two searches' endpoints agree to within two brackets.
        assert b == pytest.approx(a, abs=2e-7)
        # And each endpoint classifies consistently across the two.
        assert oracle_evaluate(model, b).saturated and model.evaluate(a).saturated


class TestUniformEquivalence:
    PINNED = [
        (16, 2, 32, 2, "transmission"),
        (8, 3, 16, 3, "transmission"),
        (5, 2, 4, 2, "holding"),
        (16, 2, 100, 2, "entrance"),
        (4, 1, 8, 2, "transmission"),
    ]

    @pytest.mark.parametrize("k,n,lm,vcs,policy", PINNED)
    def test_pinned_case(self, k, n, lm, vcs, policy):
        model = UniformLatencyModel(
            k=k, n=n, message_length=lm, num_vcs=vcs, blocking_service=policy
        )
        bound = 2.0 / (n * (k - 1) * (lm + 1))
        for frac in (0.0, 0.2, 0.6, 0.9, 1.5):
            rate = frac * bound
            a, b = oracle_uniform_evaluate(model, rate), model.evaluate(rate)
            assert a.saturated == b.saturated, (k, n, lm, vcs, policy, rate)
            if not a.saturated:
                assert b.latency == pytest.approx(a.latency, rel=REL_TOL)
                assert b.max_utilization == pytest.approx(
                    a.max_utilization, rel=REL_TOL, abs=1e-12
                )

    def test_chained_sweep_matches(self):
        model = UniformLatencyModel(k=16, n=2, message_length=32)
        rates = np.linspace(0.0, 1.6e-3, 20)
        s, v = oracle_uniform_sweep(model, rates), model.sweep(rates)
        assert [p.saturated for p in s.points] == [p.saturated for p in v.points]
        for p, q in zip(s.points, v.points):
            if not p.saturated:
                assert q.latency == pytest.approx(p.latency, rel=REL_TOL)


class TestOneKernel:
    def test_constructors_take_no_kernel_argument(self):
        with pytest.raises(TypeError):
            HotSpotLatencyModel(
                k=8, message_length=16, hotspot_fraction=0.2, kernel="scalar"
            )
        with pytest.raises(TypeError):
            UniformLatencyModel(k=8, n=2, message_length=16, kernel="scalar")

    def test_vector_kernel_is_faster_than_the_oracle(self):
        """Same-machine speed gate: on the ``repro bench`` model (16x16
        torus, Lm=32, h=0.4, V=2) at 2e-4, the best of three rounds of
        five evaluations must favour the array-native kernel, whatever
        the machine's absolute speed."""
        model = make_model(16, 32, 0.4, 2)
        rate, evals = 2e-4, 5

        def best_round(evaluate) -> float:
            best = math.inf
            for _ in range(3):
                t0 = time.perf_counter()
                for _ in range(evals):
                    result = evaluate(rate)
                best = min(best, time.perf_counter() - t0)
            assert result.finite
            return best

        vector = best_round(model.evaluate)
        oracle = best_round(lambda r: oracle_evaluate(model, r))
        assert vector < oracle, f"vector {vector:.3f}s vs oracle {oracle:.3f}s"


class TestBatchContract:
    """evaluate_batch invariants beyond pointwise equivalence."""

    def test_batch_matches_individual_evaluates(self):
        model = HotSpotLatencyModel(k=8, message_length=16, hotspot_fraction=0.3)
        rates = [0.0, 1e-4, 8e-4, 2e-3, 0.05]
        batch = model.evaluate_batch(rates, chain=False)
        for rate, res in zip(rates, batch):
            solo = model.evaluate(rate)
            assert res.saturated == solo.saturated
            if not res.saturated:
                assert res.latency == solo.latency  # identical solve path
                assert res.iterations == solo.iterations

    def test_unordered_rates_preserve_input_order(self):
        model = HotSpotLatencyModel(k=8, message_length=16, hotspot_fraction=0.3)
        rates = [8e-4, 0.0, 2e-4]
        out = model.evaluate_batch(rates, chain=False)
        assert [r.rate for r in out] == rates
        assert out[1].iterations == 0  # zero load needs no solve

    def test_initials_warm_start_batch(self):
        model = HotSpotLatencyModel(k=8, message_length=16, hotspot_fraction=0.3)
        cold = model.evaluate(5e-4)
        warm = model.evaluate_batch(
            [5e-4], initials=[cold.fixed_point_state], chain=False
        )[0]
        assert warm.iterations <= 2
        assert warm.latency == pytest.approx(cold.latency, rel=1e-9)

    def test_zero_rate_ignores_warm_initial(self):
        """Rate 0 must use the exact zero-load state even when a warm
        initial from a loaded solve is supplied (the oracle's contract)."""
        for model in (
            HotSpotLatencyModel(k=8, message_length=16, hotspot_fraction=0.4),
            UniformLatencyModel(k=8, n=2, message_length=16),
        ):
            loaded = model.evaluate(2e-4)
            warm_zero = model.evaluate(0.0, initial=loaded.fixed_point_state)
            assert warm_zero.latency == model.evaluate(0.0).latency
            assert warm_zero.iterations == 0

    def test_bad_initials_shape_raises(self):
        model = HotSpotLatencyModel(k=8, message_length=16, hotspot_fraction=0.3)
        with pytest.raises(ValueError, match="shape"):
            model.evaluate_batch([1e-4], initials=[np.zeros(3)])
        with pytest.raises(ValueError, match="initial states"):
            model.evaluate_batch([1e-4, 2e-4], initials=[None])

    def test_negative_rate_raises(self):
        model = HotSpotLatencyModel(k=8, message_length=16, hotspot_fraction=0.3)
        with pytest.raises(ValueError, match="non-negative"):
            model.evaluate_batch([1e-4, -1e-4])

    def test_empty_batch(self):
        model = HotSpotLatencyModel(k=8, message_length=16, hotspot_fraction=0.3)
        assert model.evaluate_batch([]) == []
