"""n-dimensional generalisation of the hot-spot model (extension).

The paper analyses the 2-D torus and notes the approach "can be easily
extended".  This module carries out that extension for an arbitrary
number of dimensions ``n``, preserving the 2-D model's structure:

* **Hot-spot channel rates.**  With dimension-order routing a hot-spot
  message corrects dimensions ``0..n-1`` in order, so when it crosses
  dimension ``i`` its coordinates in dimensions ``< i`` already equal the
  hot node's.  A dimension-``i`` channel ``j`` hops upstream of the hot
  coordinate therefore carries hot traffic from the ``k**i * (k - j)``
  sources that share its trailing coordinates and lie at distance
  ``>= j``; the rate is

      lam^h_{i,j} = lam * h * k**i * (k - j),

  which reduces to eqs (6)-(7) for ``n = 2``.
* **Regular classes.**  A regular message is charged, per dimension it
  uses, the entrance service time of that dimension, where the blocking
  delay of dimension ``i`` is averaged over the ``k**(n-1) * k`` channel
  positions exactly as eq (18) averages over the ``k x k`` grid: hot
  positions are weighted ``1/k**(n-i-1)... `` — concretely, a fraction
  ``k**i / k**(n-1)... `` of dimension-``i`` rings contain hot traffic.
  We average ``B_i`` over positions ``j = 1..k`` and over "carries hot
  traffic or not": only the rings whose trailing coordinates match the
  hot node carry hot traffic in dimension i, a fraction
  ``f_i = k**i / N * k = k**(i+1-n)``.
* **Hot-spot latency.**  A hot message from a source at per-dimension
  distances ``(j_0.. j_{n-1})`` accumulates the position-dependent
  recurrences dimension by dimension, exactly like eq (25) chains into
  eq (23).  To avoid enumerating all ``k**n`` sources, the implementation
  exploits that the service profile of dimension ``i`` depends only on
  the remaining distance vector through the *entry point* into dimension
  ``i+1``; profiles are computed once per dimension and reused.

This is a faithful structural generalisation, not a claim from the
paper.  It compresses the 2-D model's per-(ring, position) hot profiles
into per-dimension profiles (averaging over the chaining distance), so
for ``n = 2`` it *approximates* — closely, but not bit-for-bit —
:class:`~repro.core.model.HotSpotLatencyModel`; the agreement and the
divergence under load are characterised in ``tests/test_ndim.py`` and
the ablation benchmarks.

At ``k = 2`` the model is the binary hypercube of the paper's
predecessor model (its ref [12], Loucif & Ould-Khaoua, J. Supercomputing
2004): e-cube routing corrects one bit per dimension, the
dimension-``i`` hot-path channel carries ``lam * h * 2**i`` (the
``k - j`` factor is 1), and a regular message crosses ``n/2`` channels
on average (eq 2 with ``k̄ = 1/2``).  ``tests/test_hypercube.py``
checks it against the simulator's ``SimulationConfig(k=2, n=...)``.
"""

from __future__ import annotations

import math
from typing import List, Optional

import numpy as np

from repro.core.fixed_point import FixedPointSolver, FixedPointStatus
from repro.core.results import ModelResult, SweepPoint, SweepResult
from repro.queueing.blocking import BlockingInputs, blocking_delay
from repro.queueing.mg1 import mg1_waiting_time
from repro.queueing.vc_multiplexing import multiplexing_degree

__all__ = ["NDimHotSpotModel"]


class NDimHotSpotModel:
    """Hot-spot latency model for the unidirectional k-ary n-cube.

    Parameters mirror :class:`~repro.core.model.HotSpotLatencyModel`,
    plus ``n``.  For ``n = 2`` the two models share rates and blocking
    machinery but this one averages the hot-spot chaining over rings, so
    it tracks (rather than duplicates) the 2-D model.
    """

    def __init__(
        self,
        k: int,
        n: int,
        message_length: int,
        hotspot_fraction: float,
        num_vcs: int = 2,
        *,
        solver: Optional[FixedPointSolver] = None,
    ) -> None:
        if k < 2:
            raise ValueError(f"radix must be >= 2, got {k}")
        if n < 1:
            raise ValueError(f"dimensions must be >= 1, got {n}")
        if message_length < 1:
            raise ValueError(f"message length must be >= 1, got {message_length}")
        if not 0.0 <= hotspot_fraction < 1.0:
            raise ValueError(
                f"hot-spot fraction must be in [0, 1), got {hotspot_fraction}"
            )
        if num_vcs < 2:
            raise ValueError(f"need >= 2 virtual channels, got {num_vcs}")
        self.k = int(k)
        self.n = int(n)
        self.num_nodes = self.k**self.n
        self.message_length = int(message_length)
        self.h = float(hotspot_fraction)
        self.num_vcs = int(num_vcs)
        self.solver = solver or FixedPointSolver(
            tol=1e-10, max_iterations=5_000, damping=0.5
        )

    # ------------------------------------------------------------------
    def hot_rate(self, dim: int, j: int) -> float:
        """Hot-spot rate on a dimension-``dim`` channel ``j`` hops upstream.

        Unit generation rate; multiply by ``lam``.  ``j = k`` (the channel
        leaving the hot hyperplane) carries none.
        """
        if not 0 <= dim < self.n:
            raise ValueError(f"dimension {dim} out of range")
        if not 1 <= j <= self.k:
            raise ValueError(f"hop index {j} out of range [1, {self.k}]")
        return self.h * (self.k**dim) * (self.k - j)

    def hot_ring_fraction(self, dim: int) -> float:
        """Fraction of dimension-``dim`` rings that carry hot traffic.

        A dimension-``dim`` ring is identified by its ``n-1`` other
        coordinates; it carries hot traffic iff its coordinates in
        dimensions ``< dim`` equal the hot node's (dimensions ``> dim``
        are free).  That is ``k**(n-1-dim)`` of the ``k**(n-1)`` rings.
        """
        return self.k ** (self.n - 1 - dim) / self.k ** (self.n - 1)

    # ------------------------------------------------------------------
    # Fixed point over per-dimension structures
    # ------------------------------------------------------------------
    def _unpack(self, state: np.ndarray):
        entries = state[: self.n]
        hot = state[self.n :].reshape(self.n, self.k - 1)
        return entries, hot

    def _pack(self, entries: np.ndarray, hot: np.ndarray) -> np.ndarray:
        return np.concatenate([entries, hot.ravel()])

    def _zero_state(self) -> np.ndarray:
        k, lm = self.k, self.message_length
        entries = np.full(self.n, float(k + lm))
        hot = np.empty((self.n, k - 1))
        # Zero-load hot profiles: last dimension drains (Lm), earlier
        # dimensions chain into the next dimension's mean entry.
        for i in reversed(range(self.n)):
            tail = lm if i == self.n - 1 else lm + float(np.mean(hot[i + 1]))
            for j in range(1, k):
                hot[i, j - 1] = j + tail
        return self._pack(entries, hot)

    def _update(self, rate: float, state: np.ndarray) -> np.ndarray:
        k, lm, n = self.k, self.message_length, self.n
        lam_r = rate * (1.0 - self.h) * (k - 1) / 2.0
        entries, hot = self._unpack(state)
        new_entries = np.empty(n)
        new_hot = np.empty((n, k - 1))
        tx = float(lm + 1)  # transmission-time competing service
        # Blocking on a ring without hot traffic: the same in every
        # dimension and at every position.
        b_cold = blocking_delay(BlockingInputs(lam_r, 0.0, tx, 0.0), lm)
        if not math.isfinite(b_cold):
            return np.full_like(state, np.inf)
        # Walk dimensions backwards so hot chaining uses fresh profiles.
        for i in reversed(range(n)):
            frac_hot = self.hot_ring_fraction(i)
            # Averaged regular blocking over ring type and position.
            b_terms: List[float] = []
            for j in range(1, k + 1):
                gam = rate * self.hot_rate(i, j)
                s_gam = tx if j < k else 0.0
                b_hot_pos = blocking_delay(
                    BlockingInputs(lam_r, gam, tx, s_gam), lm
                )
                if not math.isfinite(b_hot_pos):
                    return np.full_like(state, np.inf)
                b_terms.append(frac_hot * b_hot_pos + (1.0 - frac_hot) * b_cold)
            b_i = float(np.mean(b_terms))
            # Regular entrance: chain into the mix of draining/continuing.
            if i == n - 1:
                tail = float(lm)
            else:
                p_use = (k - 1.0) / k
                tail = float(lm) * (1 - p_use) + p_use * float(new_entries[i + 1])
            new_entries[i] = k * (1.0 + b_i) + tail

            # Hot profile: position-dependent blocking, chains into the
            # next dimension's mean hot entry (hot messages always use
            # every remaining dimension segment that is non-zero; we
            # average over the next dimension's distance uniformly, which
            # is exact for the uniform source distribution).
            prev = None
            for j in range(1, k):
                gam = rate * self.hot_rate(i, j)
                b = blocking_delay(
                    BlockingInputs(lam_r, gam, tx, tx),
                    lm,
                )
                if not math.isfinite(b):
                    return np.full_like(state, np.inf)
                if j == 1:
                    if i == n - 1:
                        base = float(lm)
                    else:
                        # Chain into dimension i+1: the source's remaining
                        # distance there is 0 with prob 1/k (skip) else
                        # uniform 1..k-1.
                        nxt = new_hot[i + 1]
                        base = (1.0 / k) * float(lm) + (
                            (k - 1.0) / k
                        ) * float(np.mean(nxt))
                    prev = 1.0 + b + base
                else:
                    prev = 1.0 + b + prev
                new_hot[i, j - 1] = prev
        return self._pack(new_entries, new_hot)

    # ------------------------------------------------------------------
    def evaluate(self, rate: float) -> ModelResult:
        """Mean message latency at per-node rate ``rate``."""
        if rate < 0:
            raise ValueError(f"rate must be non-negative, got {rate}")
        k, lm, n, h = self.k, self.message_length, self.n, self.h
        lam_r = rate * (1.0 - h) * (k - 1) / 2.0
        if rate == 0.0:
            state = self._zero_state()
            iterations = 0
        else:
            result = self.solver.solve(lambda s: self._update(rate, s), self._zero_state())
            if result.status is not FixedPointStatus.CONVERGED:
                return ModelResult(
                    rate=rate,
                    latency=math.inf,
                    saturated=True,
                    iterations=result.iterations,
                )
            state = result.state
            iterations = result.iterations
        entries, hot = self._unpack(state)

        # Regular network latency: dimension entered = first non-matching
        # dimension; weight by skip probabilities.
        network = 0.0
        total_w = 0.0
        p_skip = 1.0 / k
        for i in range(n):
            w = (p_skip**i) * (1.0 - p_skip)
            network += w * float(entries[i])
            total_w += w
        network /= total_w

        # Hot network latency: average S^h over source distance vectors;
        # source enters at its first non-zero dimension.
        hot_latency = 0.0
        for i in range(n):
            w = (p_skip**i) * (1.0 - p_skip)
            hot_latency += w * float(np.mean(hot[i]))
        hot_latency /= total_w

        v_bars = [
            multiplexing_degree(
                lam_r + rate * float(np.mean([self.hot_rate(i, j) for j in range(1, k + 1)])) * self.hot_ring_fraction(i),
                float(entries[i]),
                self.num_vcs,
            )
            for i in range(n)
        ]
        v_bar = float(np.mean(v_bars))
        s_node = (1.0 - h) * network + h * hot_latency
        ws = mg1_waiting_time(rate / self.num_vcs, s_node, lm)
        if not math.isfinite(ws):
            return ModelResult(
                rate=rate, latency=math.inf, saturated=True, iterations=iterations
            )
        latency = ((1.0 - h) * (network + ws) + h * (hot_latency + ws)) * v_bar
        return ModelResult(
            rate=rate,
            latency=float(latency),
            saturated=False,
            iterations=iterations,
            mean_multiplexing_x=v_bar,
            mean_multiplexing_hot_ring=v_bar,
            mean_multiplexing_nonhot_ring=v_bar,
            max_utilization=float(lam_r * (lm + 1)),
        )

    def saturation_rate(self, hi: float = 0.5, tol: float = 1e-7) -> float:
        """Smallest saturated rate (bisection); ``hi`` must saturate."""
        if not self.evaluate(hi).saturated:
            raise ValueError(f"upper bound {hi} does not saturate the model")
        lo_rate, hi_rate = 0.0, hi
        while hi_rate - lo_rate > tol * max(1.0, hi_rate):
            mid = 0.5 * (lo_rate + hi_rate)
            if self.evaluate(mid).saturated:
                hi_rate = mid
            else:
                lo_rate = mid
        return hi_rate

    def sweep(self, rates, label: str = "ndim-model") -> SweepResult:
        out = SweepResult(label=label)
        for r in rates:
            res = self.evaluate(float(r))
            out.points.append(
                SweepPoint(rate=float(r), latency=res.latency, saturated=res.saturated)
            )
        return out
