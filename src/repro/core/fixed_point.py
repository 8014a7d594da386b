"""Damped fixed-point iteration for the model's interdependent variables.

The paper: "Examining all above equations reveal that there are several
interdependencies between the different variables of the model.  Given
that a closed-form solution to these interdependencies is very difficult
to determine, the different variables of the model are computed using
iterative techniques for solving equations [12, 17, 21]."

The solver iterates a user-supplied map ``x -> F(x)`` over a flat
``numpy`` state vector with under-relaxation

    x_{i+1} = (1 - damping) * x_i + damping * F(x_i)

until the relative change falls below ``tol``.  Three outcomes:

* ``CONVERGED`` — a finite fixed point was found;
* ``SATURATED`` — the map produced a non-finite value (a channel or
  source queue whose utilisation reached one): the offered load has no
  steady state, which the latency model reports as operating past the
  saturation point;
* ``MAX_ITERATIONS`` — no convergence within the budget (treated as
  saturation by the latency model, since near-saturation loads are
  exactly where the iteration stops contracting).

:meth:`FixedPointSolver.solve_batch` iterates *many* independent fixed
points at once over a 2-D ``(points, variables)`` state: each numpy
sweep applies a batched update to the still-active rows, converged rows
are frozen at the iteration they converge, and rows whose update turns
non-finite are retired as saturated.  With ``chain=True`` the rows are
assumed ordered along a sweep axis (e.g. increasing injection rate) and
are solved in rate-ordered *waves*: every row of a later wave starts
from the converged state of the highest already-converged row — the
batched form of the sweep engine's warm-start chaining.  A row that is
never warm-seeded follows exactly the trajectory the scalar
:meth:`~FixedPointSolver.solve` would, so batched and sequential solves
agree bit for bit on those rows; warm-seeded rows are flagged so
callers can fall back to a cold solve when one fails, preserving the
scalar warm-start contract.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "FixedPointStatus",
    "FixedPointResult",
    "BatchFixedPointResult",
    "FixedPointSolver",
    "UpdateFailure",
    "batch_start",
    "solve_batch_with_fallback",
]


class FixedPointStatus(enum.Enum):
    CONVERGED = "converged"
    SATURATED = "saturated"
    MAX_ITERATIONS = "max_iterations"
    #: The update map raised :class:`UpdateFailure` (a numerical failure
    #: or an injected fault) — the point is a failure *record*, not a
    #: propagated abort, and in a batch only the raising rows carry it.
    FAILED = "failed"


class UpdateFailure(Exception):
    """Raised by an update map to fail one fixed point (one batch row).

    The solver converts it into a :data:`FixedPointStatus.FAILED` record
    for exactly the affected point instead of aborting the whole solve:
    a scalar :meth:`FixedPointSolver.solve` returns a FAILED result, a
    batched :meth:`FixedPointSolver.solve_batch` retires only the rows
    whose update raised and keeps iterating the rest.  Any other
    exception type still propagates — only deliberate failures (and the
    fault-injection harness's :class:`~repro.faults.InjectedFault`,
    which subclasses this) get the record treatment.
    """


@dataclass(frozen=True)
class FixedPointResult:
    """Outcome of a fixed-point solve."""

    status: FixedPointStatus
    state: np.ndarray
    iterations: int
    residual: float

    @property
    def converged(self) -> bool:
        return self.status is FixedPointStatus.CONVERGED


@dataclass(frozen=True)
class BatchFixedPointResult:
    """Outcome of a batched multi-point fixed-point solve.

    Attributes
    ----------
    status:
        Object array of :class:`FixedPointStatus`, one per point.
    states:
        ``(points, variables)`` array: the converged state of each
        converged row, the last finite iterate otherwise.
    iterations:
        Iteration index at which each row froze (converged or retired);
        ``max_iterations`` for rows that exhausted the budget.
    residuals:
        Final per-row residual (``inf`` for saturated rows).
    reseeded:
        Rows that were warm-seeded from an earlier converged row during
        chaining — callers that must preserve cold-start semantics
        (e.g. saturation classification) retry exactly these rows from
        a cold start when they fail.
    """

    status: np.ndarray
    states: np.ndarray
    iterations: np.ndarray
    residuals: np.ndarray
    reseeded: np.ndarray

    @property
    def converged(self) -> np.ndarray:
        return self.status == FixedPointStatus.CONVERGED


def batch_start(
    rates: "Sequence[float] | np.ndarray",
    initials: Optional[Sequence[Optional[np.ndarray]]],
    cold: np.ndarray,
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """Validated rates and starting states of a model's ``evaluate_batch``.

    Every row starts from the ``cold`` state unless ``initials`` gives it
    a warm start (entries may be ``None``; zero-rate rows always start
    cold).  Returns ``(rates, initial states, warm mask)``.
    """
    rates_arr = np.asarray([float(r) for r in rates], dtype=float)
    if rates_arr.size and np.any(rates_arr < 0):
        bad = float(rates_arr[rates_arr < 0][0])
        raise ValueError(f"rate must be non-negative, got {bad}")
    n_points = rates_arr.size
    states0 = np.tile(cold, (n_points, 1))
    warm = np.zeros(n_points, dtype=bool)
    if initials is not None:
        if len(initials) != n_points:
            raise ValueError(
                f"got {len(initials)} initial states for {n_points} rates"
            )
        for p, init in enumerate(initials):
            if init is None or rates_arr[p] == 0.0:
                continue
            init = np.asarray(init, dtype=float)
            if init.shape != cold.shape:
                raise ValueError(
                    f"initial state has shape {init.shape}, "
                    f"expected {cold.shape}"
                )
            states0[p] = init
            warm[p] = True
    return rates_arr, states0, warm


def solve_batch_with_fallback(
    solver: "FixedPointSolver",
    update: Callable[[np.ndarray, np.ndarray], np.ndarray],
    initial: np.ndarray,
    warm: np.ndarray,
    cold: np.ndarray,
    *,
    chain: bool,
    wave: int,
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """Batched solve with the scalar warm-start fallback contract.

    Runs :meth:`FixedPointSolver.solve_batch` on ``initial`` (rows
    flagged in ``warm`` carry caller-supplied starts), then re-solves
    every failed row whose start was warm or chain-seeded from the
    ``cold`` state with chaining off — so no load a cold solve resolves
    is ever reported unconverged, exactly like the scalar ``evaluate``
    warm start.  Returns ``(converged mask, final states, total
    iterations per row)`` with retry iterations accumulated.
    """
    res = solver.solve_batch(update, initial, chain=chain, wave=wave)
    iterations = res.iterations.copy()
    ok = res.converged
    retry = ~ok & (res.reseeded | warm)
    if np.any(retry):
        retry_rows = np.flatnonzero(retry)

        def update_retry(sub: np.ndarray, idx: np.ndarray) -> np.ndarray:
            return update(sub, retry_rows[idx])

        res2 = solver.solve_batch(
            update_retry, np.tile(cold, (retry_rows.size, 1))
        )
        iterations[retry] += res2.iterations
        ok[retry] = res2.converged
        res.states[retry] = res2.states
    return ok, res.states, iterations


class FixedPointSolver:
    """Iterates ``x -> F(x)`` with damping until convergence.

    Parameters
    ----------
    tol:
        Convergence threshold on ``max |x' - x| / (1 + max |x|)``.
    max_iterations:
        Iteration budget.
    damping:
        Under-relaxation factor in (0, 1]; 1 is plain Picard iteration.
        The latency model uses 0.5, which converges for every load below
        saturation in practice while damping the oscillation that plain
        iteration exhibits near saturation.
    """

    def __init__(
        self,
        tol: float = 1e-9,
        max_iterations: int = 10_000,
        damping: float = 0.5,
    ) -> None:
        if tol <= 0:
            raise ValueError(f"tolerance must be positive, got {tol}")
        if max_iterations < 1:
            raise ValueError(f"iteration budget must be >= 1, got {max_iterations}")
        if not 0.0 < damping <= 1.0:
            raise ValueError(f"damping must be in (0, 1], got {damping}")
        self.tol = float(tol)
        self.max_iterations = int(max_iterations)
        self.damping = float(damping)

    def solve(
        self,
        update: Callable[[np.ndarray], np.ndarray],
        initial: np.ndarray,
    ) -> FixedPointResult:
        """Run the iteration from ``initial``.

        ``update`` may return non-finite entries to signal saturation;
        it must not mutate its argument.
        """
        x = np.array(initial, dtype=float, copy=True)
        if not np.all(np.isfinite(x)):
            raise ValueError("initial state must be finite")
        residual = np.inf
        for i in range(1, self.max_iterations + 1):
            try:
                if i == 1:
                    _maybe_injected_solver_fault()
                fx = np.asarray(update(x), dtype=float)
            except UpdateFailure:
                return FixedPointResult(
                    status=FixedPointStatus.FAILED,
                    state=x,
                    iterations=i,
                    residual=np.inf,
                )
            if fx.shape != x.shape:
                raise ValueError(
                    f"update changed state shape {x.shape} -> {fx.shape}"
                )
            if not np.all(np.isfinite(fx)):
                return FixedPointResult(
                    status=FixedPointStatus.SATURATED,
                    state=x,
                    iterations=i,
                    residual=np.inf,
                )
            new = (1.0 - self.damping) * x + self.damping * fx
            residual = float(np.max(np.abs(new - x)) / (1.0 + np.max(np.abs(x))))
            x = new
            if residual < self.tol:
                return FixedPointResult(
                    status=FixedPointStatus.CONVERGED,
                    state=x,
                    iterations=i,
                    residual=residual,
                )
        return FixedPointResult(
            status=FixedPointStatus.MAX_ITERATIONS,
            state=x,
            iterations=self.max_iterations,
            residual=residual,
        )

    def solve_batch(
        self,
        update: Callable[[np.ndarray, np.ndarray], np.ndarray],
        initial: np.ndarray,
        *,
        chain: bool = False,
        wave: int = 4,
    ) -> BatchFixedPointResult:
        """Iterate many independent fixed points in one numpy sweep.

        Parameters
        ----------
        update:
            Batched map ``(states, idx) -> F(states)``: ``states`` is the
            ``(active, variables)`` sub-array of still-active rows and
            ``idx`` their row indices in ``initial`` (so per-point
            parameters — e.g. per-rate traffic arrays — can be sliced).
            Rows may come back non-finite to signal saturation; the
            argument must not be mutated.
        initial:
            ``(points, variables)`` array of start states, all finite.
        chain:
            Warm-start chaining along the batch axis.  Rows must be
            ordered so that neighbours have nearby fixed points (e.g. by
            increasing injection rate); they are then solved in
            consecutive waves of ``wave`` rows.  Every row of a later
            wave starts from a secant extrapolation of the two highest
            already-converged states (clamped to their elementwise
            minimum, falling back to the single converged state while
            only one exists) — first-order chaining that lands far
            closer to each row's fixed point than re-using the
            neighbouring state.  The slope is taken over *row indices*,
            so on (near-)uniformly spaced sweep grids whose state grows
            convexly along the sweep axis — the shape of every
            latency-vs-load curve here — the seed stays *below* the true
            fixed point and cannot push a stable row into spurious
            saturation; on irregular grids a seed may overshoot, which
            costs that row a wasted warm attempt but never changes its
            outcome (see below).  Chaining never changes which fixed
            point a row converges to (to tolerance); it only accelerates
            — and every warm-seeded row is reported in ``reseeded`` so
            the caller can fall back to a cold solve when one fails,
            mirroring the scalar warm-start contract.
        wave:
            Rows per chaining wave (ignored without ``chain``).

        Notes
        -----
        Convergence and saturation are masked per row: a converged row is
        frozen (its state no longer updated, its iteration count pinned),
        a saturated row is retired from the active set immediately.  The
        iteration budget applies per row — each row performs at most
        ``max_iterations`` updates, exactly as many as a sequential
        :meth:`solve` from the same start state would, so an unseeded
        batched row and the scalar solve agree bit for bit.
        """
        x = np.array(initial, dtype=float, copy=True)
        if x.ndim != 2:
            raise ValueError(
                f"batched initial state must be 2-D (points, variables), "
                f"got shape {x.shape}"
            )
        if not np.all(np.isfinite(x)):
            raise ValueError("initial states must be finite")
        if chain and wave < 1:
            raise ValueError(f"chaining wave must be >= 1, got {wave}")
        n_points = x.shape[0]
        status = np.full(n_points, FixedPointStatus.MAX_ITERATIONS, dtype=object)
        iterations = np.full(n_points, self.max_iterations, dtype=np.int64)
        residuals = np.full(n_points, np.inf)
        reseeded = np.zeros(n_points, dtype=bool)
        out = BatchFixedPointResult(
            status=status,
            states=x,
            iterations=iterations,
            residuals=residuals,
            reseeded=reseeded,
        )
        if n_points == 0:
            return out
        if not chain:
            self._iterate_masked(update, out, np.arange(n_points))
            return out
        anchors: "list[int]" = []  # indices of the two highest converged rows
        # The first wave only needs to establish the two secant anchors,
        # so it is clamped to 2 rows — every later row then starts from
        # an extrapolated seed, even in batches smaller than ``wave``.
        start = 0
        while start < n_points:
            width = min(2, wave) if start == 0 else wave
            rows = np.arange(start, min(start + width, n_points))
            start += width
            if len(anchors) == 2:
                pp, p = anchors
                slope = (x[p] - x[pp]) / (p - pp)
                seeds = x[p] + slope * (rows - p)[:, None]
                x[rows] = np.maximum(seeds, np.minimum(x[p], x[pp]))
                reseeded[rows] = True
            elif len(anchors) == 1:
                x[rows] = x[anchors[0]]
                reseeded[rows] = True
            self._iterate_masked(update, out, rows)
            for q in rows[out.status[rows] == FixedPointStatus.CONVERGED]:
                anchors = (anchors + [int(q)])[-2:]
        return out

    def _iterate_masked(
        self,
        update: Callable[[np.ndarray, np.ndarray], np.ndarray],
        out: BatchFixedPointResult,
        rows: np.ndarray,
    ) -> None:
        """Run the masked damped iteration on ``rows`` of ``out`` in place."""
        x = out.states
        active = np.zeros(x.shape[0], dtype=bool)
        active[rows] = True
        flags = _injected_solver_fault_flags(len(rows))
        if flags is not None:
            bad = rows[np.asarray(flags, dtype=bool)]
            if bad.size:
                out.status[bad] = FixedPointStatus.FAILED
                out.iterations[bad] = 0
                out.residuals[bad] = np.inf
                active[bad] = False
                if not active.any():
                    return
        for i in range(1, self.max_iterations + 1):
            idx = np.flatnonzero(active)
            try:
                fx = np.asarray(update(x[idx], idx), dtype=float)
            except UpdateFailure:
                # One (or more) rows failed: isolate them row by row so
                # they become FAILED records while the rest keep going.
                idx, fx = self._isolate_update_failures(
                    update, x, idx, out, i, active
                )
                if idx.size == 0:
                    if not active.any():
                        return
                    continue
            if fx.shape != (len(idx), x.shape[1]):
                raise ValueError(
                    f"update changed state shape {(len(idx), x.shape[1])} "
                    f"-> {fx.shape}"
                )
            finite = np.all(np.isfinite(fx), axis=1)
            sat_rows = idx[~finite]
            if sat_rows.size:
                # Retire saturated rows: keep the pre-update iterate, as
                # the scalar solver does.
                out.status[sat_rows] = FixedPointStatus.SATURATED
                out.iterations[sat_rows] = i
                out.residuals[sat_rows] = np.inf
                active[sat_rows] = False
                idx = idx[finite]
                fx = fx[finite]
            if idx.size:
                old = x[idx]
                new = (1.0 - self.damping) * old + self.damping * fx
                step = np.max(np.abs(new - old), axis=1) / (
                    1.0 + np.max(np.abs(old), axis=1)
                )
                x[idx] = new
                out.residuals[idx] = step
                conv_rows = idx[step < self.tol]
                if conv_rows.size:
                    out.status[conv_rows] = FixedPointStatus.CONVERGED
                    out.iterations[conv_rows] = i
                    active[conv_rows] = False
            if not active.any():
                return

    def _isolate_update_failures(
        self,
        update: Callable[[np.ndarray, np.ndarray], np.ndarray],
        x: np.ndarray,
        idx: np.ndarray,
        out: BatchFixedPointResult,
        i: int,
        active: np.ndarray,
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Re-run a raising batched update row by row.

        Rows whose update raises :class:`UpdateFailure` are retired as
        FAILED records; the survivors' updates are reassembled so the
        batch iteration continues without them.  Returns the surviving
        ``(idx, fx)`` pair (possibly empty).
        """
        keep: "list[int]" = []
        fx_rows: "list[np.ndarray]" = []
        for r in idx:
            row_idx = np.asarray([r])
            try:
                fr = np.asarray(update(x[row_idx], row_idx), dtype=float)
            except UpdateFailure:
                out.status[r] = FixedPointStatus.FAILED
                out.iterations[r] = i
                out.residuals[r] = np.inf
                active[r] = False
            else:
                keep.append(int(r))
                fx_rows.append(fr.reshape(-1))
        if not keep:
            return np.empty(0, dtype=np.int64), np.empty((0, x.shape[1]))
        return np.asarray(keep, dtype=np.int64), np.vstack(fx_rows)


def _maybe_injected_solver_fault() -> None:
    """Fault-injection hook for scalar solves (no-op without a plan).

    Imported lazily so :mod:`repro.faults` (which imports this module
    for :class:`UpdateFailure`) never forms an import cycle.
    """
    from repro.faults import maybe_solver_fault

    maybe_solver_fault()


def _injected_solver_fault_flags(count: int) -> "list[bool] | None":
    """Per-row fault-injection flags for batched solves (lazy import)."""
    from repro.faults import solver_fault_flags

    return solver_fault_flags(count)
