"""Per-channel blocking model of the paper (eqs 26, 27, 29, 30).

A network channel is shared by two traffic classes: *regular* messages
with rate ``lam`` requiring mean service time ``S_lam`` and *hot-spot*
messages with rate ``gam`` requiring ``S_gam``.  A message arriving at the
head of a channel is blocked when the channel is busy; the paper models

* the blocking probability as the channel utilisation (eq 27)

      Pb = lam * S_lam + gam * S_gam,

* the conditional waiting time as the M/G/1 waiting time of the merged
  arrival stream at the rate-weighted mean service time (eqs 29-30)

      S̄  = (lam * S_lam + gam * S_gam) / (lam + gam),
      wc = (lam+gam) S̄² (1 + (S̄ - Lm)²/S̄²) / (2 (1 - (lam+gam) S̄)),

* and the mean blocking delay as their product (eq 26): ``B = Pb * wc``.

Utilisation at or above one means the channel cannot drain its offered
load; the blocking delay is then infinite and the solver reports
saturation.

All entry points are array-native: the four inputs broadcast against
each other, so one call evaluates a whole ``k x k`` channel grid — or a
``points x k x k`` sweep batch — elementwise.  Scalar inputs return
floats, preserving the original scalar API.  The model's fixed-point
hot loop uses :func:`blocking_delay_raw`, the same arithmetic without
the input re-validation (its inputs are internally generated and
already checked once at model construction).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.queueing.mg1 import _scalarize, mg1_waiting_time

__all__ = [
    "BlockingInputs",
    "weighted_service_time",
    "blocking_probability",
    "blocking_delay",
    "blocking_delay_raw",
]


@dataclass(frozen=True)
class BlockingInputs:
    """Inputs of the blocking delay ``B(lam, gam, S_lam, S_gam)``.

    Bundles the two (rate, service-time) pairs so call sites that average
    blocking over many channel positions stay readable.  Each field is a
    scalar or an ndarray; the four broadcast against each other.
    """

    lam: "float | np.ndarray"
    gam: "float | np.ndarray"
    s_lam: "float | np.ndarray"
    s_gam: "float | np.ndarray"

    def __post_init__(self) -> None:
        # Cache scalarity: NDimHotSpotModel constructs these once per
        # channel and fixed-point step, and every accessor branches on it.
        object.__setattr__(
            self,
            "is_scalar",
            not (
                isinstance(self.lam, np.ndarray)
                or isinstance(self.gam, np.ndarray)
                or isinstance(self.s_lam, np.ndarray)
                or isinstance(self.s_gam, np.ndarray)
            ),
        )
        if self.is_scalar:
            if self.lam < 0 or self.gam < 0:
                raise ValueError(
                    f"traffic rates must be non-negative, got {self.lam}, {self.gam}"
                )
            if self.s_lam < 0 or self.s_gam < 0:
                raise ValueError(
                    f"service times must be non-negative, "
                    f"got {self.s_lam}, {self.s_gam}"
                )
            return
        if np.any(np.asarray(self.lam) < 0) or np.any(np.asarray(self.gam) < 0):
            raise ValueError(
                f"traffic rates must be non-negative, got {self.lam}, {self.gam}"
            )
        if np.any(np.asarray(self.s_lam) < 0) or np.any(np.asarray(self.s_gam) < 0):
            raise ValueError(
                f"service times must be non-negative, got {self.s_lam}, {self.s_gam}"
            )

    # ``is_scalar`` — no field is an ndarray (0-d arrays count as
    # arrays) — is computed once in ``__post_init__`` and stored on the
    # instance.
    is_scalar: bool = field(init=False, compare=False, default=True)


def weighted_service_time(inputs: BlockingInputs):
    """Rate-weighted mean service time of the merged stream (eq 30)."""
    if inputs.is_scalar:
        total = inputs.lam + inputs.gam
        if total == 0.0:
            return 0.0
        return (inputs.lam * inputs.s_lam + inputs.gam * inputs.s_gam) / total
    total = np.asarray(inputs.lam, dtype=float) + np.asarray(inputs.gam, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        s_bar = np.where(
            total == 0.0,
            0.0,
            (
                np.asarray(inputs.lam, dtype=float) * np.asarray(inputs.s_lam, dtype=float)
                + np.asarray(inputs.gam, dtype=float) * np.asarray(inputs.s_gam, dtype=float)
            )
            / np.where(total == 0.0, 1.0, total),
        )
    return s_bar


def blocking_probability(inputs: BlockingInputs):
    """Probability the channel is busy on arrival (eq 27), clamped to 1."""
    if inputs.is_scalar:
        return min(inputs.lam * inputs.s_lam + inputs.gam * inputs.s_gam, 1.0)
    return np.minimum(
        np.asarray(inputs.lam, dtype=float) * np.asarray(inputs.s_lam, dtype=float)
        + np.asarray(inputs.gam, dtype=float) * np.asarray(inputs.s_gam, dtype=float),
        1.0,
    )


def blocking_delay_raw(lam, gam, s_lam, s_gam, message_length):
    """Elementwise blocking delay ``B = Pb * wc`` without input validation.

    The arithmetic of :func:`blocking_delay` on already-validated
    broadcastable arrays — the fixed-point hot loop calls this once per
    channel *grid* per iteration, so it skips the per-call
    ``BlockingInputs`` construction, the non-negativity re-checks and
    the ``np.errstate`` guard (the caller brackets a whole model update
    in one; saturated entries divide by zero before being replaced with
    ``inf``).  Always returns an ndarray (no scalar conversion).
    """
    lam = np.asarray(lam, dtype=float)
    gam = np.asarray(gam, dtype=float)
    s_lam = np.asarray(s_lam, dtype=float)
    s_gam = np.asarray(s_gam, dtype=float)
    total = lam + gam
    occupancy = lam * s_lam + gam * s_gam  # eq 27 numerator == S̄ * total
    s_bar = occupancy / np.where(total == 0.0, 1.0, total)
    # Inline eq (28) at (total, s_bar): the merged-stream M/G/1 wait.
    rho = total * s_bar
    lm = np.asarray(message_length, dtype=float)
    second_moment = s_bar**2 + (s_bar - lm) ** 2
    wc = total * second_moment / (2.0 * (1.0 - rho))
    delay = np.minimum(occupancy, 1.0) * wc
    delay = np.where(rho >= 1.0, np.inf, delay)
    return np.where(total == 0.0, 0.0, delay)


def blocking_delay(inputs: BlockingInputs, message_length):
    """Mean blocking delay ``B = Pb * wc`` (eq 26), elementwise.

    Returns ``inf`` where the merged utilisation reaches one — the
    channel is saturated — and ``0.0`` where no traffic is offered.
    Scalar inputs return a ``float``.
    """
    if inputs.is_scalar and not isinstance(message_length, np.ndarray):
        # Pure-float fast path for NDimHotSpotModel's per-channel calls;
        # identical arithmetic to the array path, with eqs 27, 29-30
        # inlined to avoid re-dispatching per component.
        if message_length < 0:
            raise ValueError(
                f"message length must be non-negative, got {message_length}"
            )
        lam, gam = inputs.lam, inputs.gam
        total = lam + gam
        if total == 0.0:
            return 0.0
        occupancy = lam * inputs.s_lam + gam * inputs.s_gam
        s_bar = occupancy / total
        rho = total * s_bar
        if rho >= 1.0:
            return math.inf
        if s_bar == 0.0:
            return 0.0
        # Eq (28) at (total, s_bar) — inputs already validated, so the
        # mg1_waiting_time re-checks are skipped.
        second_moment = s_bar**2 + (s_bar - message_length) ** 2
        wc = total * second_moment / (2.0 * (1.0 - rho))
        return min(occupancy, 1.0) * wc
    if np.any(np.asarray(message_length) < 0):
        raise ValueError(
            f"message length must be non-negative, got {message_length}"
        )
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = blocking_delay_raw(
            inputs.lam, inputs.gam, inputs.s_lam, inputs.s_gam, message_length
        )
    return _scalarize(out, inputs.is_scalar and np.ndim(message_length) == 0)
