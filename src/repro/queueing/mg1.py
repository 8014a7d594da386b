"""M/G/1 waiting time with the paper's variance approximation (eq 28).

The analytical model treats both network channels and the local injection
queue as M/G/1 servers.  The Pollaczek–Khinchine mean waiting time is

    W = rho * S * (1 + C_s^2) / (2 * (1 - rho)),    rho = lam * S,

with ``C_s^2`` the squared coefficient of variation of the service time.
Following Draper & Ghosh [6], the paper approximates the service-time
variance by ``(S - Lm)^2`` — the service time is the fixed message length
``Lm`` plus a fluctuating blocking component, and the fluctuation is
credited with the whole deviation — giving eq (28):

    W(lam, S) = lam * S^2 * (1 + (S - Lm)^2 / S^2) / (2 * (1 - lam * S)).

Loads at or beyond ``rho = 1`` have no finite stationary waiting time;
callers receive infinity, which the fixed-point solver interprets as
saturation.

Every function is array-native: arguments broadcast against each other
per the usual numpy rules, and the return preserves scalarity — float
in, float out; ndarray in, ndarray out.  The 2-D and uniform models
evaluate whole ``k x k`` channel grids (or whole sweep batches) in one
call instead of one Python call per channel.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["mg1_waiting_time", "mg1_waiting_time_cs2"]


def _scalarize(out: np.ndarray, scalar: bool) -> "float | np.ndarray":
    """Return a Python float for all-scalar inputs, the array otherwise."""
    return float(out) if scalar else out


def mg1_waiting_time(lam, service_time, message_length):
    """Mean waiting time of eq (28), elementwise over broadcast inputs.

    Parameters
    ----------
    lam:
        Arrival rate at the queue (messages/cycle); scalar or ndarray.
    service_time:
        Mean service time ``S`` (cycles); scalar or ndarray.
    message_length:
        Fixed message length ``Lm`` (flits == cycles at one flit/cycle);
        used by the variance approximation ``sigma^2 = (S - Lm)^2``.

    Returns
    -------
    float | np.ndarray
        Mean waiting time in cycles; ``inf`` where ``lam * S >= 1``
        (the queue is saturated); ``0.0`` where ``lam`` or ``S`` is
        zero.  Scalar inputs return a ``float``.
    """
    if not (
        isinstance(lam, np.ndarray)
        or isinstance(service_time, np.ndarray)
        or isinstance(message_length, np.ndarray)
    ):
        # Pure-float fast path: NDimHotSpotModel calls this with floats,
        # so it must not pay ndarray dispatch overhead.
        if lam < 0:
            raise ValueError(f"arrival rate must be non-negative, got {lam}")
        if service_time < 0:
            raise ValueError(
                f"service time must be non-negative, got {service_time}"
            )
        if message_length < 0:
            raise ValueError(
                f"message length must be non-negative, got {message_length}"
            )
        if lam == 0.0 or service_time == 0.0:
            return 0.0
        rho = lam * service_time
        if rho >= 1.0:
            return math.inf
        variance = (service_time - message_length) ** 2
        second_moment = service_time**2 + variance
        return lam * second_moment / (2.0 * (1.0 - rho))
    lam_a = np.asarray(lam, dtype=float)
    s_a = np.asarray(service_time, dtype=float)
    lm_a = np.asarray(message_length, dtype=float)
    scalar = lam_a.ndim == 0 and s_a.ndim == 0 and lm_a.ndim == 0
    if np.any(lam_a < 0):
        raise ValueError(f"arrival rate must be non-negative, got {lam}")
    if np.any(s_a < 0):
        raise ValueError(f"service time must be non-negative, got {service_time}")
    if np.any(lm_a < 0):
        raise ValueError(
            f"message length must be non-negative, got {message_length}"
        )
    rho = lam_a * s_a
    variance = (s_a - lm_a) ** 2
    second_moment = s_a**2 + variance
    # P-K formula written as lam * E[S^2] / (2 (1 - rho)); identical to the
    # eq (28) form lam S^2 (1 + (S-Lm)^2/S^2) / (2 (1 - lam S)).
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        wait = lam_a * second_moment / (2.0 * (1.0 - rho))
        wait = np.where(rho >= 1.0, np.inf, wait)
    out = np.where((lam_a == 0.0) | (s_a == 0.0), 0.0, wait)
    return _scalarize(out, scalar)


def mg1_waiting_time_cs2(lam, service_time, cs2):
    """P-K mean waiting time with an explicit squared CV ``C_s^2``.

    Provided for baselines and tests that want the exact M/M/1
    (``cs2=1``) or M/D/1 (``cs2=0``) special cases rather than the
    paper's variance approximation.  Broadcasts like
    :func:`mg1_waiting_time`.
    """
    lam_a = np.asarray(lam, dtype=float)
    s_a = np.asarray(service_time, dtype=float)
    cs2_a = np.asarray(cs2, dtype=float)
    scalar = lam_a.ndim == 0 and s_a.ndim == 0 and cs2_a.ndim == 0
    if np.any(lam_a < 0):
        raise ValueError(f"arrival rate must be non-negative, got {lam}")
    if np.any(s_a < 0):
        raise ValueError(f"service time must be non-negative, got {service_time}")
    if np.any(cs2_a < 0):
        raise ValueError(f"squared CV must be non-negative, got {cs2}")
    rho = lam_a * s_a
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        wait = rho * s_a * (1.0 + cs2_a) / (2.0 * (1.0 - rho))
        wait = np.where(rho >= 1.0, np.inf, wait)
    out = np.where((lam_a == 0.0) | (s_a == 0.0), 0.0, wait)
    return _scalarize(out, scalar)
