"""Pure-function forms of the paper's model equations.

Everything in this module is stateless.  :mod:`repro.core.model`
builds its zero-load state from these functions and evaluates the same
recurrences as whole-grid cumulative sums; the per-channel reference
oracle of ``tests/test_model_kernel_equivalence.py`` wires them
together one channel at a time.  Keeping them free-standing makes each
equation unit-testable against first-principles enumeration (see
``tests/test_equations.py``).

Naming: the paper's 2-D torus has dimensions x (crossed first) and y;
the *hot y-ring* is the column containing the hot-spot node.  Messages
fall into the path classes

=============  =====================================================
class           description
=============  =====================================================
``hy``          regular, travels only in the hot y-ring
``hybar``       regular, travels only in a non-hot y-ring
``x``           regular, travels only in dimension x
``xhy``         regular, crosses x then finishes in the hot y-ring
``xhybar``      regular, crosses x then finishes in a non-hot y-ring
``h_y``         hot-spot, generated inside the hot y-ring
``h_x``         hot-spot, generated outside the hot y-ring
=============  =====================================================
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PathProbabilities",
    "regular_service_profile",
    "chained_service_profile",
    "hot_y_service_profile",
    "hot_x_service_profile",
]


@dataclass(frozen=True)
class PathProbabilities:
    """Exact path-class probabilities for uniform destinations.

    Derived by counting (source, destination) pairs of the ``k x k``
    torus with destinations uniform over the other ``N-1 = k^2-1``
    nodes; all the paper's coefficients (eqs 12, 13, 15, 31) coincide
    with these exact counts.

    Attributes
    ----------
    p_hot_y_only:
        Source and destination both in the hot column (eq 12 weight):
        ``1 / (k(k+1))``.
    p_nonhot_y_only:
        Same column, not the hot one (eq 13 weight):
        ``(k-1) / (k(k+1))``.
    p_enter_x:
        Destination in a different column (eq 14 weight): ``k/(k+1)``.
    p_x_only_given_x:
        Destination in the same row, conditional on entering x: ``1/k``.
    p_x_to_hot_given_x:
        Continue into the hot column, conditional on entering x:
        ``(k-1)/k²``.
    p_x_to_nonhot_given_x:
        Continue into a non-hot column, conditional: ``(k-1)²/k²``.
    """

    k: int

    @property
    def p_hot_y_only(self) -> float:
        k = self.k
        return 1.0 / (k * (k + 1))

    @property
    def p_nonhot_y_only(self) -> float:
        k = self.k
        return (k - 1.0) / (k * (k + 1))

    @property
    def p_enter_x(self) -> float:
        k = self.k
        return k / (k + 1.0)

    @property
    def p_x_only_given_x(self) -> float:
        return 1.0 / self.k

    @property
    def p_x_to_hot_given_x(self) -> float:
        k = self.k
        return (k - 1.0) / k**2

    @property
    def p_x_to_nonhot_given_x(self) -> float:
        k = self.k
        return (k - 1.0) ** 2 / k**2

    def total(self) -> float:
        """Sanity check: the class probabilities sum to one."""
        return (
            self.p_hot_y_only
            + self.p_nonhot_y_only
            + self.p_enter_x
            * (
                self.p_x_only_given_x
                + self.p_x_to_hot_given_x
                + self.p_x_to_nonhot_given_x
            )
        )


def regular_service_profile(
    k: int, blocking: float, message_length: float
) -> np.ndarray:
    """Service times of a class terminating at its destination (eqs 16-18).

    With a position-independent mean blocking delay ``B`` the recurrence

        S_1 = 1 + B + Lm,      S_j = 1 + B + S_{j-1}

    closes to ``S_j = j (1 + B) + Lm``.  Returns the array ``S_1..S_k``
    (index ``[j-1]``); ``S_k`` is the paper's "service time at the
    entrance of the dimension".

    An infinite blocking delay (saturated channel) propagates to every
    position.
    """
    if k < 2:
        raise ValueError(f"radix must be >= 2, got {k}")
    if message_length < 1:
        raise ValueError(f"message length must be >= 1, got {message_length}")
    j = np.arange(1, k + 1, dtype=float)
    return j * (1.0 + blocking) + message_length


def chained_service_profile(
    k: int, blocking: float, next_dimension_entry: float
) -> np.ndarray:
    """Service times of an x class that continues into y (eqs 19-20).

    The ``j = 1`` case chains into the next dimension's entrance service
    time instead of draining the message:

        S_1 = 1 + B + S_y_entry,     S_j = 1 + B + S_{j-1}
        =>   S_j = j (1 + B) + S_y_entry.
    """
    if k < 2:
        raise ValueError(f"radix must be >= 2, got {k}")
    if next_dimension_entry < 0:
        raise ValueError(
            f"next-dimension entry time must be >= 0, got {next_dimension_entry}"
        )
    j = np.arange(1, k + 1, dtype=float)
    return j * (1.0 + blocking) + next_dimension_entry


def hot_y_service_profile(
    k: int, blocking_per_position: np.ndarray, message_length: float
) -> np.ndarray:
    """Hot-spot service times inside the hot y-ring (eq 23).

    ``blocking_per_position[j-1]`` is the mean blocking delay at the
    hot-ring channel ``j`` hops from the hot node.  Unlike the regular
    classes, blocking here is position-*dependent* (the hot rate
    ``lam^h_y,j`` grows towards the hot node), so the recurrence is
    evaluated literally:

        S^h_y,1 = 1 + B_1 + Lm,     S^h_y,j = 1 + B_j + S^h_y,j-1.

    Returns ``S^h_y,1..S^h_y,k-1`` (a hot-spot message makes at most
    ``k-1`` hops); index ``[j-1]``.
    """
    b = np.asarray(blocking_per_position, dtype=float)
    if b.shape != (k - 1,) and b.shape != (k,):
        raise ValueError(
            f"expected k-1={k-1} (or k) blocking values, got shape {b.shape}"
        )
    out = np.empty(k - 1)
    out[0] = 1.0 + b[0] + message_length
    for j in range(1, k - 1):
        out[j] = 1.0 + b[j] + out[j - 1]
    return out


def hot_x_service_profile(
    k: int,
    blocking_per_position: np.ndarray,
    hot_y_profile: np.ndarray,
    message_length: float,
) -> np.ndarray:
    """Hot-spot service times for sources outside the hot ring (eq 25).

    ``blocking_per_position[j-1, t-1]`` is the blocking delay at the x
    channel ``j`` hops from the hot column inside the x-ring (row) ``t``
    hops from the hot node (``t = k``: the hot node's own row).

    The last x hop (``j = 1``) either delivers the message (``t = k``,
    the row contains the hot node) or chains into the hot ring at
    y-distance ``t`` (``t != k``):

        S^h_x,1,k = 1 + B_{1,k} + Lm
        S^h_x,1,t = 1 + B_{1,t} + S^h_y,t          (t = 1..k-1)
        S^h_x,j,t = 1 + B_{j,t} + S^h_x,j-1,t      (j = 2..k-1)

    Returns the ``(k-1, k)`` array indexed ``[j-1, t-1]``.
    """
    b = np.asarray(blocking_per_position, dtype=float)
    if b.shape != (k - 1, k):
        raise ValueError(f"expected blocking shape {(k - 1, k)}, got {b.shape}")
    hy = np.asarray(hot_y_profile, dtype=float)
    if hy.shape != (k - 1,):
        raise ValueError(f"expected hot-y profile of length {k - 1}, got {hy.shape}")
    out = np.empty((k - 1, k))
    # j = 1 row: chain into y (t = 1..k-1) or deliver (t = k).
    out[0, : k - 1] = 1.0 + b[0, : k - 1] + hy
    out[0, k - 1] = 1.0 + b[0, k - 1] + message_length
    for j in range(1, k - 1):
        out[j, :] = 1.0 + b[j, :] + out[j - 1, :]
    return out
