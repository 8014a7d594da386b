"""Sweep execution backends (see :mod:`repro.backends.base`).

The sweep engine picks one from ``jobs`` alone: the
:class:`InlineBackend`, which runs points one at a time in this
process, at ``jobs=1``, and the :class:`LocalPoolBackend`, a resilient
pool of ``jobs`` processes, above.
"""

from repro.backends.base import SweepBackend
from repro.backends.local import InlineBackend, LocalPoolBackend

__all__ = [
    "InlineBackend",
    "LocalPoolBackend",
    "SweepBackend",
]
