"""Sweep execution backends (see :mod:`repro.backends.base`).

``resolve_backend`` maps user-facing selector strings to instances:

* ``"local"`` (default) — with ``jobs=1`` the :class:`InlineBackend`,
  which runs points one at a time in this process; with ``jobs > 1`` the
  :class:`LocalPoolBackend`, a resilient pool of ``jobs`` processes.
* ``"file:<campaign-dir>"`` — a :class:`FileQueueBackend` coordinating
  externally started ``repro worker`` processes on a shared filesystem.

The environment variable ``REPRO_BACKEND`` supplies the default
selector when the engine is constructed without an explicit backend.
"""

from __future__ import annotations

import os
from typing import Optional, Union

from repro._lazy import lazy_exports
from repro.backends.base import SweepBackend
from repro.backends.local import InlineBackend, LocalPoolBackend

# Only ``file:`` selectors need the file queue.
__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.backends.filequeue": ("FileQueueBackend",),
})

__all__ = [
    "BACKEND_ENV_VAR",
    "FileQueueBackend",
    "InlineBackend",
    "LocalPoolBackend",
    "SweepBackend",
    "resolve_backend",
]

BACKEND_ENV_VAR = "REPRO_BACKEND"


def resolve_backend(
    selector: Optional[Union[str, SweepBackend]] = None, *, jobs: int = 1
) -> SweepBackend:
    """Build a backend from a selector string, instance, or the environment.

    ``None`` consults ``$REPRO_BACKEND`` and falls back to ``"local"``.
    ``jobs`` picks the local backend — in-process for ``1``, a pool of
    ``jobs`` processes otherwise — and is ignored by distributed
    backends, whose parallelism is however many workers join the
    campaign.
    """
    if isinstance(selector, SweepBackend):
        return selector
    if selector is None:
        selector = os.environ.get(BACKEND_ENV_VAR, "").strip() or "local"
    name, _, arg = selector.partition(":")
    name = name.strip().lower()
    if name == "local":
        if arg:
            raise ValueError(
                f"backend selector {selector!r}: 'local' takes no argument"
            )
        if jobs == 1:
            return InlineBackend()
        return LocalPoolBackend(jobs=jobs)
    if name == "file":
        if not arg:
            raise ValueError(
                f"backend selector {selector!r}: expected 'file:<campaign-dir>'"
            )
        from repro.backends.filequeue import FileQueueBackend

        return FileQueueBackend(arg)
    raise ValueError(
        f"unknown sweep backend {name!r} (expected 'local' or 'file:<dir>')"
    )
