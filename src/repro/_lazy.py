"""Lazy package exports (PEP 562).

A package ``__init__`` that re-exports names from its submodules would
import every submodule whenever any one of them is needed — Python runs
``repro/__init__.py`` before ``repro.core.model``, for instance.  Instead
each package names where its exports live and installs the pair this
module builds::

    __getattr__, __dir__ = lazy_exports(__name__, {
        "repro.core.model": ("HotSpotLatencyModel", ...),
    })

The first access of an exported name (``pkg.Name``, ``from pkg import
Name`` or ``from pkg import *``) imports its defining module and binds
the object on the package, so later accesses are plain attribute reads.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, Iterable, List, Mapping, Tuple

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, modules: Mapping[str, Iterable[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` serving ``modules``' names on ``package``.

    ``modules`` maps each defining module to the names it exports.
    """
    where: Dict[str, str] = {
        name: module for module, names in modules.items() for name in names
    }

    def __getattr__(name: str) -> object:
        try:
            module = where[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(where))

    return __getattr__, __dir__
