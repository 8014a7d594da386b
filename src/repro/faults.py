"""Deterministic fault injection for chaos-testing the sweep stack.

Enabled by the environment variable ``REPRO_FAULTS`` — a semicolon-
separated list of fault specs::

    REPRO_FAULTS="crash:rate=0.2,seed=1;hang:rate=0.1,seed=2,secs=30"
    REPRO_FAULTS="solver:rate=0.05,seed=3;cache:rate=0.5,seed=4"
    REPRO_FAULTS="solver"            # rate defaults to 1.0 (always)

Fault kinds
-----------
``crash``
    A pool worker calls ``os._exit`` before simulating its point —
    the process dies abruptly and the parent sees ``BrokenProcessPool``.
    Only fires inside worker processes, never in the parent.
``hang``
    A pool worker sleeps ``secs`` (default 30) before simulating —
    long enough to trip the engine's per-point timeout.  Worker-only.
``solver``
    :class:`~repro.core.fixed_point.FixedPointSolver` raises an
    :class:`InjectedFault` for the affected solve (scalar) or rows
    (batched) — exercising the solver's failure-record path.
``cache``
    :class:`~repro.store.ResultStore` ``.put`` writes a corrupted entry
    (truncated body), so the next read must quarantine and recompute.

Determinism
-----------
Every decision is a pure function of the spec's ``seed``, the fault
kind, and a stable key — for ``crash``/``hang`` the point's SHA-256
per-point seed *and the attempt number*, so a point that crashes on
attempt 0 draws afresh on attempt 1 and the retried run reproduces the
fault-free result bit for bit.  ``solver`` draws are keyed on a
per-process call counter; ``cache`` draws on the cache key, so the same
entry is corrupted on every write (the cache stays ineffective for that
point, results stay correct).

All parse errors raise :class:`ValueError` naming ``REPRO_FAULTS``.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.fixed_point import UpdateFailure

__all__ = [
    "FAULT_KINDS",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "active_plan",
    "corrupt_cache_body",
    "maybe_solver_fault",
    "on_point_attempt",
    "parse_faults",
    "solver_fault_flags",
]

ENV_VAR = "REPRO_FAULTS"
FAULT_KINDS = ("crash", "hang", "solver", "cache")

#: Exit status of an injected worker crash (visible in core dumps/logs).
CRASH_EXIT_CODE = 77


class InjectedFault(UpdateFailure):
    """An artificial failure raised by the fault-injection harness."""


@dataclass(frozen=True)
class FaultSpec:
    """One parsed fault kind: probability, RNG seed, kind-specific knobs."""

    kind: str
    rate: float = 1.0
    seed: int = 0
    secs: float = 30.0  # hang duration; only meaningful for kind="hang"


class FaultPlan:
    """The active set of fault specs, with deterministic trigger draws."""

    def __init__(self, specs: Dict[str, FaultSpec]) -> None:
        self.specs = dict(specs)

    def spec(self, kind: str) -> Optional[FaultSpec]:
        return self.specs.get(kind)

    @staticmethod
    def draw(spec: FaultSpec, *key_parts: object) -> float:
        """Uniform [0, 1) value, a pure function of (kind, seed, key)."""
        blob = ":".join([spec.kind, str(spec.seed), *map(str, key_parts)])
        digest = hashlib.sha256(blob.encode()).digest()
        return int.from_bytes(digest[:8], "little") / 2.0**64

    def triggers(self, kind: str, *key_parts: object) -> bool:
        spec = self.specs.get(kind)
        if spec is None or spec.rate <= 0.0:
            return False
        return self.draw(spec, *key_parts) < spec.rate


def parse_faults(raw: str) -> FaultPlan:
    """Parse a ``REPRO_FAULTS`` spec string (see module docstring)."""
    specs: Dict[str, FaultSpec] = {}
    for chunk in raw.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        kind, _, params_raw = chunk.partition(":")
        kind = kind.strip().lower()
        if kind not in FAULT_KINDS:
            raise ValueError(
                f"{ENV_VAR}: unknown fault kind {kind!r} "
                f"(expected one of {', '.join(FAULT_KINDS)})"
            )
        if kind in specs:
            raise ValueError(f"{ENV_VAR}: duplicate fault kind {kind!r}")
        fields: Dict[str, float] = {}
        for param in filter(None, (p.strip() for p in params_raw.split(","))):
            name, sep, value = param.partition("=")
            name = name.strip()
            if not sep or name not in ("rate", "seed", "secs"):
                raise ValueError(
                    f"{ENV_VAR}: bad parameter {param!r} for {kind!r} "
                    f"(expected rate=, seed= or secs=)"
                )
            try:
                fields[name] = float(value)
            except ValueError:
                raise ValueError(
                    f"{ENV_VAR}: {kind}:{name} must be a number, got {value!r}"
                ) from None
        rate = fields.get("rate", 1.0)
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"{ENV_VAR}: {kind}:rate must be in [0, 1], got {rate}")
        secs = fields.get("secs", 30.0)
        if secs <= 0:
            raise ValueError(f"{ENV_VAR}: {kind}:secs must be positive, got {secs}")
        specs[kind] = FaultSpec(
            kind=kind, rate=rate, seed=int(fields.get("seed", 0)), secs=secs
        )
    return FaultPlan(specs)


# Cache keyed on the raw env value so monkeypatched tests and freshly
# forked workers each parse at most once per distinct spec string.
_plan_cache: Tuple[Optional[str], Optional[FaultPlan]] = (None, None)


def active_plan() -> Optional[FaultPlan]:
    """The plan parsed from ``$REPRO_FAULTS``, or ``None`` when unset."""
    global _plan_cache
    raw = os.environ.get(ENV_VAR, "").strip()
    if not raw:
        return None
    if _plan_cache[0] != raw:
        _plan_cache = (raw, parse_faults(raw))
    return _plan_cache[1]


def _in_worker() -> bool:
    import multiprocessing

    return multiprocessing.parent_process() is not None


# ----------------------------------------------------------------------
# Injection hooks
# ----------------------------------------------------------------------
def on_point_attempt(point_key: object, attempt: int) -> None:
    """Crash/hang hook run at the top of every simulated point attempt.

    Only fires inside pool workers: killing or stalling the parent
    process would take down the campaign the harness exists to test.
    """
    plan = active_plan()
    if plan is None or not _in_worker():
        return
    if plan.triggers("crash", point_key, attempt):
        os._exit(CRASH_EXIT_CODE)
    hang = plan.spec("hang")
    if hang is not None and plan.triggers("hang", point_key, attempt):
        time.sleep(hang.secs)


_solver_calls = itertools.count()


def maybe_solver_fault() -> None:
    """Raise :class:`InjectedFault` for this scalar solve when drawn."""
    plan = active_plan()
    if plan is None:
        return
    call = next(_solver_calls)
    if plan.triggers("solver", call):
        raise InjectedFault(f"injected solver fault (call {call})")


def solver_fault_flags(count: int) -> Optional[List[bool]]:
    """Per-row injected-fault flags for a batched solve (``None`` if off)."""
    plan = active_plan()
    if plan is None or plan.spec("solver") is None:
        return None
    return [plan.triggers("solver", next(_solver_calls)) for _ in range(count)]


def corrupt_cache_body(cache_key: str, body: str) -> str:
    """Return ``body``, truncated to garbage when the cache fault draws."""
    plan = active_plan()
    if plan is None or not plan.triggers("cache", cache_key):
        return body
    return body[: max(1, len(body) // 2)]

