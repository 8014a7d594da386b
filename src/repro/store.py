"""Shared content-addressed result store for sweep campaigns.

:class:`ResultStore` is the on-disk JSON point cache of the sweep
engine, a shared store so that *any number of concurrent writers* —
two ``repro`` processes pointed at one ``$REPRO_CACHE_DIR``, say — can
populate one directory safely:

* Entries are **content-addressed**: the file name is the SHA-256 hash
  of the full :class:`~repro.simulator.config.SimulationConfig`
  (:func:`config_key`), which includes the deterministic per-point
  seed, so identical work maps to identical keys in every process.
* Writes are **crash-consistent**: every writer writes to a unique
  ``*.tmp`` name (pid + per-process counter, so two processes never
  collide) and publishes with an atomic ``rename`` —
  readers see either the old entry, the new entry, or a miss, never a
  torn file.  Concurrent writers of the same key are harmless: the
  entries are bit-identical by construction (results are pure functions
  of the config), so last-rename-wins is a no-op.
* Reads are **validated**: entry bodies carry a schema version and a
  payload checksum; corrupt, truncated or stale-schema entries are
  quarantined to ``corrupt/<key>.<reason>.json`` and reported as a
  miss, never raised on.
* Interrupted writers leave ``*.tmp`` orphans; :meth:`clean_stale_tmp`
  sweeps ones older than :data:`TMP_MAX_AGE_SECONDS` on startup (young
  tmps may belong to a live concurrent writer).

The store root is ``$REPRO_CACHE_DIR`` when set, else
``~/.cache/repro/sweeps`` (:func:`default_store_dir`).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import time
from dataclasses import asdict
from pathlib import Path
from typing import Optional

from repro import faults
from repro.core.results import SweepPoint
from repro.simulator.config import SimulationConfig

__all__ = [
    "CACHE_VERSION",
    "TMP_MAX_AGE_SECONDS",
    "ResultStore",
    "atomic_write_text",
    "config_key",
    "default_store_dir",
    "payload_checksum",
]

#: Bump to orphan every existing store entry (format or semantics change).
#: Version 2 added the in-body schema/checksum envelope; version 3 marks
#: the one-generator random stream, under which the same configuration
#: simulates to different numbers.
CACHE_VERSION = 3

#: ``*.tmp`` files older than this are orphans of an interrupted writer
#: and are removed by :meth:`ResultStore.clean_stale_tmp` (young ones may
#: belong to a concurrently running writer).
TMP_MAX_AGE_SECONDS = 600.0

#: Per-process counter making tmp names unique even within one process.
_tmp_counter = itertools.count()


def default_store_dir() -> Path:
    """Store root: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro/sweeps``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "sweeps"


def config_key(cfg: SimulationConfig) -> str:
    """SHA-256 content address of a full simulation configuration.

    Derived from the JSON form of every config field (the per-point
    seed included) plus the store format version, so every process
    sharing a store shares one key space.
    """
    payload = {"version": CACHE_VERSION, "config": asdict(cfg)}
    blob = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


def payload_checksum(payload: dict) -> str:
    """SHA-256 checksum of an entry payload (stored in the entry body)."""
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()


def _unique_tmp(path: Path) -> Path:
    """A writer-unique sibling ``*.tmp`` name for ``path``.

    pid + per-process counter: concurrent processes (or two writes from
    one process) never clobber each other's half-written file; at worst
    two writers race to publish bit-identical content.
    """
    return path.with_suffix(f".{os.getpid()}.{next(_tmp_counter)}.tmp")


def atomic_write_text(path: Path, body: str) -> None:
    """Crash-consistent write: unique tmp + fsync + atomic rename."""
    path = Path(path)
    tmp = _unique_tmp(path)
    with open(tmp, "w") as fh:
        fh.write(body)
        fh.flush()
        try:
            os.fsync(fh.fileno())
        except OSError:
            pass
    os.replace(tmp, path)


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


class ResultStore:
    """One JSON file per simulated point, keyed by the config hash.

    Entry bodies are versioned and checksummed::

        {"schema": 3, "payload": {rate, latency, saturated}, "checksum": ...}

    :meth:`get` validates schema version, checksum and field types; any
    corrupt, truncated or stale-schema entry is *quarantined* — moved to
    ``<root>/corrupt/<key>.<reason>.json`` so the damage stays
    inspectable — and the point recomputed.  Reads never raise.

    Writes go through a unique ``*.tmp`` plus atomic rename
    (:func:`atomic_write_text`), so any number of concurrent writers can
    share one store directory: entries for the same key are
    bit-identical by construction and last-rename-wins is harmless.
    """

    def __init__(self, root: "Path | str") -> None:
        self.root = Path(root)

    def _path(self, cfg: SimulationConfig) -> Path:
        return self.root / f"{config_key(cfg)}.json"

    def clean_stale_tmp(self, max_age: float = TMP_MAX_AGE_SECONDS) -> int:
        """Remove orphaned ``*.tmp`` files left by interrupted writers.

        Only files older than ``max_age`` seconds go (a young tmp may
        belong to a concurrently running writer).  Returns the count
        removed; never raises.
        """
        try:
            candidates = list(self.root.glob("*.tmp"))
        except OSError:
            return 0
        removed = 0
        now = time.time()
        for tmp in candidates:
            try:
                if now - tmp.stat().st_mtime >= max_age:
                    tmp.unlink()
                    removed += 1
            except OSError:
                continue
        return removed

    def _quarantine(self, path: Path, reason: str) -> None:
        """Move a bad entry to ``corrupt/`` (best-effort, never raises)."""
        try:
            dest_dir = self.root / "corrupt"
            dest_dir.mkdir(parents=True, exist_ok=True)
            path.replace(dest_dir / f"{path.stem}.{reason}.json")
        except OSError:
            try:
                path.unlink()
            except OSError:
                pass

    def get(self, cfg: SimulationConfig) -> Optional[SweepPoint]:
        path = self._path(cfg)
        try:
            raw = path.read_text()
        except OSError:
            return None  # plain miss
        except UnicodeDecodeError:
            self._quarantine(path, "parse")
            return None
        try:
            data = json.loads(raw)
        except ValueError:
            self._quarantine(path, "parse")
            return None
        if not isinstance(data, dict) or data.get("schema") != CACHE_VERSION:
            self._quarantine(path, "schema")
            return None
        payload = data.get("payload")
        if not isinstance(payload, dict) or data.get(
            "checksum"
        ) != payload_checksum(payload):
            self._quarantine(path, "checksum")
            return None
        rate = payload.get("rate")
        latency = payload.get("latency")
        saturated = payload.get("saturated")
        if (
            not _is_number(rate)
            or not _is_number(latency)
            or not isinstance(saturated, bool)
        ):
            self._quarantine(path, "fields")
            return None
        return SweepPoint(
            rate=float(rate), latency=float(latency), saturated=saturated
        )

    def put(self, cfg: SimulationConfig, point: SweepPoint) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        path = self._path(cfg)
        payload = {
            "rate": point.rate,
            "latency": point.latency,
            "saturated": point.saturated,
        }
        body = json.dumps(
            {
                "schema": CACHE_VERSION,
                "payload": payload,
                "checksum": payload_checksum(payload),
            },
            sort_keys=True,
        )
        # Chaos hook: the fault harness may hand back a truncated body,
        # which the next get() must quarantine and recompute.
        body = faults.corrupt_cache_body(path.stem, body)
        atomic_write_text(path, body)
