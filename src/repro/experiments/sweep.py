"""Parallel, cached, warm-started, fault-tolerant sweep engine.

Every figure of the paper is a *load sweep*: the analytical model and
the flit-level simulator evaluated over a grid of injection rates.  The
:class:`SweepEngine` is the one place that work is orchestrated:

One campaign loop
    Simulation points — of one panel, or of every panel of a figure at
    once — run as one campaign whose work unit is a single point.  Each
    grid point gets a *deterministic per-point seed* derived from
    ``(base seed, panel name, point index)`` via SHA-256
    (:func:`point_seed`), so results are bit-identical for any ``jobs``
    value: ``jobs=1`` runs the points one at a time and never starts a
    point past a panel's first saturated one, while ``jobs>1`` runs
    them concurrently and cancels queued points past it as soon as it
    is known.  Either way the series is truncated at the first
    saturated point, so the returned
    :class:`~repro.core.results.SweepResult` is identical.

Two execution backends
    Every campaign runs on a :class:`~repro.backends.SweepBackend`
    picked from ``jobs`` alone: the
    :class:`~repro.backends.InlineBackend` (in this process) for
    ``jobs=1`` and the :class:`~repro.backends.LocalPoolBackend` (a
    resilient pool of ``jobs`` processes) otherwise — results are
    bit-identical on both.

Fault tolerance
    Points run under the backend's retry policy: on the pool every
    attempt gets a wall-clock timeout (``point_timeout``), failed
    attempts are retried with capped exponential backoff
    (``max_retries``), a crashed worker rebuilds the pool and resubmits
    only the unfinished points, and each completed point is cached and
    journaled the moment its future resolves — one worker death no
    longer discards a panel's finished points.  Retries are
    deterministic: a retried point re-runs the same per-point seed, so
    a faulty campaign produces bit-identical points to a fault-free
    one.  Terminal failures become structured
    :class:`~repro.resilience.PointFailure` records on
    ``SweepResult.failures`` instead of a lost panel.  The
    fault-injection harness (:mod:`repro.faults`, ``REPRO_FAULTS``)
    chaos-tests exactly these paths.

Resumable campaigns
    :meth:`SweepEngine.run_panels` (and :meth:`run_panel`) append every
    point's status to a JSONL checkpoint journal
    (:class:`~repro.resilience.CheckpointJournal`) under
    ``<cache dir>/journal/<campaign-hash>.jsonl``.  An interrupted
    campaign re-run with ``resume=True`` (CLI ``--resume``) restores
    every checkpointed point from the journal — even with the result
    cache disabled — and computes only the remainder.

Batched, warm-started model sweeps
    Successive grid points differ only in the injection rate, so the
    fixed point at one rate is an excellent initial state for the next.
    A panel's whole rate grid is *one* batched fixed-point solve with
    per-point convergence masking and warm starts chained along the rate
    axis; every point converges (to solver tolerance) on the same fixed
    point as a cold solve.

On-disk result cache
    Each simulated point is persisted as a small JSON file keyed by the
    SHA-256 hash of its full :class:`~repro.simulator.config
    .SimulationConfig` (plus a cache-format version).  Entries carry a
    schema version and a payload checksum *in the body*: corrupt,
    truncated or stale-schema files are quarantined to a ``corrupt/``
    subdirectory (and the point recomputed) rather than silently
    ignored, and stale ``*.tmp`` files left by interrupted writers are
    swept on engine startup.  The cache lives in ``$REPRO_CACHE_DIR``
    when set, else ``~/.cache/repro/sweeps``; ``use_cache=False`` (CLI
    ``--no-cache``) bypasses it entirely.  The implementation is the
    shared :class:`repro.store.ResultStore` — concurrent-writer safe
    (unique-tmp + atomic rename), so two ``repro`` processes can share
    one store.

The legacy entry points :func:`repro.experiments.runner.run_panel` and
``run_panel_model_only`` delegate here with ``jobs=1``, which runs the
same campaign loop on the in-process backend.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro import faults
from repro.backends import InlineBackend, LocalPoolBackend
from repro.core.model import HotSpotLatencyModel
from repro.core.results import SweepPoint, SweepResult
from repro.experiments.figures import PanelSpec
from repro.resilience import (
    CheckpointJournal,
    ExecutorStats,
    PointFailure,
    RetryPolicy,
)
from repro.simulator.config import SimulationConfig
from repro.simulator.sim import Simulation
from repro.store import ResultStore, config_key, default_store_dir

__all__ = [
    "PanelResult",
    "SweepEngine",
    "config_key",
    "default_cache_dir",
    "point_seed",
    "sim_jobs",
    "sim_measure_cycles",
]

#: Bump when the checkpoint-journal campaign format changes.
_JOURNAL_VERSION = 1


def default_cache_dir() -> Path:
    """Cache root: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro/sweeps``."""
    return default_store_dir()


def sim_measure_cycles(default: int = 120_000) -> int:
    """Measurement cycles per simulation point (env-overridable).

    Reads ``REPRO_SIM_CYCLES``; raises a :class:`ValueError` naming the
    variable when it is set to a non-integer or unusably small value.
    """
    raw = os.environ.get("REPRO_SIM_CYCLES", "")
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"REPRO_SIM_CYCLES must be an integer number of cycles, "
            f"got {raw!r}"
        ) from None
    if value < 1_000:
        raise ValueError(
            f"REPRO_SIM_CYCLES={value} too small; need >= 1000 for meaningful stats"
        )
    return value


def sim_jobs(default: int = 1) -> int:
    """Simulation worker processes (``REPRO_JOBS``, env-overridable).

    The one validated parse shared by the examples and benchmarks;
    raises a :class:`ValueError` naming the variable on bad input.
    """
    raw = os.environ.get("REPRO_JOBS", "")
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"REPRO_JOBS must be an integer number of workers, got {raw!r}"
        ) from None
    if value < 1:
        raise ValueError(f"REPRO_JOBS must be >= 1, got {value}")
    return value


def point_seed(base_seed: int, panel: str, index: int) -> int:
    """Deterministic RNG seed for grid point ``index`` of ``panel``.

    Derived by hashing ``(base_seed, panel, index)`` with SHA-256 — not
    Python's randomised ``hash()`` — so the same sweep produces the
    same seeds in every process and on every run.  Distinct points get
    decorrelated Poisson streams instead of replaying one seed per rate.
    """
    digest = hashlib.sha256(f"{base_seed}:{panel}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


@dataclass
class PanelResult:
    """Paired model/simulation curves for one panel."""

    spec: PanelSpec
    model: SweepResult
    simulation: Optional[SweepResult]

    def paired_points(self) -> List[tuple]:
        """(rate, model latency, sim latency) rows, sim ``nan`` if absent."""
        sim_by_rate = {}
        if self.simulation is not None:
            sim_by_rate = {p.rate: p for p in self.simulation.points}
        rows = []
        for p in self.model.points:
            s = sim_by_rate.get(p.rate)
            rows.append(
                (p.rate, p.latency, s.latency if s is not None else math.nan)
            )
        return rows


def _simulate_point(cfg: SimulationConfig, attempt: int = 0) -> SweepPoint:
    """The campaign's work unit: one simulation run -> one sweep point.

    ``attempt`` feeds the deterministic fault-injection harness only
    (crash/hang draws are keyed on the point seed *and* the attempt, so
    a retried point draws afresh); the simulation itself depends solely
    on ``cfg``, which is what keeps retried results bit-identical.
    """
    faults.on_point_attempt(cfg.seed, attempt)
    res = Simulation(cfg).run()
    latency = math.inf if res.saturated else res.mean_latency
    return SweepPoint(rate=cfg.rate, latency=latency, saturated=res.saturated)


#: Campaign-internal point key: ``(panel name, grid index)``.
_PointKey = Tuple[str, int]


class SweepEngine:
    """Runs model/simulation load sweeps: parallel, resilient, cached.

    Parameters
    ----------
    jobs:
        Simulation worker processes; this alone picks the backend.
        ``1`` (default) runs points one at a time in this process
        (:class:`~repro.backends.InlineBackend`); ``>1`` runs the points
        of every panel of a call on a pool of ``jobs`` processes
        (:class:`~repro.backends.LocalPoolBackend`).  Each series is
        truncated at its first saturated point, so results are
        bit-identical for every ``jobs``.
    use_cache:
        Consult/populate the on-disk point cache (see module docstring).
    cache_dir:
        Cache root; defaults to :func:`default_cache_dir`.  Also hosts
        the campaign checkpoint journals (``journal/`` subdirectory).
    warm_start:
        Chain each model point's converged fixed-point state into the
        next rate's solve (identical results to solver tolerance, far
        fewer iterations).
    max_retries:
        Extra attempts per simulation point after the first (default 2).
        Retried points re-run the same per-point seed, so results stay
        bit-identical to a fault-free run; a point that exhausts its
        budget becomes a :class:`~repro.resilience.PointFailure` record
        on ``SweepResult.failures``.
    point_timeout:
        Wall-clock seconds per point attempt.  A timed-out worker is
        presumed hung, terminated, and its point retried on a rebuilt
        pool.  Only the local pool (``jobs > 1``) can enforce it, so
        ``jobs=1`` raises :class:`ValueError`.  ``None`` (default)
        disables the deadline.
    backoff_base:
        Base of the capped exponential retry backoff (seconds).
    resume:
        Default for :meth:`run_panels`'s ``resume``: restore
        checkpointed points from the campaign journal instead of
        recomputing them.

    ``stats`` accumulates :class:`~repro.resilience.ExecutorStats`
    (retries, timeouts, pool rebuilds, terminal failures) across this
    engine's campaigns.

    Examples
    --------
    >>> from repro.experiments import SweepEngine, get_panel
    >>> engine = SweepEngine(jobs=4)
    >>> result = engine.run_panel(get_panel("fig1_h20"), simulate=False)
    >>> result.model.saturation_rate() is not None
    True
    """

    def __init__(
        self,
        jobs: int = 1,
        *,
        use_cache: bool = True,
        cache_dir: "Path | str | None" = None,
        warm_start: bool = True,
        max_retries: int = 2,
        point_timeout: Optional[float] = None,
        backoff_base: float = 0.05,
        resume: bool = False,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = int(jobs)
        self.warm_start = bool(warm_start)
        self.policy = RetryPolicy(
            max_retries=max_retries,
            point_timeout=point_timeout,
            backoff_base=backoff_base,
        )
        self.resume = bool(resume)
        self.stats = ExecutorStats()
        if point_timeout is not None and self.jobs == 1:
            raise ValueError(
                f"point_timeout={point_timeout:g} can only be enforced on "
                "the local process pool (jobs > 1); got jobs=1 on the "
                "'local' backend"
            )
        self.backend = (
            InlineBackend() if self.jobs == 1 else LocalPoolBackend(self.jobs)
        )
        self.cache_root = (
            Path(cache_dir) if cache_dir is not None else default_cache_dir()
        )
        self.cache = ResultStore(self.cache_root) if use_cache else None
        if self.cache is not None:
            self.cache.clean_stale_tmp()

    # ------------------------------------------------------------------
    # Model side
    # ------------------------------------------------------------------
    def model_sweep(
        self,
        spec: PanelSpec,
        *,
        trip_averaging: bool = True,
        label: Optional[str] = None,
    ) -> SweepResult:
        """Analytical-model curve for a panel (warm-started by default)."""
        model = HotSpotLatencyModel(
            k=spec.k,
            message_length=spec.message_length,
            hotspot_fraction=spec.hotspot_fraction,
            num_vcs=spec.num_vcs,
            trip_averaging=trip_averaging,
        )
        return model.sweep(
            spec.rates,
            label=label or f"model:{spec.name}",
            warm_start=self.warm_start,
        )

    # ------------------------------------------------------------------
    # Simulation side
    # ------------------------------------------------------------------
    def _panel_configs(
        self,
        spec: PanelSpec,
        seed: int,
        measure_cycles: Optional[int],
        warmup_cycles: Optional[int],
    ) -> List[SimulationConfig]:
        measure = (
            measure_cycles if measure_cycles is not None else sim_measure_cycles()
        )
        warmup = (
            warmup_cycles if warmup_cycles is not None else max(measure // 8, 2_000)
        )
        return [
            SimulationConfig(
                k=spec.k,
                n=2,
                num_vcs=spec.num_vcs,
                message_length=spec.message_length,
                rate=float(rate),
                hotspot_fraction=spec.hotspot_fraction,
                warmup_cycles=warmup,
                measure_cycles=measure,
                seed=point_seed(seed, spec.name, i),
            )
            for i, rate in enumerate(spec.rates)
        ]

    # -- checkpoint journal --------------------------------------------
    def journal_dir(self) -> Path:
        """Where campaign checkpoint journals live (next to the cache)."""
        return self.cache_root / "journal"

    def _campaign_id(
        self,
        specs: Sequence[PanelSpec],
        cfgs_by: Dict[str, List[SimulationConfig]],
        seed: int,
    ) -> str:
        blob = json.dumps(
            {
                "journal_version": _JOURNAL_VERSION,
                "seed": seed,
                "panels": {
                    spec.name: [config_key(c) for c in cfgs_by[spec.name]]
                    for spec in specs
                },
            },
            sort_keys=True,
        )
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    @staticmethod
    def _journal_record(journal: Optional[CheckpointJournal], entry: dict) -> None:
        if journal is not None:
            journal.record(entry)

    def _journal_done(
        self,
        journal: Optional[CheckpointJournal],
        panel: str,
        index: int,
        cfg: SimulationConfig,
        point: SweepPoint,
        attempts: int,
        source: str = "simulated",
    ) -> None:
        self._journal_record(
            journal,
            {
                "event": "point",
                "status": "done",
                "panel": panel,
                "index": index,
                "config": config_key(cfg)[:16],
                "rate": point.rate,
                "latency": point.latency,
                "saturated": point.saturated,
                "attempts": attempts,
                "source": source,
            },
        )

    def _journal_failed(
        self,
        journal: Optional[CheckpointJournal],
        failure: PointFailure,
        cfg: SimulationConfig,
    ) -> None:
        self._journal_record(
            journal,
            {
                "event": "point",
                "status": "failed",
                "panel": failure.panel,
                "index": failure.index,
                "config": config_key(cfg)[:16],
                "kind": failure.kind,
                "attempts": failure.attempts,
                "message": failure.message,
            },
        )

    def _journal_retry(
        self,
        journal: Optional[CheckpointJournal],
        panel: str,
        index: int,
        kind: str,
        attempt: int,
    ) -> None:
        self._journal_record(
            journal,
            {
                "event": "retry",
                "panel": panel,
                "index": index,
                "kind": kind,
                "attempt": attempt,
            },
        )

    def _open_journal(
        self,
        specs: Sequence[PanelSpec],
        cfgs_by: Dict[str, List[SimulationConfig]],
        seed: int,
        resume: bool,
    ) -> Tuple[Optional[CheckpointJournal], Dict[_PointKey, SweepPoint]]:
        """Open (and maybe replay) the campaign's checkpoint journal.

        Journaling is active whenever the cache is enabled (the journal
        lives beside it) or a resume was requested; ``use_cache=False``
        without ``resume`` stays fully side-effect free.  Returns the
        open journal (or ``None``) plus the points restored from a
        resumed journal.
        """
        if self.cache is None and not resume:
            return None, {}
        cid = self._campaign_id(specs, cfgs_by, seed)
        path = self.journal_dir() / f"{cid}.jsonl"
        journal = CheckpointJournal(path)
        done: Dict[_PointKey, SweepPoint] = {}
        fresh = True
        if resume and path.exists():
            header, entries = CheckpointJournal.load(path)
            if header is not None:
                recorded = header.get("campaign")
                if recorded not in (None, cid):
                    raise ValueError(
                        f"checkpoint journal {path} belongs to campaign "
                        f"{recorded}, not {cid} — the panel set or its "
                        "parameters changed; rerun without resume"
                    )
                fresh = False
                for entry in entries:
                    if (
                        entry.get("event") != "point"
                        or entry.get("status") != "done"
                    ):
                        continue
                    try:
                        key = (str(entry["panel"]), int(entry["index"]))
                        done[key] = SweepPoint(
                            rate=float(entry["rate"]),
                            latency=float(entry["latency"]),
                            saturated=bool(entry["saturated"]),
                        )
                    except (KeyError, TypeError, ValueError):
                        continue
        journal.start(
            {
                "event": "campaign",
                "campaign": cid,
                "version": _JOURNAL_VERSION,
                "seed": seed,
                "panels": {s.name: len(cfgs_by[s.name]) for s in specs},
            },
            fresh=fresh,
        )
        return journal, done

    # -- the campaign --------------------------------------------------
    def _campaign(
        self,
        specs: Sequence[PanelSpec],
        cfgs_by: Dict[str, List[SimulationConfig]],
        done: Dict[_PointKey, SweepPoint],
        journal: Optional[CheckpointJournal],
    ) -> Tuple[Dict[_PointKey, SweepPoint], Dict[_PointKey, PointFailure]]:
        """Run every needed point of every panel on the backend.

        Restored and cached points are taken first, in grid order, up to
        each panel's first saturated one; the rest become one-point
        tasks.  A completed saturated point drops the panel's queued
        points past it — the series is truncated there anyway.
        """
        points: Dict[_PointKey, SweepPoint] = {}
        known_sat: Dict[str, int] = {}

        def note(key: _PointKey, point: SweepPoint) -> None:
            points[key] = point
            if point.saturated:
                panel, i = key
                if panel not in known_sat or i < known_sat[panel]:
                    known_sat[panel] = i

        tasks: Dict[_PointKey, tuple] = {}
        for spec in specs:
            for i, cfg in enumerate(cfgs_by[spec.name]):
                key = (spec.name, i)
                point = done.get(key)
                if point is None and self.cache is not None:
                    point = self.cache.get(cfg)
                    if point is not None:
                        self._journal_done(
                            journal, spec.name, i, cfg, point,
                            attempts=0, source="cache",
                        )
                if point is None:
                    tasks[key] = (cfg,)
                    continue
                note(key, point)
                if point.saturated:
                    break  # past a known saturated rate — never needed
        if not tasks:
            return points, {}

        def on_result(key: _PointKey, point: SweepPoint, attempts: int):
            panel, i = key
            cfg = cfgs_by[panel][i]
            if self.cache is not None:
                self.cache.put(cfg, point)
            self._journal_done(journal, panel, i, cfg, point, attempts=attempts)
            before = known_sat.get(panel)
            note(key, point)
            after = known_sat.get(panel)
            if after is not None and after != before:
                # Saturation found (or moved earlier): drop queued points
                # past it — the series is truncated there anyway.
                return [
                    (panel, j)
                    for j in range(after + 1, len(cfgs_by[panel]))
                    if (panel, j) in tasks
                ]
            return None

        def on_retry(key: _PointKey, kind: str, attempt: int) -> None:
            self._journal_retry(journal, key[0], key[1], kind, attempt)

        _, task_failures = self.backend.run(
            _simulate_point,
            tasks,
            policy=self.policy,
            stats=self.stats,
            on_result=on_result,
            on_retry=on_retry,
        )
        failures: Dict[_PointKey, PointFailure] = {}
        for key, tf in task_failures.items():
            panel, i = key
            cfg = cfgs_by[panel][i]
            failure = PointFailure(
                panel=panel,
                index=i,
                rate=cfg.rate,
                kind=tf.kind,
                attempts=tf.attempts,
                message=tf.message,
            )
            failures[key] = failure
            self._journal_failed(journal, failure, cfg)
        return points, failures

    def _simulate_panels(
        self,
        specs: Sequence[PanelSpec],
        seed: int,
        measure_cycles: Optional[int],
        warmup_cycles: Optional[int],
        *,
        use_journal: bool,
        resume: bool,
    ) -> Dict[str, SweepResult]:
        """Simulate every panel's grid; assemble truncated sweep series."""
        cfgs_by = {
            spec.name: self._panel_configs(
                spec, seed, measure_cycles, warmup_cycles
            )
            for spec in specs
        }
        journal: Optional[CheckpointJournal] = None
        done: Dict[_PointKey, SweepPoint] = {}
        if use_journal:
            journal, done = self._open_journal(specs, cfgs_by, seed, resume)
        try:
            points, failures = self._campaign(specs, cfgs_by, done, journal)
        finally:
            if journal is not None:
                journal.close()

        # Reassemble each panel in grid order: failures before the stop
        # are recorded, the series truncates at its first saturated
        # point, anything later is dropped — so every backend agrees bit
        # for bit.
        results: Dict[str, SweepResult] = {}
        for spec in specs:
            sweep = SweepResult(label=f"sim:{spec.name}")
            for i in range(len(cfgs_by[spec.name])):
                key = (spec.name, i)
                if key in failures:
                    sweep.failures.append(failures[key])
                    continue
                point = points.get(key)
                if point is None:
                    break  # dropped: past the first saturated point
                sweep.points.append(point)
                if point.saturated:
                    break
            results[spec.name] = sweep
        return results

    def simulation_sweep(
        self,
        spec: PanelSpec,
        *,
        seed: int = 42,
        measure_cycles: Optional[int] = None,
        warmup_cycles: Optional[int] = None,
    ) -> SweepResult:
        """Simulator curve for one panel, truncated at first saturation."""
        return self._simulate_panels(
            [spec],
            seed,
            measure_cycles,
            warmup_cycles,
            use_journal=False,
            resume=False,
        )[spec.name]

    # ------------------------------------------------------------------
    # Panels and figures
    # ------------------------------------------------------------------
    def run_panel(
        self,
        spec: PanelSpec,
        *,
        simulate: bool = True,
        seed: int = 42,
        measure_cycles: Optional[int] = None,
        warmup_cycles: Optional[int] = None,
        trip_averaging: bool = True,
        resume: Optional[bool] = None,
    ) -> PanelResult:
        """Model (and optionally simulator) curves for one panel."""
        return self.run_panels(
            [spec],
            simulate=simulate,
            seed=seed,
            measure_cycles=measure_cycles,
            warmup_cycles=warmup_cycles,
            trip_averaging=trip_averaging,
            resume=resume,
        )[spec.name]

    def run_panels(
        self,
        specs: Sequence[PanelSpec],
        *,
        simulate: bool = True,
        seed: int = 42,
        measure_cycles: Optional[int] = None,
        warmup_cycles: Optional[int] = None,
        trip_averaging: bool = True,
        resume: Optional[bool] = None,
    ) -> Dict[str, PanelResult]:
        """Run several panels (e.g. a whole figure) as one campaign.

        With ``jobs>1`` every uncached simulation point of every panel
        is in flight on the same resilient executor, so a six-panel
        figure keeps all workers busy instead of draining panel by
        panel.  Results are keyed by panel name and identical to
        per-panel runs.  Each point's status is checkpointed to the
        campaign's JSONL journal as it completes; ``resume=True``
        (default: the engine's ``resume`` setting) restores
        checkpointed points of an interrupted earlier run instead of
        recomputing them.
        """
        resume = self.resume if resume is None else bool(resume)
        sims: Dict[str, SweepResult] = {}
        if simulate:
            sims = self._simulate_panels(
                specs,
                seed,
                measure_cycles,
                warmup_cycles,
                use_journal=True,
                resume=resume,
            )
        results: Dict[str, PanelResult] = {}
        for spec in specs:
            results[spec.name] = PanelResult(
                spec=spec,
                model=self.model_sweep(spec, trip_averaging=trip_averaging),
                simulation=sims.get(spec.name),
            )
        return results
