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
    value.  ``jobs`` alone picks where points run:
    ``jobs=1`` runs them one at a time in this process
    (:func:`~repro.resilience.run_inline`) and never starts a point
    past a panel's first saturated one, while ``jobs>1`` runs them
    concurrently on a :class:`~repro.resilience.ResilientExecutor` pool
    of ``jobs`` processes and cancels queued points past it as soon as
    it is known.  Either way the series is truncated at the first
    saturated point, so the returned
    :class:`~repro.core.results.SweepResult` is identical.

Fault tolerance
    Points run under the engine's retry policy: on the pool every
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

:func:`run_panel_model_only` is the model-only shortcut of
:meth:`SweepEngine.run_panel`.
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
from repro.core.model import HotSpotLatencyModel
from repro.core.results import SweepPoint, SweepResult
from repro.experiments.figures import PanelSpec
from repro.resilience import (
    CheckpointJournal,
    ExecutorStats,
    PointFailure,
    ResilientExecutor,
    RetryPolicy,
    run_inline,
)
from repro.simulator.config import SimulationConfig
from repro.simulator.sim import Simulation
from repro.store import ResultStore, config_key, default_store_dir

__all__ = [
    "PanelResult",
    "SweepEngine",
    "config_key",
    "point_seed",
    "run_panel_model_only",
    "sim_jobs",
    "sim_measure_cycles",
]

#: Bump when the checkpoint-journal campaign format changes.
_JOURNAL_VERSION = 1


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
        Simulation worker processes; this alone picks where points run.
        ``1`` (default) runs points one at a time in this process;
        ``>1`` runs the points of every panel of a call on a
        :class:`~repro.resilience.ResilientExecutor` pool of ``jobs``
        processes.  Each series is truncated at its first saturated
        point, so results are bit-identical for every ``jobs``.
    use_cache:
        Consult/populate the on-disk point cache (see module docstring).
    cache_dir:
        Cache root; defaults to :func:`repro.store.default_store_dir`.
        Also hosts the campaign checkpoint journals (``journal/``
        subdirectory).
    max_retries:
        Extra attempts per simulation point after the first (default 2).
        Retried points re-run the same per-point seed, so results stay
        bit-identical to a fault-free run; a point that exhausts its
        budget becomes a :class:`~repro.resilience.PointFailure` record
        on ``SweepResult.failures``.
    point_timeout:
        Wall-clock seconds per point attempt.  A timed-out worker is
        presumed hung, terminated, and its point retried on a rebuilt
        pool.  Only the pool (``jobs > 1``) can enforce it, so
        ``jobs=1`` raises :class:`ValueError`.  ``None`` (default)
        disables the deadline.
    backoff_base:
        Base of the capped exponential retry backoff (seconds).
    resume:
        Restore checkpointed points from the campaign journal instead
        of recomputing them.

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
        max_retries: int = 2,
        point_timeout: Optional[float] = None,
        backoff_base: float = 0.05,
        resume: bool = False,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = int(jobs)
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
                "a process pool (jobs > 1); got jobs=1, which runs points "
                "in this process"
            )
        self.cache_root = (
            Path(cache_dir) if cache_dir is not None else default_store_dir()
        )
        self.cache = ResultStore(self.cache_root) if use_cache else None
        if self.cache is not None:
            self.cache.clean_stale_tmp()

    # ------------------------------------------------------------------
    # Model side
    # ------------------------------------------------------------------
    def model_sweep(self, spec: PanelSpec) -> SweepResult:
        """Analytical-model curve for a panel (one warm-started solve)."""
        model = HotSpotLatencyModel(
            k=spec.k,
            message_length=spec.message_length,
            hotspot_fraction=spec.hotspot_fraction,
            num_vcs=spec.num_vcs,
        )
        return model.sweep(spec.rates, label=f"model:{spec.name}")

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

    def _open_journal(
        self,
        specs: Sequence[PanelSpec],
        cfgs_by: Dict[str, List[SimulationConfig]],
        seed: int,
    ) -> Tuple[Optional[CheckpointJournal], Dict[_PointKey, SweepPoint]]:
        """Open (and, on resume, replay) the campaign's checkpoint journal.

        Journaling is active whenever the cache is enabled (the journal
        lives beside it) or the engine resumes; ``use_cache=False``
        without ``resume`` stays fully side-effect free.  Returns the
        open journal (or ``None``) plus the points restored from a
        resumed journal.
        """
        if self.cache is None and not self.resume:
            return None, {}
        cid = self._campaign_id(specs, cfgs_by, seed)
        path = self.journal_dir() / f"{cid}.jsonl"
        done: Dict[_PointKey, SweepPoint] = {}
        header, entries = (
            CheckpointJournal.load(path) if self.resume else (None, [])
        )
        if header is not None:
            recorded = header.get("campaign")
            if recorded not in (None, cid):
                raise ValueError(
                    f"checkpoint journal {path} belongs to campaign "
                    f"{recorded}, not {cid} — the panel set or its "
                    "parameters changed; rerun without resume"
                )
            for entry in entries:
                if entry.get("event") != "point" or entry.get("status") != "done":
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
        journal = CheckpointJournal(path)
        journal.start(
            {
                "event": "campaign",
                "campaign": cid,
                "version": _JOURNAL_VERSION,
                "seed": seed,
                "panels": {s.name: len(cfgs_by[s.name]) for s in specs},
            },
            fresh=header is None,
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
        """Run every needed point of every panel.

        Restored and cached points are taken first, in grid order, up to
        each panel's first saturated one; the rest become one-point
        tasks.  A completed saturated point drops the panel's queued
        points past it — the series is truncated there anyway.
        """
        points: Dict[_PointKey, SweepPoint] = {}
        known_sat: Dict[str, int] = {}  # panel -> earliest saturated index simulated

        def log(key: _PointKey, event: str = "point",
                point: Optional[SweepPoint] = None, **fields) -> None:
            """Append one journal line about ``key``: a ``point`` line
            names its config, and one given the ``point`` marks it done."""
            if journal is None:
                return
            panel, i = key
            if event == "point":
                fields["config"] = config_key(cfgs_by[panel][i])[:16]
            if point is not None:
                fields.update(status="done", rate=point.rate,
                              latency=point.latency, saturated=point.saturated)
            journal.record({"event": event, "panel": panel, "index": i, **fields})

        tasks: Dict[_PointKey, tuple] = {}
        for spec in specs:
            for i, cfg in enumerate(cfgs_by[spec.name]):
                key = (spec.name, i)
                point = done.get(key)
                if point is None and self.cache is not None:
                    point = self.cache.get(cfg)
                    if point is not None:
                        log(key, point=point, attempts=0, source="cache")
                if point is None:
                    tasks[key] = (cfg,)
                    continue
                points[key] = point
                if point.saturated:
                    break  # past a known saturated rate — never needed
        if not tasks:
            return points, {}

        def on_result(key: _PointKey, point: SweepPoint, attempts: int):
            panel, i = key
            if self.cache is not None:
                self.cache.put(cfgs_by[panel][i], point)
            log(key, point=point, attempts=attempts, source="simulated")
            points[key] = point
            if point.saturated and i < known_sat.get(panel, math.inf):
                # Saturation found (or moved earlier): drop queued points
                # past it — the series is truncated there anyway.
                known_sat[panel] = i
                return [
                    (panel, j)
                    for j in range(i + 1, len(cfgs_by[panel]))
                    if (panel, j) in tasks
                ]
            return None

        def on_retry(key: _PointKey, kind: str, attempt: int) -> None:
            log(key, "retry", kind=kind, attempt=attempt)

        if self.jobs == 1:  # jobs alone picks: this process, or a pool
            _, task_failures = run_inline(
                _simulate_point, tasks, policy=self.policy, stats=self.stats,
                on_result=on_result, on_retry=on_retry,
            )
        else:
            executor = ResilientExecutor(self.jobs, self.policy, stats=self.stats)
            _, task_failures = executor.run(
                _simulate_point, tasks, on_result=on_result, on_retry=on_retry
            )
        failures: Dict[_PointKey, PointFailure] = {}
        for key, tf in task_failures.items():
            panel, i = key
            failures[key] = PointFailure(
                panel=panel,
                index=i,
                rate=cfgs_by[panel][i].rate,
                kind=tf.kind,
                attempts=tf.attempts,
                message=tf.message,
            )
            log(key, status="failed", kind=tf.kind, attempts=tf.attempts,
                message=tf.message)
        return points, failures

    def _simulate_panels(
        self,
        specs: Sequence[PanelSpec],
        seed: int,
        measure_cycles: Optional[int],
        warmup_cycles: Optional[int],
    ) -> Dict[str, SweepResult]:
        """Simulate every panel's grid; assemble truncated sweep series."""
        cfgs_by = {
            spec.name: self._panel_configs(
                spec, seed, measure_cycles, warmup_cycles
            )
            for spec in specs
        }
        journal, done = self._open_journal(specs, cfgs_by, seed)
        try:
            points, failures = self._campaign(specs, cfgs_by, done, journal)
        finally:
            if journal is not None:
                journal.close()

        # Reassemble each panel in grid order: failures before the stop
        # are recorded, the series truncates at its first saturated
        # point, anything later is dropped — so every ``jobs`` agrees bit
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
    ) -> PanelResult:
        """Model (and optionally simulator) curves for one panel."""
        return self.run_panels(
            [spec],
            simulate=simulate,
            seed=seed,
            measure_cycles=measure_cycles,
            warmup_cycles=warmup_cycles,
        )[spec.name]

    def run_panels(
        self,
        specs: Sequence[PanelSpec],
        *,
        simulate: bool = True,
        seed: int = 42,
        measure_cycles: Optional[int] = None,
        warmup_cycles: Optional[int] = None,
    ) -> Dict[str, PanelResult]:
        """Run several panels (e.g. a whole figure) as one campaign.

        With ``jobs>1`` every uncached simulation point of every panel
        is in flight on the same resilient executor, so a six-panel
        figure keeps all workers busy instead of draining panel by
        panel.  Results are keyed by panel name and identical to
        per-panel runs.  Each point's status is checkpointed to the
        campaign's JSONL journal as it completes; an engine built with
        ``resume=True`` restores checkpointed points of an interrupted
        earlier run instead of recomputing them.
        """
        sims: Dict[str, SweepResult] = {}
        if simulate:
            sims = self._simulate_panels(specs, seed, measure_cycles, warmup_cycles)
        return {
            spec.name: PanelResult(
                spec=spec,
                model=self.model_sweep(spec),
                simulation=sims.get(spec.name),
            )
            for spec in specs
        }


def run_panel_model_only(spec: PanelSpec) -> PanelResult:
    """Evaluate the analytical model over the panel grid (fast)."""
    return SweepEngine(use_cache=False).run_panel(spec, simulate=False)
