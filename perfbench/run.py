#!/usr/bin/env python3
"""Benchmark of the hot-spot latency reproduction: one command per run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from a checkout of the repository (the program is imported from
its ``src/`` directory, nothing needs building).  Workloads:

``fig1-seq``   ``repro figure 1 --simulate --jobs 1`` with a cold store
``fig2-pool``  ``repro figure 2 --simulate --jobs 2`` with a cold store
``model-grid`` in-process saturation search + sweep over a seeded
               draw of (k, Lm, h, V) model configurations (run by
               hand: BENCHMARK.json leaves it out, see README.md)
``cli-cold``   fresh ``repro model``/``saturation``/warm-store
               ``figure`` processes, one at a time

Each run sets up several times (interpreter start, ``import repro``
and compiling the C kernel into an empty kernel cache; for
``cli-cold`` also a cold ``figure 1`` run that warms the result store)
and reports the median as ``setup_s``.  The timed phase then repeats
the workload for about ``--seconds`` seconds; ``wall_s`` is the time of
one unit of work: the slowest ``repro`` process of the run (a figure
run or a ``repro`` call), or, in-process, the mean over the model
configurations of each one's fastest repetition (see ``slowest`` and
``mean_fastest``).  Every output is checked afterwards;
a failed check is named on stdout and makes the run exit 1.

With ``--trace 1`` units alternate between untraced and traced (see
``spans.py``) and the run reports per-layer metrics instead.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import checks
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDENS = ROOT / "benchmarks" / "results"

#: Every run must end well inside the 180 s a run may take.
DEADLINE_S = 165.0

clock = time.perf_counter


def metric_units(kind: str) -> Dict[str, str]:
    """Name -> unit of the ``kind`` metrics (``end_to_end`` or
    ``per_layer``) that BENCHMARK.json names."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


#: cli-cold's per-command medians, in the order of a round's calls.
CLI_P50 = ("cli.model_p50_s", "cli.sweep_p50_s", "cli.saturation_p50_s",
           "cli.figure_warm_p50_s")


@dataclass(frozen=True)
class Size:
    """How much work one run does (``full`` is the benchmark)."""

    fig1_cycles: int    # --cycles of fig1-seq
    fig2_cycles: int    # --cycles of fig2-pool
    cli_cycles: int     # --cycles of cli-cold's figure call
    grid_configs: int   # model configurations per model-grid pass
    setup_reps: int     # set-ups per run (setup_s is their median)
    min_units: int      # units per timed phase, at least


SIZES = {
    "full": Size(fig1_cycles=10_000, fig2_cycles=20_000, cli_cycles=2_000,
                 grid_configs=48, setup_reps=3, min_units=2),
    "tiny": Size(fig1_cycles=1_000, fig2_cycles=1_000, cli_cycles=1_000,
                 grid_configs=4, setup_reps=1, min_units=1),
}


# ----------------------------------------------------------------------
# Processes and the per-run sandbox
# ----------------------------------------------------------------------
@dataclass
class Call:
    """One finished ``repro`` process."""

    args: List[str]
    code: int
    stdout: str
    stderr: str
    t0: float
    t1: float
    rss_kb: int
    trace: Optional[spans.Trace] = None

    @property
    def seconds(self) -> float:
        return self.t1 - self.t0


@dataclass
class Unit:
    """One repetition of the timed work: one or more calls, or one
    in-process pass.  ``parts`` are its samples of ``wall_s``: the time
    of each figure run, ``repro`` call or model configuration in it."""

    t0: float
    t1: float
    traced: bool
    parts: List[float]
    calls: List[Call] = field(default_factory=list)
    # In-process (model-grid) units: the pass's spans and result digest.
    trace: Optional[spans.Trace] = None
    digest: str = ""

    @property
    def seconds(self) -> float:
        return self.t1 - self.t0

    def segments(self) -> List[Tuple[float, float, spans.Trace]]:
        """Program time with its spans: each call, or the whole pass."""
        if self.calls:
            return [(c.t0, c.t1, c.trace) for c in self.calls if c.trace]
        return [(self.t0, self.t1, self.trace)] if self.trace else []


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


class Run:
    """One benchmark run: sandbox directories, environment, accounting."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 size: Size) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.size = size
        self.start = clock()
        self.rng = random.Random(f"{workload}:{seed}")
        self.tmp = ROOT / ".perfbench_tmp" / f"{workload}-{seed}-{os.getpid()}"
        self.tmp.mkdir(parents=True)
        (self.tmp / "tmp").mkdir()
        self._dirs = 0
        self.failures: List[checks.Failure] = []
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []
        self.rss_kb = 0
        self.kernels: Optional[Path] = None
        self.env = self._isolated_env()

    def _isolated_env(self) -> Dict[str, str]:
        """The parent environment minus every ``REPRO_*`` variable, with
        ``src/`` on the path and temporary files kept in the sandbox."""
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = str(SRC)
        env["TMPDIR"] = str(self.tmp / "tmp")
        return env

    def fresh_dir(self, label: str) -> Path:
        self._dirs += 1
        path = self.tmp / f"{self._dirs:04d}-{label}"
        path.mkdir()
        return path

    def remaining(self) -> float:
        return DEADLINE_S - (clock() - self.start)

    def fail(self, failures: Sequence[checks.Failure]) -> None:
        self.failures.extend(failures)

    def call(self, args: Sequence[str], *, store: Path, kernels: Path,
             traced: bool = False, campaign: str = "") -> Call:
        """Run one fresh ``repro`` process to completion and account it."""
        args = [str(a) for a in args]
        span_dir = self.fresh_dir("spans") if traced else None
        if traced:
            cmd = [sys.executable, str(HERE / "spans.py"), str(span_dir),
                   campaign, "--", *args]
        else:
            cmd = [sys.executable, "-m", "repro", *args]
        env = dict(self.env, REPRO_CACHE_DIR=str(store),
                   REPRO_KERNEL_CACHE=str(kernels))
        out_dir = self.fresh_dir("call")
        timeout = max(1.0, self.remaining())
        with open(out_dir / "stdout", "wb") as out, \
                open(out_dir / "stderr", "wb") as err:
            t0 = clock()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=out,
                                    stderr=err, start_new_session=True)
            killer = threading.Timer(timeout, _kill_group, (proc.pid,))
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            t1 = clock()
        proc.returncode = os.waitstatus_to_exitcode(status)
        _kill_group(proc.pid)  # stray grandchildren, if any
        call = Call(args, proc.returncode,
                    (out_dir / "stdout").read_text(errors="replace"),
                    (out_dir / "stderr").read_text(errors="replace"),
                    t0, t1, usage.ru_maxrss)
        if traced:
            call.trace = spans.Trace.load(span_dir)
        self.attempted += 1
        self.rss_kb = max(self.rss_kb, call.rss_kb)
        if call.code != 0:
            self.failed += 1
            tail = call.stderr.strip().splitlines()[-1:] or [""]
            self.fail([checks.Failure(
                "cli-exit", f"`repro {' '.join(args)}` exited {call.code}: "
                            f"{tail[0]}")])
        return call

    def setup_probe(self) -> float:
        """One set-up: a fresh ``repro`` process that imports the package
        and compiles the C kernel into an empty kernel cache (by running
        a tiny simulation).  Its kernel cache serves the timed phase."""
        self.kernels = self.fresh_dir("kernels")
        call = self.call(
            ["simulate", "--k", 4, "--lm", 8, "--h", 0.2, "--rate", 0.002,
             "--cycles", 1000, "--seed", self.rng.randrange(1000)],
            store=self.fresh_dir("store"), kernels=self.kernels)
        return call.seconds

    def timed(self, unit: Callable[[bool], Unit]) -> List[Unit]:
        """Repeat ``unit`` for about ``seconds`` seconds (at least
        ``min_units`` times), alternating untraced and traced units in a
        traced run."""
        kinds = [False, True] if self.trace else [False]
        units: List[Unit] = []
        t0 = clock()
        groups = 0
        while True:
            for traced in kinds:
                units.append(unit(traced))
            groups += 1
            elapsed = clock() - t0
            per_group = elapsed / groups
            if groups >= self.size.min_units and elapsed + per_group > self.seconds:
                break
            if self.remaining() < 2 * per_group + 15:
                self.notes.append("timed phase cut short by the run deadline")
                break
        return units


def journal_stats(store: Path) -> Dict[str, int]:
    """Point, retry and failure records of the campaign journals."""
    stats = {"done": 0, "simulated": 0, "failed": 0, "retries": 0}
    for path in (store / "journal").glob("*.jsonl"):
        for line in path.read_text().splitlines():
            try:
                rec = json.loads(line)
            except ValueError:
                continue
            if rec.get("event") == "retry":
                stats["retries"] += 1
            elif rec.get("event") == "point" and rec.get("status") == "done":
                stats["done"] += 1
                stats["simulated"] += rec.get("source") == "simulated"
            elif rec.get("event") == "point" and rec.get("status") == "failed":
                stats["failed"] += 1
    return stats


def untraced_parts(units: List[Unit]) -> List[float]:
    """The samples of ``wall_s``: parts of the untraced units."""
    return [p for u in units if not u.traced for p in u.parts]


# On a shared host (measured on a 2-vCPU KVM guest) a vCPU switches
# between two speeds several times a second, about 1.4x slower while a
# neighbour is busy, and the share of slow time changes from minute to
# minute.  The median of a run follows that share, so wall_s is not a
# median.  A process of a second or more averages over the switches,
# and the slowest one of a run tracks the busy speed.  A model
# configuration takes about 0.05 s, so in most runs some repetition of
# it meets the fast speed.  perfbench/README.md gives the spreads.
def slowest(samples: Sequence[float]) -> float:
    """``wall_s`` of process samples: the slowest one."""
    return max(samples, default=0.0)


def mean_fastest(passes: Sequence[Sequence[float]]) -> float:
    """``wall_s`` of in-process samples: the mean over work items of each
    item's fastest time; every pass times the same items in order."""
    best = [min(times) for times in zip(*passes)]
    return statistics.fmean(best) if best else 0.0


def digest(texts: Sequence[str]) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
        h.update(b"\0")
    return h.hexdigest()


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def import_program(run: Run) -> None:
    """Import ``repro`` in this process from the checkout's ``src/``
    (never another copy), under the run's isolated environment."""
    os.environ.clear()
    os.environ.update(run.env)
    os.environ["REPRO_CACHE_DIR"] = str(run.fresh_dir("store"))
    os.environ["REPRO_KERNEL_CACHE"] = str(run.kernels)
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise SystemExit(f"imported repro from {repro.__file__}, not {SRC}")


# ----------------------------------------------------------------------
# Per-layer metrics of a traced run
# ----------------------------------------------------------------------
def layer_metrics(run: Run, units: List[Unit], journals: List[Dict[str, int]],
                  kept: int) -> Dict[str, float]:
    """Per-layer metrics from the traced units, per unit of work (a
    figure run, a model configuration or a ``repro`` call, as ``wall_s``).

    ``journals`` are the journal stats of the traced units and ``kept``
    the simulated points each figure run's printed series keeps.  Targets
    that no longer exist are noted on ``run``.
    """
    traced = [u for u in units if u.traced]
    plain = [u for u in units if not u.traced]
    n = max(1, sum(len(u.parts) for u in traced))
    trace = spans.Trace.merge([t for u in traced for _, _, t in u.segments()])
    run.notes += [f"layer absent: {name}" for name in sorted(trace.absent)]
    c = trace.counters
    # Medians of untraced calls, which only cli_cold has and fills in.
    m: Dict[str, float] = dict.fromkeys(CLI_P50, 0.0)

    runs = trace.named("simulator.run")
    run_attrs = trace.attrs("simulator.run")
    run_s = trace.total("simulator.run")
    cycles = sum(a.get("cycles", 0) for a in run_attrs)
    flits = sum(a.get("flit_moves", 0) for a in run_attrs)
    m["simulator.build_s"] = trace.total("simulator.build") / n
    m["simulator.run_s"] = run_s / n
    m["simulator.points"] = len(runs) / n
    m["simulator.cycles"] = cycles / n
    m["simulator.flit_moves"] = flits / n
    m["simulator.messages"] = sum(a.get("messages", 0) for a in run_attrs) / n
    m["simulator.saturated_points"] = sum(
        bool(a.get("saturated")) for a in run_attrs) / n
    m["simulator.cycles_per_s"] = _ratio(cycles, run_s)
    m["simulator.flits_per_s"] = _ratio(flits, run_s)
    for key in ("traffic.gap_calls", "traffic.gap_s", "traffic.draws",
                "router.route_calls", "router.route_s", "buffers.vc_requests",
                "buffers.vc_grant_calls", "buffers.vc_grants",
                "buffers.vc_releases", "buffers.vc_s",
                "stats.records", "queueing.calls", "queueing.s"):
        m[key] = c.get(key, 0) / n
    m["simulator.self_s"] = (run_s - c.get("traffic.gap_s", 0.0)
                             - c.get("router.route_s", 0.0)
                             - c.get("buffers.vc_s", 0.0)) / n

    m["core.sweep_s"] = trace.total("core.sweep") / n
    m["core.sweep_points"] = sum(
        a.get("points", 0) for a in trace.attrs("core.sweep")) / n
    m["core.saturation_s"] = trace.total("core.saturation") / n
    m["core.saturation_calls"] = len(trace.named("core.saturation")) / n
    outer = trace.outermost("core.evaluate")
    points = sum(s.get("attrs", {}).get("points", 0) for s in outer)
    m["core.points_evaluated"] = points / n
    m["core.solver_iterations"] = sum(
        s.get("attrs", {}).get("iterations", 0) for s in outer) / n
    m["core.points_per_s"] = _ratio(
        points, sum(s["t1"] - s["t0"] for s in outer))

    m["sweep.campaign_s"] = trace.total("sweep.campaign") / n
    m["sweep.model_s"] = trace.total("sweep.model") / n
    m["sweep.self_s"] = trace.self_time("sweep.campaign") / n

    gets = trace.attrs("store.get")
    hits = sum(bool(a.get("hit")) for a in gets)
    m["store.gets"] = len(gets) / n
    m["store.hits"] = hits / n
    m["store.hit_frac"] = _ratio(hits, len(gets))
    m["store.get_s"] = trace.total("store.get") / n
    m["store.puts"] = len(trace.named("store.put")) / n
    m["store.put_s"] = trace.total("store.put") / n
    m["journal.records"] = len(trace.named("journal.record")) / n
    m["journal.record_s"] = trace.total("journal.record") / n

    simulated = sum(j["simulated"] for j in journals)
    m["resilience.retries"] = sum(j["retries"] for j in journals) / n
    m["resilience.failures"] = sum(j["failed"] for j in journals) / n
    m["backend.run_s"] = trace.total("backend.run") / n
    m["backend.points_simulated"] = simulated / n
    m["backend.useful_frac"] = _ratio(kept * len(journals), simulated)

    errors = [a["rel_err_light"] for a in trace.attrs("report.shape")
              if math.isfinite(a.get("rel_err_light", math.nan))]
    m["report.rel_err_light"] = statistics.fmean(errors) if errors else 0.0

    imports = [s["t1"] - s["t0"] for s in trace.named("cli.import")]
    m["cli.import_s"] = median(imports)

    m["trace.overhead_frac"] = 0.0
    if plain and traced:
        m["trace.overhead_frac"] = (median([u.seconds for u in traced])
                                    / median([u.seconds for u in plain]) - 1.0)
    program = covered = 0.0
    for u in traced:
        for t0, t1, t in u.segments():
            program += t1 - t0
            covered += spans.covered(
                (max(a, t0), min(b, t1)) for a, b in t.top_level())
    m["trace.residual_frac"] = _ratio(program - covered, program)
    m["trace.worker_spans"] = sum(
        s["pid"] in trace.worker_pids for s in trace.spans) / n
    if m["backend.run_s"] and not m["trace.worker_spans"]:
        run.notes.append("pool-worker spans missing: simulator, traffic, "
                         "router, buffers and stats numbers are parent-side "
                         "only")
    return m


def exact_counts(units: List[Unit], kept: Dict[str, List[str]],
                 panels: Sequence[checks.PanelInfo]) -> str:
    """Simulated statistics of the points the printed series keep, plus
    the model's solver iterations, from the first traced unit: these
    repeat exactly for a given seed."""
    unit = next(u for u in units if u.traced)
    trace = spans.Trace.merge([t for _, _, t in unit.segments()])
    keep = {(p.message_length, p.hotspot_fraction, rate)
            for p in panels for rate in kept.get(p.name, [])}
    seen = {}
    for a in trace.attrs("simulator.run"):
        lm, h, rate, seed = a.get("point", (0, 0.0, 0.0, 0))
        if (lm, h, f"{rate:.6g}") in keep:
            seen[(lm, h, rate, seed)] = a
    totals = {k: sum(a.get(k, 0) for a in seen.values())
              for k in ("cycles", "flit_moves", "messages")}
    iterations = sum(s.get("attrs", {}).get("iterations", 0)
                     for s in trace.outermost("core.evaluate"))
    return (f"exact: kept points {len(seen)}, simulator.cycles "
            f"{totals['cycles']}, simulator.flit_moves {totals['flit_moves']}, "
            f"simulator.messages {totals['messages']}, "
            f"core.solver_iterations {iterations}")


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    """What a workload measured, before it is formatted."""

    wall_s: float
    samples: List[float]  # the times wall_s is taken from
    setup: List[float]    # samples of setup_s
    units: List[Unit]
    tables: List[str]
    layers: Dict[str, float] = field(default_factory=dict)


def _panels(figure: int) -> List[checks.PanelInfo]:
    from repro.experiments import panels_of_figure

    return [checks.PanelInfo(s.name, s.description, s.message_length,
                             s.hotspot_fraction)
            for s in panels_of_figure(figure)]


def figure_workload(run: Run, figure: int, jobs: int, other_jobs: int,
                    cycles: int) -> Outcome:
    """Regenerate one paper figure with simulation, cold store each unit."""
    campaign_seed = run.rng.randrange(2**31)
    run.notes.append(f"repro figure {figure} --simulate --jobs {jobs} "
                     f"--cycles {cycles} --seed {campaign_seed}")
    setup = [run.setup_probe() for _ in range(run.size.setup_reps)]
    args = ["figure", figure, "--simulate", "--jobs", jobs, "--cycles", cycles,
            "--seed", campaign_seed]
    stores: Dict[int, Path] = {}

    def unit(traced: bool) -> Unit:
        store = run.fresh_dir("store")
        call = run.call(args, store=store, kernels=run.kernels, traced=traced,
                        campaign=f"{run.workload}-{run.seed}-{store.name}")
        u = Unit(call.t0, call.t1, traced, [call.seconds], calls=[call])
        stores[id(u)] = store
        return u

    units = run.timed(unit)
    journals = {id(u): journal_stats(stores[id(u)]) for u in units}
    for j in journals.values():
        run.attempted += j["done"] + j["failed"]
        run.failed += j["failed"]

    import_program(run)
    from repro.experiments import SweepEngine, format_panel_table, get_panel

    panels = _panels(figure)
    first = units[0].calls[0].stdout
    for u in units[1:]:
        run.fail(checks.check_identical(
            "units-identical", "unit output vs first unit",
            u.calls[0].stdout, first))
    blocks, failures = checks.check_figure_output(first, panels, GOLDENS)
    run.fail(failures)
    panel = run.rng.choice(panels)
    if panel.name in blocks:
        engine = SweepEngine(jobs=other_jobs, use_cache=False)
        result = engine.run_panel(get_panel(panel.name), simulate=True,
                                  seed=campaign_seed, measure_cycles=cycles)
        run.fail(checks.check_identical(
            "other-path-identical",
            f"{panel.name} via SweepEngine(jobs={other_jobs}).run_panel",
            blocks[panel.name].text, format_panel_table(result)))
    run.notes.append(f"other-path panel {panel.name} (jobs={other_jobs})")

    samples = untraced_parts(units)
    out = Outcome(wall_s=slowest(samples), samples=samples, setup=setup,
                  units=units, tables=[first])
    if run.trace:
        kept = checks.kept_points(blocks)
        out.layers = layer_metrics(
            run, units, [journals[id(u)] for u in units if u.traced],
            sum(len(v) for v in kept.values()))
        run.notes.append(exact_counts(units, kept, panels))
    return out


K_GRID = (8, 12, 16)
LM_GRID = (16, 32, 64, 100)
H_GRID = (0.1, 0.2, 0.4, 0.7)
V_GRID = (2, 3, 4)
SWEEP_POINTS = 16
SWEEP_SPAN = 1.1  # sweep rates are drawn over (0, 1.1) x saturation


def draw_design(rng: random.Random, count: int) -> List[Tuple[tuple, List[float]]]:
    """``count`` model configurations: the (k, Lm, h) grid in a seeded
    order, each with a drawn V and with sweep rates as fractions of its
    saturation rate, one uniform draw in each of 16 equal strata of
    (0, 1.1).  Every pass covers the same (k, Lm, h) cells whatever the
    seed, so the work per pass hardly depends on it."""
    cells = [(k, lm, h) for k in K_GRID for lm in LM_GRID for h in H_GRID]
    rng.shuffle(cells)
    design = []
    for i in range(count):
        k, lm, h = cells[i % len(cells)]
        fractions = [SWEEP_SPAN * (j + rng.random()) / SWEEP_POINTS
                     for j in range(SWEEP_POINTS)]
        design.append(((k, lm, h, rng.choice(V_GRID)), fractions))
    return design


def model_grid(run: Run) -> Outcome:
    """Design-space exploration with the analytical model, in-process."""
    design = draw_design(run.rng, run.size.grid_configs)
    run.notes.append(f"{len(design)} model configurations per pass")
    setup = [run.setup_probe() for _ in range(run.size.setup_reps)]
    import_program(run)
    from repro import HotSpotLatencyModel

    results: List[list] = []

    def one_pass(times: List[float]) -> list:
        out = []
        for (k, lm, h, v), fractions in design:
            run.attempted += 2
            t0 = clock()
            try:
                model = HotSpotLatencyModel(k=k, message_length=lm,
                                            hotspot_fraction=h, num_vcs=v)
                sat = model.saturation_rate()
            except Exception as exc:  # a failed evaluation is counted
                times.append(clock() - t0)
                run.failed += 2
                run.fail([checks.Failure("model-evaluates",
                                         f"{(k, lm, h, v)}: {exc!r}")])
                continue
            try:
                sweep = model.sweep([f * sat for f in fractions])
            except Exception as exc:
                times.append(clock() - t0)
                run.failed += 1
                run.fail([checks.Failure("model-evaluates",
                                         f"{(k, lm, h, v)}: {exc!r}")])
                continue
            times.append(clock() - t0)
            out.append(((k, lm, h, v), sat,
                        [(p.rate, p.latency, p.saturated) for p in sweep.points]))
        return out

    def unit(traced: bool) -> Unit:
        tracer = None
        if traced:
            span_dir = run.fresh_dir("spans")
            tracer = spans.Tracer(f"{run.workload}-{run.seed}-{span_dir.name}",
                                  span_dir)
            tracer.install()
        times: List[float] = []
        t0 = clock()
        try:
            out = one_pass(times)
        finally:
            t1 = clock()
            if tracer is not None:
                tracer.uninstall()
                tracer.flush()
        results.append(out)
        u = Unit(t0, t1, traced, times, digest=digest([_grid_table(out)]))
        if tracer is not None:
            u.trace = spans.Trace.load(span_dir)
        return u

    units = run.timed(unit)
    run.rss_kb = max(run.rss_kb,
                     resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    for u in units[1:]:
        if u.digest != units[0].digest:
            run.fail([checks.Failure("units-identical",
                                     "a pass differs from the first pass")])
    for cfg, sat, points in results[0]:
        run.fail(checks.check_model_sweep(f"k,Lm,h,V={cfg}", sat, points))
    # The unit of work is one configuration (saturation search + sweep).
    plain = [u.parts for u in units if not u.traced]
    out = Outcome(wall_s=mean_fastest(plain), samples=untraced_parts(units),
                  setup=setup, units=units, tables=[_grid_table(results[0])])
    if run.trace:
        out.layers = layer_metrics(run, units, [], 0)
        run.notes.append(exact_counts(units, {}, []))
    return out


def _grid_table(out: list) -> str:
    """The model-grid results as an exact text table (floats in hex)."""
    lines = []
    for cfg, sat, points in out:
        lines.append(f"{cfg} saturation {sat.hex()}")
        lines += [f"  {r.hex()} {lat.hex()} {s}" for r, lat, s in points]
    return "\n".join(lines)


def cli_cold(run: Run) -> Outcome:
    """Fresh ``repro`` processes one at a time; the figure reads a store
    warmed during set-up, so every point is a cache hit."""
    cycles = run.size.cli_cycles
    campaign_seed = run.rng.randrange(2**31)
    figure = ["figure", 1, "--simulate", "--jobs", 1, "--cycles", cycles,
              "--seed", campaign_seed]
    run.notes.append(f"warm store: repro {' '.join(map(str, figure))}")
    setup, cold = [], []
    store = None
    for _ in range(run.size.setup_reps):
        run.kernels, store = run.fresh_dir("kernels"), run.fresh_dir("store")
        call = run.call(figure, store=store, kernels=run.kernels)
        setup.append(call.seconds)
        cold.append(call.stdout)
        journal = journal_stats(store)
        run.attempted += journal["done"] + journal["failed"]
        run.failed += journal["failed"]
    rates: List[str] = []  # the query rate of each unit, in order
    journals: Dict[int, Dict[str, int]] = {}

    def unit(traced: bool) -> Unit:
        rate = f"{run.rng.uniform(1e-5, 5e-4):.4e}"
        rates.append(rate)
        commands = [["model", "--rate", rate], ["model", "--sweep", 8],
                    ["saturation"], figure]
        calls = [run.call(c, store=store, kernels=run.kernels, traced=traced,
                          campaign=f"{run.workload}-{run.seed}-{len(rates)}")
                 for c in commands]
        u = Unit(calls[0].t0, calls[-1].t1, traced,
                 [c.seconds for c in calls], calls=calls)
        journals[id(u)] = journal_stats(store)
        return u

    units = run.timed(unit)

    import_program(run)
    from repro import HotSpotLatencyModel

    panels = _panels(1)
    run.fail(checks.check_figure_output(cold[-1], panels, GOLDENS)[1])
    for i, text in enumerate(cold[:-1]):
        run.fail(checks.check_identical("cold-repeatable", f"cold run {i + 1}",
                                        text, cold[-1]))
    model = HotSpotLatencyModel(k=16, message_length=32, hotspot_fraction=0.2,
                                num_vcs=2)
    first = units[0].calls
    for u, rate in zip(units, rates):
        rate_call, sweep_call, sat_call, fig_call = u.calls
        res = model.evaluate(float(rate))
        want = (f"rate {float(rate):g}: SATURATED" if res.saturated else
                f"rate {float(rate):g}: latency {res.latency:.2f} cycles")
        got = (rate_call.stdout.splitlines() or [""])[0]
        if not got.startswith(want):
            run.fail([checks.Failure(
                "model-rate-matches", f"printed {got!r}, in-process {want!r}")])
        run.fail(checks.check_identical("warm-equals-cold", "warm figure",
                                        fig_call.stdout, cold[-1]))
        for call, ref in ((sweep_call, first[1]), (sat_call, first[2])):
            run.fail(checks.check_identical(
                "cli-repeatable", f"repro {' '.join(call.args)}",
                call.stdout, ref.stdout))

    # The unit of work is one call: wall_s is the slowest fresh repro
    # process; its median (cli_p50_s) is on the wall_s samples line.
    samples = untraced_parts(units)
    out = Outcome(wall_s=slowest(samples), samples=samples, setup=setup,
                  units=units, tables=[cold[-1], first[1].stdout,
                                       first[2].stdout])
    if run.trace:
        traced_units = [u for u in units if u.traced]
        out.layers = layer_metrics(
            run, units, [journals[id(u)] for u in traced_units], 0)
        for index, key in enumerate(CLI_P50):
            out.layers[key] = median(
                [u.calls[index].seconds for u in units if not u.traced])
        run.notes.append(exact_counts(units, {}, []))
        run.notes.append(f"{len(traced_units)} traced rounds")
    return out


WORKLOADS: Dict[str, Callable[[Run], Outcome]] = {
    "fig1-seq": lambda run: figure_workload(run, 1, jobs=1, other_jobs=2,
                                            cycles=run.size.fig1_cycles),
    "fig2-pool": lambda run: figure_workload(run, 2, jobs=2, other_jobs=1,
                                             cycles=run.size.fig2_cycles),
    "model-grid": model_grid,
    "cli-cold": cli_cold,
}


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def percentile_line(samples: Sequence[float]) -> str:
    """Median and the highest percentile with at least ten samples
    beyond it, with the sample count."""
    n = len(samples)
    line = f"median {median(samples):.4f} s over {n}"
    for p in (99.9, 99, 90):
        if n * (1 - p / 100) >= 10:
            q = statistics.quantiles(samples, n=1000, method="inclusive")
            line += f", p{p:g} {q[int(p * 10) - 1]:.4f} s"
            break
    return line


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="tiny: the self-test's size")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program at {SRC / 'repro'}; run from a checkout",
              file=sys.stderr)
        return 2
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace),
              SIZES[args.size])
    try:
        outcome = WORKLOADS[args.workload](run)
    finally:
        shutil.rmtree(run.tmp, ignore_errors=True)
        try:
            run.tmp.parent.rmdir()
        except OSError:
            pass

    if args.trace:
        values = outcome.layers
        units = metric_units("per_layer")
    else:
        values = {
            "wall_s": outcome.wall_s,
            "setup_s": median(outcome.setup),
            "peak_rss_mb": run.rss_kb / 1024.0,
        }
        units = metric_units("end_to_end")
    if set(values) != set(units):
        raise SystemExit("metrics computed and named in BENCHMARK.json differ: "
                         f"{sorted(set(values) ^ set(units))}")
    print(f"workload {args.workload}, seed {args.seed}, "
          f"{len(outcome.units)} units in the timed phase")
    for note in run.notes:
        print(f"  {note}")
    print(f"  units (s): {' '.join(f'{u.seconds:.3f}' for u in outcome.units)}")
    print(f"  set-ups (s): {' '.join(f'{s:.3f}' for s in outcome.setup)}")
    print(f"  wall_s samples: {percentile_line(outcome.samples)}")
    print(f"  failed_frac {_ratio(run.failed, run.attempted):.4g} "
          f"({run.failed} of {run.attempted} operations)")
    print(f"  tables sha256 {digest(outcome.tables)}")
    for name, value in values.items():
        print(f"  {name:<28} {value:>16.6g} {units[name]}")
    for failure in run.failures:
        print(f"CHECK FAILED {failure}")
    correct = not run.failures
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, run.attempted),
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
