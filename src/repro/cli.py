"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``model``       evaluate the analytical model at one load or over a sweep
``saturation``  locate the model's saturation point
``simulate``    run one flit-level simulation
``panel``       regenerate a paper figure panel (model, optionally + sim)
``figure``      regenerate every panel of a figure in one parallel run
``list-panels`` show the available panels
``bench``       measure engine throughput, write/check a BENCH_*.json report
``worker``      serve a distributed sweep campaign directory

``panel`` and ``figure`` run on the sweep engine
(:class:`repro.experiments.sweep.SweepEngine`): ``--jobs N`` fans the
simulation points out over N worker processes (results are bit-identical
to ``--jobs 1``), and completed points are cached on disk under
``$REPRO_CACHE_DIR`` (default ``~/.cache/repro/sweeps``) so re-running a
figure is near-free; ``--no-cache`` bypasses the cache.

Sweeps are fault-tolerant: each simulation point is retried up to
``--max-retries`` times with capped exponential backoff (retried points
re-run the same per-point seed, so results stay bit-identical), a hung
point is killed after ``--point-timeout`` seconds (``--jobs > 1`` on the
local backend only; anywhere else the option is an error, exit 2), and
every completed point is checkpointed to a JSONL journal next to the
cache — an interrupted ``panel``/``figure`` run re-invoked with
``--resume`` picks up where it left off.  Points that exhaust their retry budget are
reported per panel and fail the command (exit 1) unless
``--allow-failures`` opts back into shipping a partial sweep.

``--backend file:<campaign-dir>`` (or ``REPRO_BACKEND``) runs the sweep
on the distributed file-queue backend: start ``repro worker
<campaign-dir>`` on any hosts sharing that directory and they claim
work via atomic lease files, with heartbeat health monitoring and
crash-consistent requeue (see ``repro.backends``).

Examples
--------
::

    python -m repro model --k 16 --lm 32 --h 0.2 --rate 3e-4
    python -m repro model --k 16 --lm 32 --h 0.4 --sweep 8 --plot
    python -m repro saturation --k 16 --lm 100 --h 0.7
    python -m repro simulate --k 16 --lm 32 --h 0.2 --rate 3e-4 --cycles 50000
    python -m repro panel fig1_h40 --simulate --jobs 4
    python -m repro figure 1 --simulate --jobs 8 --cycles 30000
    python -m repro bench --output benchmarks/results/
    python -m repro bench --quick --check benchmarks/results/BENCH_baseline.json
    python -m repro figure 1 --simulate --backend file:/shared/campaign
    python -m repro worker /shared/campaign          # on each worker host
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import TYPE_CHECKING, List, Optional

# A command imports what it runs, inside its handler: the parser needs
# only the panel definitions, and the model commands never load the
# simulator, the sweep engine or its process pool.  The two report
# names stay module-level bindings (tests and the benchmark tracer
# patch them).
from repro.experiments.figures import (
    ALL_PANELS,
    FIGURES,
    get_panel,
    panels_of_figure,
)
from repro.experiments.report import format_panel_table, shape_metrics

if TYPE_CHECKING:
    from repro.experiments.sweep import SweepEngine

__all__ = ["main", "build_parser"]


def _positive_int(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_network_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=int, default=16, help="radix (k x k torus)")
    p.add_argument("--lm", type=int, default=32, help="message length in flits")
    p.add_argument("--h", type=float, default=0.2, help="hot-spot fraction")
    p.add_argument("--vcs", type=int, default=2, help="virtual channels")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Hot-spot traffic in deterministically-routed k-ary n-cubes "
            "(Loucif, Ould-Khaoua & Min, IPDPS 2005): analytical model and "
            "flit-level simulator."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_model = sub.add_parser("model", help="evaluate the analytical model")
    _add_network_args(p_model)
    p_model.add_argument("--rate", type=float, help="one load (messages/cycle/node)")
    p_model.add_argument(
        "--sweep", type=int, metavar="N", help="sweep N loads up to saturation"
    )
    p_model.add_argument("--plot", action="store_true", help="ASCII chart")
    p_model.add_argument(
        "--literal-entrance",
        action="store_true",
        help="use the paper's literal entrance service times (no trip averaging)",
    )

    p_sat = sub.add_parser("saturation", help="locate the saturation point")
    _add_network_args(p_sat)

    p_sim = sub.add_parser("simulate", help="run one flit-level simulation")
    _add_network_args(p_sim)
    p_sim.add_argument("--rate", type=float, required=True)
    p_sim.add_argument("--cycles", type=int, default=120_000, help="measured cycles")
    p_sim.add_argument("--warmup", type=int, default=None)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument(
        "--ejection", action="store_true", help="model a real ejection channel"
    )

    def _add_sweep_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--simulate", action="store_true", help="also run the simulator series"
        )
        p.add_argument("--cycles", type=int, default=None,
                       help="measured cycles per simulation point")
        p.add_argument("--jobs", type=_positive_int, default=1,
                       help="simulation worker processes (default 1)")
        p.add_argument("--no-cache", action="store_true",
                       help="bypass the on-disk sweep result cache")
        p.add_argument("--seed", type=int, default=42,
                       help="base seed for the per-point simulation seeds")
        p.add_argument("--max-retries", type=int, default=2, metavar="N",
                       help="extra attempts per simulation point (default 2)")
        p.add_argument("--point-timeout", type=float, default=None,
                       metavar="SECS",
                       help="wall-clock seconds per point attempt before the "
                       "worker is presumed hung (needs --jobs > 1 on the "
                       "local backend; an error otherwise)")
        p.add_argument("--resume", action="store_true",
                       help="restore checkpointed points of an interrupted "
                       "run from the campaign journal")
        p.add_argument("--backend", default=None, metavar="SEL",
                       help="sweep backend: 'local' (default; also "
                       "$REPRO_BACKEND) or 'file:<campaign-dir>' for the "
                       "distributed file-queue backend (start workers "
                       "with `repro worker <campaign-dir>`)")
        p.add_argument("--allow-failures", action="store_true",
                       help="exit 0 even when some points exhausted their "
                       "retry budget (default: partial sweeps exit 1)")
        p.add_argument("--plot", action="store_true")

    p_panel = sub.add_parser("panel", help="regenerate a paper figure panel")
    p_panel.add_argument("name", choices=sorted(ALL_PANELS))
    _add_sweep_args(p_panel)

    p_fig = sub.add_parser(
        "figure", help="regenerate all panels of a figure (parallel with --jobs)"
    )
    p_fig.add_argument("number", type=int, choices=sorted(FIGURES))
    _add_sweep_args(p_fig)

    sub.add_parser("list-panels", help="list the paper's figure panels")

    p_worker = sub.add_parser(
        "worker",
        help="serve a distributed sweep campaign (file-queue backend)",
    )
    p_worker.add_argument(
        "campaign_dir",
        help="shared campaign directory (the --backend file:<dir> argument)",
    )
    p_worker.add_argument(
        "--id", default=None, metavar="NAME",
        help="stable worker identity for lease/heartbeat files "
        "(default: generated)",
    )
    p_worker.add_argument(
        "--poll", type=float, default=0.2, metavar="SECS",
        help="queue scan period when idle (default 0.2)",
    )
    p_worker.add_argument(
        "--heartbeat", type=float, default=5.0, metavar="SECS",
        help="heartbeat/lease refresh period (default 5)",
    )
    p_worker.add_argument(
        "--lease-duration", type=float, default=60.0, metavar="SECS",
        help="advisory lease lifetime written into claims (default 60)",
    )
    p_worker.add_argument(
        "--once", action="store_true",
        help="exit when the queue drains instead of waiting for more work",
    )
    p_worker.add_argument(
        "--max-units", type=_positive_int, default=None, metavar="N",
        help="exit after completing N work units",
    )

    p_bench = sub.add_parser(
        "bench",
        help="measure simulator/model throughput and record a BENCH report",
    )
    p_bench.add_argument(
        "--quick",
        action="store_true",
        help="short measurement window (CI smoke runs)",
    )
    p_bench.add_argument(
        "--rounds", type=_positive_int, default=3, help="timing rounds (best-of)"
    )
    p_bench.add_argument(
        "--output",
        metavar="PATH",
        default=None,
        help="write the BENCH_*.json report here (file, or directory for "
        "an auto-generated name)",
    )
    p_bench.add_argument(
        "--check",
        metavar="BASELINE",
        default=None,
        help="fail (exit 1) on a >2x cycles/sec regression vs this "
        "recorded BENCH_*.json baseline",
    )
    return parser


def _cmd_model(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.core.model import HotSpotLatencyModel
    from repro.core.uniform import UniformLatencyModel

    model = HotSpotLatencyModel(
        k=args.k,
        message_length=args.lm,
        hotspot_fraction=args.h,
        num_vcs=args.vcs,
        trip_averaging=not args.literal_entrance,
    ) if args.h > 0 else UniformLatencyModel(
        k=args.k,
        n=2,
        message_length=args.lm,
        num_vcs=args.vcs,
        trip_averaging=not args.literal_entrance,
    )
    if args.rate is None and args.sweep is None:
        print("error: give --rate or --sweep N", file=sys.stderr)
        return 2
    if args.rate is not None:
        res = model.evaluate(args.rate)
        if res.saturated:
            print(f"rate {args.rate:g}: SATURATED (no finite steady state)")
        else:
            print(f"rate {args.rate:g}: latency {res.latency:.2f} cycles")
            if res.breakdown is not None:
                b = res.breakdown
                print(f"  regular {b.regular_total:.2f}  hot {b.hot_total:.2f}  "
                      f"source wait {b.regular_source_wait:.2f}")
        return 0
    sat = model.saturation_rate(hi=0.05)
    rates = np.linspace(0.08, 1.02, args.sweep) * sat
    sweep = model.sweep([float(r) for r in rates], label="model")
    print(f"{'rate':>14} | {'latency (cycles)':>16}")
    print("-" * 34)
    for p in sweep.points:
        lat = "saturated" if p.saturated else f"{p.latency:.1f}"
        print(f"{p.rate:>14.6g} | {lat:>16}")
    if args.plot:
        from repro.viz import plot_sweeps

        print()
        print(plot_sweeps([sweep]))
    return 0


def _cmd_saturation(args: argparse.Namespace) -> int:
    from repro.core.model import HotSpotLatencyModel

    model = HotSpotLatencyModel(
        k=args.k, message_length=args.lm, hotspot_fraction=args.h, num_vcs=args.vcs
    )
    sat = model.saturation_rate(hi=0.05)
    bound = 1.0 / (args.h * args.k * (args.k - 1) * (args.lm + 1)) if args.h else None
    print(f"saturation rate: {sat:.6g} messages/cycle/node")
    if bound:
        print(f"hot-sink bandwidth bound lam*h*k(k-1)*(Lm+1)=1: {bound:.6g} "
              f"(model at {sat / bound:.0%} of it)")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.simulator.config import SimulationConfig
    from repro.simulator.sim import Simulation

    cfg = SimulationConfig(
        k=args.k,
        message_length=args.lm,
        rate=args.rate,
        hotspot_fraction=args.h,
        num_vcs=args.vcs,
        warmup_cycles=args.warmup if args.warmup is not None else max(args.cycles // 8, 1_000),
        measure_cycles=args.cycles,
        seed=args.seed,
        model_ejection=args.ejection,
    )
    res = Simulation(cfg).run()
    print(f"completed {res.num_completed} messages over {res.cycles_run} cycles")
    if res.num_completed:
        ci = f" ± {res.ci95:.1f}" if res.ci95 is not None else ""
        print(f"mean latency: {res.mean_latency:.1f}{ci} cycles")
        if not math.isnan(res.mean_latency_hot):
            print(f"  hot {res.mean_latency_hot:.1f}  "
                  f"regular {res.mean_latency_regular:.1f}")
    print(f"max channel utilisation: {res.max_channel_utilization:.3f} "
          f"(hot sink {res.hot_sink_utilization:.3f})")
    print(f"saturated: {res.saturated}")
    return 0


def _sweep_engine(args: argparse.Namespace) -> SweepEngine:
    from repro.experiments.sweep import SweepEngine

    return SweepEngine(
        jobs=args.jobs,
        use_cache=not args.no_cache,
        max_retries=args.max_retries,
        point_timeout=args.point_timeout,
        resume=args.resume,
        backend=args.backend,
    )


def _failed_points(results) -> int:
    """Terminal point failures across one or more panel results."""
    total = 0
    for result in results:
        sim = result.simulation
        if sim is not None:
            total += len(sim.failures)
    return total


def _failure_exit(args: argparse.Namespace, failed: int) -> int:
    if failed and not args.allow_failures:
        print(
            f"error: {failed} point(s) exhausted their retry budget — "
            "partial sweep (pass --allow-failures to accept)",
            file=sys.stderr,
        )
        return 1
    return 0


def _print_panel(result, args: argparse.Namespace) -> None:
    print(format_panel_table(result))
    sim = result.simulation
    if sim is not None and sim.failures:
        for f in sim.failures:
            print(f"FAILED point {f.index} (rate {f.rate:g}): {f.kind} "
                  f"after {f.attempts} attempt(s)"
                  + (f" — {f.message}" if f.message else ""))
    if args.simulate:
        m = shape_metrics(result)
        print(f"\nmean relative error (light/moderate load): "
              f"{m.mean_rel_error_light:.1%}")
    if args.plot:
        from repro.viz import plot_sweeps

        sweeps = [result.model] + (
            [result.simulation] if result.simulation is not None else []
        )
        print()
        print(plot_sweeps(sweeps))


def _print_resilience(engine: SweepEngine) -> None:
    stats = engine.stats
    if stats.eventful:
        print(f"\nresilience: {stats.retries} retries, {stats.timeouts} "
              f"timeouts, {stats.pool_rebuilds} pool rebuilds, "
              f"{stats.failures} failed points")


def _cmd_panel(args: argparse.Namespace, engine: SweepEngine) -> int:
    spec = get_panel(args.name)
    result = engine.run_panel(
        spec, simulate=args.simulate, seed=args.seed, measure_cycles=args.cycles
    )
    _print_panel(result, args)
    _print_resilience(engine)
    return _failure_exit(args, _failed_points([result]))


def _cmd_figure(args: argparse.Namespace, engine: SweepEngine) -> int:
    specs = panels_of_figure(args.number)
    results = engine.run_panels(
        specs, simulate=args.simulate, seed=args.seed, measure_cycles=args.cycles
    )
    for i, spec in enumerate(specs):
        if i:
            print()
        _print_panel(results[spec.name], args)
    _print_resilience(engine)
    return _failure_exit(
        args, _failed_points([results[s.name] for s in specs])
    )


def _cmd_bench(args: argparse.Namespace) -> int:
    import json

    from repro import bench

    report = bench.build_report(quick=args.quick, rounds=args.rounds)
    sim = report["simulator"]
    model = report["model"]
    window = "quick" if args.quick else "full"
    print(
        f"simulator [{sim['engine']}/{sim['kernel']}, {window}]: "
        f"{sim['cycles_per_sec']:,.0f} cycles/s, "
        f"{sim['flits_per_sec']:,.0f} flits/s "
        f"({sim['cycles_run']} cycles in {sim['seconds']:.3f}s, "
        f"{sim['completed']} deliveries)"
    )
    batch = report["model_batch"]
    print(
        f"model: {model['solves_per_sec']:,.1f} solves/s; "
        f"batched panel ({batch['points']} pts): "
        f"{batch['points_per_sec']:,.1f} points/s"
    )
    res = report.get("resilience")
    if res is not None:
        print(
            f"sweep [{res['jobs']} jobs]: {res['points_per_sec']:,.1f} "
            f"points/s ({res['points']} pts in {res['seconds']:.3f}s; "
            f"{res['retries']} retries, {res['pool_rebuilds']} rebuilds, "
            f"{res['failed_points']} failed)"
        )
    dist = report.get("distributed")
    if dist is not None:
        print(
            f"sweep [file-queue, {dist['workers']} workers]: "
            f"{dist['points_per_sec']:,.1f} points/s "
            f"({dist['points']} pts in {dist['seconds']:.3f}s; "
            f"{dist['retries']} retries, {dist['failed_points']} failed)"
        )
    print(f"config {report['config_hash']}  rev {report['git_rev']}")
    if args.output is not None:
        path = bench.write_report(report, args.output)
        print(f"report written to {path}")
    if args.check is not None:
        from pathlib import Path

        try:
            baseline = json.loads(Path(args.check).read_text())
        except (OSError, ValueError) as exc:
            print(f"error: cannot read baseline {args.check}: {exc}",
                  file=sys.stderr)
            return 2
        failures = bench.check_regression(report, baseline)
        if failures:
            for msg in failures:
                print(f"REGRESSION: {msg}", file=sys.stderr)
            return 1
        print(
            f"throughput OK vs baseline {args.check} "
            f"({float(baseline['simulator']['cycles_per_sec']):,.0f} cycles/s)"
        )
    return 0


def _cmd_list_panels() -> int:
    for name, spec in sorted(ALL_PANELS.items()):
        print(f"{name:10} {spec.description}")
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro import faults
    from repro.backends.worker import FileQueueWorker

    # Arm the distributed fault hooks (worker-kill/heartbeat-stall/
    # lease-steal) — they only ever fire in a real worker process.
    faults.mark_worker_process()
    worker = FileQueueWorker(
        args.campaign_dir,
        worker_id=args.id,
        poll_interval=args.poll,
        heartbeat_interval=args.heartbeat,
        lease_duration=args.lease_duration,
        once=args.once,
    )
    done = worker.run(max_units=args.max_units)
    print(f"worker {worker.worker_id}: {done} unit(s) completed")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "model":
        return _cmd_model(args)
    if args.command == "saturation":
        return _cmd_saturation(args)
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command in ("panel", "figure"):
        try:
            engine = _sweep_engine(args)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if args.command == "panel":
            return _cmd_panel(args, engine)
        return _cmd_figure(args, engine)
    if args.command == "bench":
        return _cmd_bench(args)
    if args.command == "list-panels":
        return _cmd_list_panels()
    if args.command == "worker":
        return _cmd_worker(args)
    raise AssertionError(f"unhandled command {args.command!r}")
