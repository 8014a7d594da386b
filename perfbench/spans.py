"""Span tracer for the benchmark's traced runs.

The tracer wraps public functions of the ``repro`` layers from outside
the program.  Two kinds of wrapper are installed:

* a *span* records one call: name, start, end, parent span, process id
  and the campaign id every span of one unit of work shares, plus a few
  counts read off the call's result (cycles simulated, points
  evaluated, ...);
* a *counter* only adds up calls (and, where timed, seconds) for
  functions called far too often for one record each: the simulator's
  per-message and per-flit helpers and the queueing primitives.

Spans stay in memory and are written out when the process finishes its
work.  Pool workers forked from a traced process inherit the wrappers;
each writes its own spans whenever one of its top-level spans closes,
because the pool may terminate a worker without letting it exit
cleanly.

Run as a script, this module is the traced stand-in for ``python -m
repro``::

    python3 perfbench/spans.py <span-dir> <campaign-id> -- figure 1 ...

It times ``import repro.cli`` as the ``cli.import`` span, installs the
wrappers and calls ``repro.cli.main`` with the remaining arguments.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple

clock = time.perf_counter


# ----------------------------------------------------------------------
# Attributes read off results
# ----------------------------------------------------------------------
def _simulation_attrs(args: tuple, result: object) -> dict:
    sim, cfg = args[0], result.config
    counters = getattr(getattr(getattr(sim, "workload", None), "engine", None),
                       "counters", None)
    return {
        "cycles": int(result.cycles_run),
        "messages": int(getattr(counters, "completed", result.num_completed)),
        "flit_moves": int(getattr(counters, "flit_moves", 0)),
        "saturated": bool(result.saturated),
        "point": [cfg.message_length, cfg.hotspot_fraction, cfg.rate, cfg.seed],
    }


def _evaluation_attrs(args: tuple, result: object) -> dict:
    results = result if isinstance(result, list) else [result]
    return {
        "points": len(results),
        "iterations": int(sum(getattr(r, "iterations", 0) for r in results)),
    }


def _sweep_attrs(args: tuple, result: object) -> dict:
    return {"points": len(result.points)}


def _store_get_attrs(args: tuple, result: object) -> dict:
    return {"hit": result is not None}


def _shape_attrs(args: tuple, result: object) -> dict:
    return {"rel_err_light": float(result.mean_rel_error_light)}


#: Span targets: (module, qualified name, span name, attributes).
SPAN_TARGETS: List[Tuple[str, str, str, Optional[Callable]]] = [
    ("repro.simulator", "Simulation.__init__", "simulator.build", None),
    ("repro.simulator", "Simulation.run", "simulator.run", _simulation_attrs),
    ("repro.core", "HotSpotLatencyModel.sweep", "core.sweep", _sweep_attrs),
    ("repro.core", "HotSpotLatencyModel.saturation_rate", "core.saturation", None),
    ("repro.core", "HotSpotLatencyModel.evaluate", "core.evaluate",
     _evaluation_attrs),
    ("repro.core", "HotSpotLatencyModel.evaluate_batch", "core.evaluate",
     _evaluation_attrs),
    ("repro.experiments", "SweepEngine.run_panels", "sweep.campaign", None),
    ("repro.experiments", "SweepEngine.model_sweep", "sweep.model", None),
    ("repro.store", "ResultStore.get", "store.get", _store_get_attrs),
    ("repro.store", "ResultStore.put", "store.put", None),
    ("repro.resilience", "CheckpointJournal.record", "journal.record", None),
    ("repro.backends", "LocalPoolBackend.run", "backend.run", None),
    ("repro.cli", "shape_metrics", "report.shape", _shape_attrs),
]

#: Counter targets: (module, qualified name, count key, seconds key or
#: None).  A qualified name ending in a method of a base class also
#: covers every subclass that overrides the method.
COUNTER_TARGETS: List[Tuple[str, str, str, Optional[str]]] = [
    ("repro.traffic", "ArrivalModel.sample_gaps", "traffic.gap_calls",
     "traffic.gap_s"),
    ("repro.traffic", "DestinationPattern.draw", "traffic.draws", None),
    ("repro.simulator.router", "RouteTable.route", "router.route_calls",
     "router.route_s"),
    ("repro.simulator.buffers", "VirtualChannelPool.request",
     "buffers.vc_requests", "buffers.vc_s"),
    ("repro.simulator.buffers", "VirtualChannelPool.grant_one",
     "buffers.vc_grant_calls", "buffers.vc_s"),
    ("repro.simulator.buffers", "VirtualChannelPool.release",
     "buffers.vc_releases", "buffers.vc_s"),
    ("repro.simulator.stats", "LatencyStats.record", "stats.records", None),
    ("repro.core.model", "mg1_waiting_time", "queueing.calls", "queueing.s"),
    ("repro.core.model", "blocking_delay", "queueing.calls", "queueing.s"),
    ("repro.core.model", "blocking_delay_raw", "queueing.calls", "queueing.s"),
    ("repro.core.model", "multiplexing_degree", "queueing.calls", "queueing.s"),
]


#: Counters of calls that returned something other than ``None``.
HIT_KEYS = {"buffers.vc_grant_calls": "buffers.vc_grants"}


def _resolve(module: str, qualname: str) -> List[Tuple[object, str, object]]:
    """``(owner, attribute, function)`` triples a target names.

    For a method, the owner is the class and every subclass overriding
    it; abstract declarations are skipped.  Raises ``LookupError`` when
    the module or name is gone.
    """
    try:
        owner = importlib.import_module(module)
    except ImportError as exc:
        raise LookupError(str(exc)) from None
    *path, attr = qualname.split(".")
    for part in path:
        if not hasattr(owner, part):
            raise LookupError(f"{module}.{qualname}")
        owner = getattr(owner, part)
    if attr not in vars(owner):
        raise LookupError(f"{module}.{qualname}")
    owners = [owner]
    if isinstance(owner, type):
        todo = list(owner.__subclasses__())
        while todo:
            cls = todo.pop()
            todo.extend(cls.__subclasses__())
            if attr in vars(cls) and cls not in owners:
                owners.append(cls)
    found = []
    for own in owners:
        fn = vars(own)[attr]
        if not getattr(fn, "__isabstractmethod__", False):
            found.append((own, attr, fn))
    return found


class Tracer:
    """Records spans and counters for one unit of work in one process.

    Parameters
    ----------
    campaign:
        Id shared by every span of the unit.
    out_dir:
        Where :meth:`flush` writes ``spans-<pid>.jsonl``.
    """

    def __init__(self, campaign: str, out_dir: "Path | str") -> None:
        self.campaign = campaign
        self.out_dir = Path(out_dir)
        self.pid = os.getpid()
        self.worker = False
        self.seq = 0
        self.stack: List[str] = []
        self.spans: List[dict] = []
        self.counters: Dict[str, float] = {}
        self.absent: List[str] = []
        self._patched: List[Tuple[object, str, object]] = []
        self._active = False
        os.register_at_fork(after_in_child=self._after_fork)

    # -- recording -----------------------------------------------------
    def _after_fork(self) -> None:
        if not self._active:
            return
        self.pid = os.getpid()
        self.worker = True
        self.spans.clear()
        self.counters.clear()

    def add_span(self, name: str, t0: float, t1: float, **attrs: object) -> None:
        """Record a span measured by the caller (no parent)."""
        self.seq += 1
        self.spans.append({
            "id": f"{self.pid}:{self.seq}", "parent": None, "name": name,
            "t0": t0, "t1": t1, "pid": self.pid, "campaign": self.campaign,
            "attrs": attrs,
        })

    def _span_wrapper(self, name: str, fn: Callable,
                      attrs: Optional[Callable]) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.seq += 1
            sid = f"{tracer.pid}:{tracer.seq}"
            parent = tracer.stack[-1] if tracer.stack else None
            tracer.stack.append(sid)
            record = {"id": sid, "parent": parent, "name": name,
                      "pid": tracer.pid, "campaign": tracer.campaign}
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                record["error"] = True
                raise
            finally:
                record["t0"], record["t1"] = t0, clock()
                tracer.stack.pop()
                tracer.spans.append(record)
            if attrs is not None:
                try:
                    record["attrs"] = attrs(args, result)
                except (AttributeError, TypeError) as exc:
                    record["attrs_error"] = f"{type(exc).__name__}: {exc}"
            if tracer.worker and (
                parent is None or not parent.startswith(f"{tracer.pid}:")
            ):
                tracer.flush()
            return result

        return wrapper

    def _counter_wrapper(self, fn: Callable, count_key: str,
                         seconds_key: Optional[str]) -> Callable:
        counters = self.counters
        hit_key = HIT_KEYS.get(count_key)

        if seconds_key is None:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counters[count_key] = counters.get(count_key, 0) + 1
                return fn(*args, **kwargs)
            return counted

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            counters[count_key] = counters.get(count_key, 0) + 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                counters[seconds_key] = (
                    counters.get(seconds_key, 0.0) + clock() - t0
                )
            if hit_key is not None and result is not None:
                counters[hit_key] = counters.get(hit_key, 0) + 1
            return result
        return timed

    # -- installation --------------------------------------------------
    def install(self) -> List[str]:
        """Wrap every target; return the targets that no longer exist."""
        self.absent = []
        for module, qualname, name, attrs in SPAN_TARGETS:
            self._patch(module, qualname,
                        lambda fn: self._span_wrapper(name, fn, attrs))
        for module, qualname, count_key, seconds_key in COUNTER_TARGETS:
            self._patch(module, qualname,
                        lambda fn: self._counter_wrapper(fn, count_key,
                                                         seconds_key))
        self._active = True
        return self.absent

    def _patch(self, module: str, qualname: str,
               make: Callable[[Callable], Callable]) -> None:
        try:
            found = _resolve(module, qualname)
        except LookupError:
            self.absent.append(f"{module}:{qualname}")
            return
        for owner, attr, fn in found:
            self._patched.append((owner, attr, fn))
            setattr(owner, attr, make(fn))

    def uninstall(self) -> None:
        """Restore every wrapped function."""
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()
        self._active = False

    # -- output ----------------------------------------------------------
    def flush(self) -> None:
        """Append this process's spans and counters to its span file."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        lines = [json.dumps(s) for s in self.spans]
        lines.append(json.dumps({"counters": dict(self.counters),
                                 "pid": self.pid, "worker": self.worker,
                                 "absent": self.absent}))
        with open(self.out_dir / f"spans-{self.pid}.jsonl", "a") as fh:
            fh.write("\n".join(lines) + "\n")
        self.spans.clear()
        self.counters.clear()


# ----------------------------------------------------------------------
# Reading and summarising spans
# ----------------------------------------------------------------------
class Trace:
    """Spans and counters of one traced unit, from every process."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self.counters: Dict[str, float] = {}
        self.worker_pids: set = set()
        self.absent: set = set()  # targets that no longer exist

    def _add_counters(self, counters: Dict[str, float]) -> None:
        for key, value in counters.items():
            self.counters[key] = self.counters.get(key, 0) + value

    @classmethod
    def load(cls, out_dir: "Path | str") -> "Trace":
        trace = cls()
        for path in sorted(Path(out_dir).glob("spans-*.jsonl")):
            for line in path.read_text().splitlines():
                rec = json.loads(line)
                if "counters" not in rec:
                    trace.spans.append(rec)
                    continue
                if rec["worker"]:
                    trace.worker_pids.add(rec["pid"])
                trace.absent.update(rec["absent"])
                trace._add_counters(rec["counters"])
        return trace

    @classmethod
    def merge(cls, traces: Iterable["Trace"]) -> "Trace":
        merged = cls()
        for t in traces:
            merged.spans += t.spans
            merged.worker_pids |= t.worker_pids
            merged.absent |= t.absent
            merged._add_counters(t.counters)
        return merged

    def named(self, name: str) -> List[dict]:
        return [s for s in self.spans if s["name"] == name]

    def attrs(self, name: str) -> List[dict]:
        """Attributes of the ``name`` spans (empty where none recorded)."""
        return [s.get("attrs", {}) for s in self.named(name)]

    def outermost(self, name: str) -> List[dict]:
        """``name`` spans not nested in another ``name`` span."""
        names = {s["id"]: s["name"] for s in self.spans}
        return [s for s in self.named(name) if names.get(s["parent"]) != name]

    def total(self, name: str) -> float:
        return sum(s["t1"] - s["t0"] for s in self.named(name))

    def self_time(self, name: str) -> float:
        """Time in ``name`` spans covered by none of their child spans."""
        children: Dict[str, List[Tuple[float, float]]] = {}
        for s in self.spans:
            if s["parent"] is not None:
                children.setdefault(s["parent"], []).append((s["t0"], s["t1"]))
        total = 0.0
        for s in self.named(name):
            inside = [(max(a, s["t0"]), min(b, s["t1"]))
                      for a, b in children.get(s["id"], [])]
            total += (s["t1"] - s["t0"]) - covered(inside)
        return total

    def top_level(self) -> List[Tuple[float, float]]:
        return [(s["t0"], s["t1"]) for s in self.spans if s["parent"] is None]


def covered(intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total, end = 0.0, None
    for a, b in sorted(i for i in intervals if i[1] > i[0]):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def _cli_main(argv: List[str]) -> int:
    out_dir, campaign, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: spans.py <span-dir> <campaign-id> -- <repro args>")
    tracer = Tracer(campaign, out_dir)
    t0 = clock()
    import repro.cli

    tracer.add_span("cli.import", t0, clock())
    tracer.install()
    try:
        return repro.cli.main(cli_args)
    finally:
        tracer.flush()


if __name__ == "__main__":
    sys.exit(_cli_main(sys.argv[1:]))
