"""Outside-in tracing of ``levyint``: spans around calls into each module.

The package itself is not modified.  :func:`instrument` rebinds each traced
public function in every ``levyint`` module that holds a reference to it
(``potential.simulate_path``, ``counterexamples.integral_at_times``, the rng
module's own ``derive_rng`` that callers reach as ``_rng.derive_rng``, ...)
and patches the two ``TestFunction`` methods on the class, then restores the
originals on exit.  Spans (name, start, end, thread, parent, counter) are
kept in memory; worker threads started by ``map_chunks`` parent their spans
to a ``rng.map_chunks.worker`` span whose parent is the enclosing
``map_chunks`` span.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import threading
from collections import defaultdict
from time import perf_counter

MODULES = ("rng", "models", "functions", "potential", "perpetual", "criteria",
           "counterexamples", "cli")


def _simulate_segments(args, kwargs, result):
    return len(result.times) - 1


def _written_bytes(args, kwargs, result):
    return os.path.getsize(args[0] if args else kwargs["path"])


def _overshoot_paths(args, kwargs, result):
    return len(result.levels) * result.paths_per_level


def _map_threads(args, kwargs, result):
    return kwargs.get("threads", args[2] if len(args) > 2 else 1)


# (module, function, counter): the counter turns a call into a work count
# (segments of the returned path, bytes written, paths simulated, threads).
FUNCTIONS = (
    ("rng", "derive_rng", None),
    ("rng", "map_chunks", _map_threads),
    ("models", "simulate_path", _simulate_segments),
    ("potential", "estimate_potential", None),
    ("potential", "occupation_histogram", None),
    ("perpetual", "integral_at_times", None),
    ("perpetual", "integral_along_path", None),
    ("perpetual", "finiteness_diagnosis", None),
    ("perpetual", "estimate_I_distribution", None),
    ("perpetual", "estimate_L_set", None),
    ("perpetual", "khasminskii_exponential_check", None),
    ("criteria", "potential_integral", None),
    ("criteria", "dk_test", None),
    ("criteria", "erickson_maller_test", None),
    ("criteria", "classify_ladder", None),
    ("criteria", "khasminskii_J", None),
    ("counterexamples", "estimate_overshoot_cdf", _overshoot_paths),
    ("counterexamples", "build_transient_trap", None),
    ("counterexamples", "verify_counterexample", None),
    ("counterexamples", "lattice_counterexample", None),
    ("cli", "main", None),
    ("cli", "write_csv", _written_bytes),
    ("cli", "write_json", _written_bytes),
)
# (class attribute, span name)
METHODS = (("integral_on", "functions.integral_on"), ("__call__", "functions.evaluate"))
WORKER = "rng.map_chunks.worker"
SPAN_NAMES = tuple(f"{m}.{f}" for m, f, _ in FUNCTIONS) + tuple(n for _, n in METHODS)


class Span:
    __slots__ = ("name", "start", "end", "thread", "parent", "count")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.thread = threading.get_ident()
        self.count = 0.0
        self.end = 0.0
        self.start = perf_counter()


class Tracer:
    """Collects spans from any thread; parents come from a per-thread stack."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name, parent=None) -> Span:
        stack = self._stack()
        sp = Span(name, parent if parent is not None else (stack[-1] if stack else None))
        self.spans.append(sp)
        stack.append(sp)
        return sp

    def _close(self, sp: Span) -> None:
        sp.end = perf_counter()
        self._stack().pop()

    def wrap(self, name, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sp = self._open(name)
            try:
                if name == "rng.map_chunks":
                    args, kwargs = self._wrap_worker(sp, args, kwargs)
                result = fn(*args, **kwargs)
            finally:
                self._close(sp)
            if counter is not None:
                sp.count = counter(args, kwargs, result)
            return result
        return traced

    def _wrap_worker(self, parent, args, kwargs):
        worker = args[1] if len(args) > 1 else kwargs.pop("worker")

        def traced_worker(a, b):
            sp = self._open(WORKER, parent)
            try:
                return worker(a, b)
            finally:
                self._close(sp)

        if len(args) > 1:
            return (args[0], traced_worker, *args[2:]), kwargs
        return args, {**kwargs, "worker": traced_worker}


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Rebind every traced name in every levyint module; restore on exit."""
    mods = [importlib.import_module("levyint")]
    mods += [importlib.import_module(f"levyint.{m}") for m in MODULES]
    undo = []
    try:
        for mod_name, fn_name, counter in FUNCTIONS:
            orig = getattr(importlib.import_module(f"levyint.{mod_name}"), fn_name)
            traced = tracer.wrap(f"{mod_name}.{fn_name}", orig, counter)
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        undo.append((mod, attr, orig))
                        setattr(mod, attr, traced)
        cls = importlib.import_module("levyint.functions").TestFunction
        for attr, name in METHODS:
            orig = cls.__dict__[attr]
            undo.append((cls, attr, orig))
            setattr(cls, attr, tracer.wrap(name, orig))
        yield tracer
    finally:
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)


def _union_length(intervals) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def aggregate(spans) -> dict:
    """Per span name: calls, total and self seconds, summed counter.

    Self time is a span's duration minus the union of its children's
    intervals (children may overlap when they run on worker threads).
    """
    children = defaultdict(list)
    for sp in spans:
        if sp.parent is not None:
            children[id(sp.parent)].append((sp.start, sp.end))
    agg = {name: {"calls": 0, "total": 0.0, "self": 0.0, "count": 0.0}
           for name in SPAN_NAMES + (WORKER,)}
    threads_time = 0.0
    for sp in spans:
        a = agg[sp.name]
        dur = sp.end - sp.start
        a["calls"] += 1
        a["total"] += dur
        a["self"] += dur - _union_length(children.get(id(sp), ()))
        a["count"] += sp.count
        if sp.name == "rng.map_chunks":
            threads_time += dur * max(1, sp.count)
    agg["rng.map_chunks"]["thread_seconds"] = threads_time
    return agg


def layer_metrics(agg: dict) -> dict:
    """The per-layer metrics of BENCHMARK.json from one batch's aggregate."""
    def per(name, num, den, scale=1.0):
        return scale * agg[name][num] / agg[name][den] if agg[name][den] else 0.0

    m = {}
    for name in SPAN_NAMES:
        a = agg[name]
        m[f"{name}.calls"] = a["calls"]
        m[f"{name}.self_s"] = a["self"]
        m[f"{name}.total_s"] = a["total"]
    ts = agg["rng.map_chunks"]["thread_seconds"]
    m["rng.map_chunks.parallel_eff"] = agg[WORKER]["total"] / ts if ts else 0.0
    m["models.simulate_path.us_per_path"] = per("models.simulate_path", "total", "calls", 1e6)
    m["models.simulate_path.segments_per_path"] = per("models.simulate_path", "count", "calls")
    m["potential.occupation_histogram.us_per_call"] = per("potential.occupation_histogram",
                                                          "total", "calls", 1e6)
    m["counterexamples.estimate_overshoot_cdf.us_per_path"] = per(
        "counterexamples.estimate_overshoot_cdf", "total", "count", 1e6)
    m["cli.write_csv.bytes"] = agg["cli.write_csv"]["count"]
    m["cli.write_json.bytes"] = agg["cli.write_json"]["count"]
    return m


def write_spans(spans, path) -> None:
    """One CSV row per span; parents refer to row ids."""
    ids = {id(sp): i for i, sp in enumerate(spans)}
    with open(path, "w") as fh:
        fh.write("id,name,start,end,thread,parent,count\n")
        for i, sp in enumerate(spans):
            parent = ids.get(id(sp.parent), -1)
            fh.write(f"{i},{sp.name},{sp.start!r},{sp.end!r},{sp.thread},{parent},{sp.count!r}\n")
