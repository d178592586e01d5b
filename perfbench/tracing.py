"""Span tracing of the hillbands layers, installed from outside the package.

``install(tracer)`` wraps the public functions and methods of each module and
rebinds every wrapper wherever the original is reachable: on its class, in
every loaded ``hillbands`` module that imported it by name, and in
``verify.SUITES``. Nothing under ``src/`` changes.

A span is (name, start, end, parent); spans stay in memory and are written out
once, by ``Tracer.dump``. Span stacks are per thread. ``band_curve`` may run
``compute_point`` on a thread pool, so a span that opens on a worker thread
with an empty stack takes the open ``band_curve`` span as its parent. A span's
self time is its duration minus the part of it covered by its children
(intervals merged, since adopted children overlap each other).

``QuotientLattice.canonicalize`` runs over a million times on the strict
workload. It is counted and timed but records no span; its time is taken off
the enclosing span's self time and reported under the lattice layer.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import defaultdict

# metric name -> traced function names whose self time it sums
SELF_TIME = {
    "lattice.ball_s": ["lattice.ball"],
    "potential.fold_s": ["potential.fold"],
    "operators.assemble_s": ["operators.assemble"],
    "scales.resonance_profile_s": ["scales.resonance_profile"],
    "domains.build_s": ["domains.lambda0", "domains.symmetrize_S",
                        "domains.symmetrize_T"],
    "schur.q_g_s": ["schur.q_g_functions"],
    "schur.weights_s": ["schur.verify_weight_lemma",
                        "schur.weight_sum_upper_bound_audit"],
    "eigensolve.resolvent_s": ["eigensolve.PuncturedResolvent"],
    "eigensolve.solve_pair_s": ["eigensolve.solve_pair"],
    "band.band_curve_s": ["band.band_curve", "band.compute_point"],
    "band.gap_edges_s": ["band.gap_edges"],
    "band.audits_s": ["band.symmetry_audit", "band.conjugate_reflection_audit",
                      "band.monotonicity_audit", "band.increment_audit",
                      "band.decay_audit", "band.gap_spectrum_audit",
                      "band.gap_edge_limit_crosscheck",
                      "band.gap_resolvent_audit"],
    "oracle.floquet_s": ["oracle.floquet_scan", "oracle.floquet_discriminant",
                         "oracle.floquet_gap_edges"],
    "oracle.dense_s": ["oracle.dense_spectrum"],
    "cli.self_s": ["cli.main"],
}

# metric name -> traced function whose calls it counts
CALLS = {
    "operators.assemble_calls": "operators.assemble",
    "schur.q_g_calls": "schur.q_g_functions",
    "eigensolve.resolvent_calls": "eigensolve.PuncturedResolvent",
    "oracle.floquet_calls": "oracle.floquet_discriminant",
    "oracle.dense_calls": "oracle.dense_spectrum",
}

SUITES = ["weights", "schur", "dichotomy", "cff", "domains", "band", "floquet"]

# counters filled by the result hooks below
COUNTERS = ["domains.build_calls", "operators.assemble_bytes",
            "eigensolve.resolvent_n_max", "eigensolve.fixed_point_iters",
            "band.points_simple", "band.points_pair", "band.points_chain",
            "band.points_error"]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []   # [name, start, end, parent, thread, hot_s]
        self.hot = defaultdict(lambda: [0, 0.0])   # name -> [calls, seconds]
        self.counters: dict[str, float] = defaultdict(float)
        self.threads_seen: set[int] = set()
        self._local = threading.local()
        self.open_band_curves: list[int] = []
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn, args, kwargs, on_result=None):
        stack = self._stack()
        if stack:
            parent = stack[-1][0]
        elif (self.open_band_curves
              and threading.current_thread() is not threading.main_thread()):
            parent = self.open_band_curves[-1]
        else:
            parent = None
        with self._lock:
            index = len(self.spans)
            record = [name, 0.0, 0.0, parent, threading.get_ident(), 0.0]
            self.spans.append(record)
        stack.append((index, record))
        adopt = name == "band.band_curve"
        if adopt:
            self.open_band_curves.append(index)
        record[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            stack.pop()
            if adopt:
                self.open_band_curves.pop()
        if on_result is not None:
            with self._lock:
                on_result(self, args, kwargs, result)
        return result

    def hot_call(self, name: str, fn, args, kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            stack = self._stack()
            with self._lock:
                entry = self.hot[name]
                entry[0] += 1
                entry[1] += elapsed
                if stack:
                    stack[-1][1][5] += elapsed   # taken off the parent's self time

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        children = defaultdict(list)
        for rec in self.spans:
            if rec[3] is not None:
                children[rec[3]].append((rec[1], rec[2]))
        totals: dict[str, float] = defaultdict(float)
        for index, (name, start, end, _parent, _thread, hot) in enumerate(self.spans):
            covered = 0.0
            cursor = start
            for a, b in sorted(children.get(index, ())):
                a, b = max(a, cursor), min(b, end)
                if b > a:
                    covered += b - a
                    cursor = b
            totals[name] += (end - start) - covered - hot
        return totals

    def metrics(self) -> dict[str, float]:
        totals = self.self_times()
        counts: dict[str, int] = defaultdict(int)
        for rec in self.spans:
            counts[rec[0]] += 1
        out: dict[str, float] = {}
        for metric, names in SELF_TIME.items():
            out[metric] = sum(totals.get(n, 0.0) for n in names)
        for metric, name in CALLS.items():
            out[metric] = counts.get(name, 0)
        calls, seconds = self.hot["lattice.canonicalize"]
        out["lattice.canonicalize_calls"] = calls
        out["lattice.canonicalize_s"] = seconds
        for metric in COUNTERS:
            out[metric] = self.counters.get(metric, 0)
        for suite in SUITES:
            out[f"verify.suite_{suite}_s"] = sum(
                rec[2] - rec[1] for rec in self.spans
                if rec[0] == f"verify.suite_{suite}")
        return out

    def dump(self, path) -> None:
        """Write the spans as JSON: one [name, start, end, parent, thread]
        list each, plus the per-name totals of the span-less hot calls."""
        payload = {
            "spans": [rec[:5] for rec in self.spans],
            "hot": {name: {"calls": c, "seconds": s}
                    for name, (c, s) in self.hot.items()},
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


# --- result hooks (run under the tracer lock) ---

def _count_build(tracer, args, kwargs, result):
    tracer.counters["domains.build_calls"] += 1


def _assemble_bytes(tracer, args, kwargs, result):
    tracer.counters["operators.assemble_bytes"] += 16 * result.size ** 2


def _resolvent_size(tracer, args, kwargs, result):
    n = len(args[0].others)
    key = "eigensolve.resolvent_n_max"
    tracer.counters[key] = max(tracer.counters.get(key, 0), n)


def _iterations(tracer, args, kwargs, result):
    tracer.counters["eigensolve.fixed_point_iters"] += result.iterations


def _point_class(tracer, args, kwargs, result):
    if not tracer.open_band_curves:
        return      # a point an audit computed, not one of a band curve
    klass = result.klass
    if klass.startswith("N"):
        key = "band.points_simple"
    elif klass == "OPR":
        key = "band.points_pair"
    elif klass.startswith("GSR"):
        key = "band.points_chain"
    else:
        key = "band.points_error"
    tracer.counters[key] += 1


def _threads(tracer, args, kwargs, result):
    tracer.threads_seen.add(int(kwargs.get("threads", 1)))


# (module, attribute, span name, result hook); "Class.method" wraps a method
TARGETS = [
    ("lattice", "QuotientLattice.ball", "lattice.ball", None),
    ("potential", "fold", "potential.fold", None),
    ("operators", "assemble", "operators.assemble", _assemble_bytes),
    ("scales", "resonance_profile", "scales.resonance_profile", None),
    ("domains", "DomainBuilder.lambda0", "domains.lambda0", _count_build),
    ("domains", "symmetrize_S", "domains.symmetrize_S", _count_build),
    ("domains", "symmetrize_T", "domains.symmetrize_T", _count_build),
    ("schur", "q_g_functions", "schur.q_g_functions", None),
    ("schur", "verify_weight_lemma", "schur.verify_weight_lemma", None),
    ("schur", "weight_sum_upper_bound_audit",
     "schur.weight_sum_upper_bound_audit", None),
    ("eigensolve", "PuncturedResolvent.__init__",
     "eigensolve.PuncturedResolvent", _resolvent_size),
    ("eigensolve", "solve_simple", "eigensolve.solve_simple", _iterations),
    ("eigensolve", "solve_pair", "eigensolve.solve_pair", None),
    ("band", "band_curve", "band.band_curve", _threads),
    ("band", "compute_point", "band.compute_point", _point_class),
    ("band", "gap_edges", "band.gap_edges", None),
    ("band", "symmetry_audit", "band.symmetry_audit", None),
    ("band", "conjugate_reflection_audit", "band.conjugate_reflection_audit", None),
    ("band", "monotonicity_audit", "band.monotonicity_audit", None),
    ("band", "increment_audit", "band.increment_audit", None),
    ("band", "decay_audit", "band.decay_audit", None),
    ("band", "gap_spectrum_audit", "band.gap_spectrum_audit", None),
    ("band", "gap_edge_limit_crosscheck", "band.gap_edge_limit_crosscheck", None),
    ("band", "gap_resolvent_audit", "band.gap_resolvent_audit", None),
    ("oracle", "floquet_scan", "oracle.floquet_scan", None),
    ("oracle", "floquet_discriminant", "oracle.floquet_discriminant", None),
    ("oracle", "floquet_gap_edges", "oracle.floquet_gap_edges", None),
    ("oracle", "dense_spectrum", "oracle.dense_spectrum", None),
    ("cli", "main", "cli.main", None),
] + [("verify", f"suite_{s}", f"verify.suite_{s}", None) for s in SUITES]


def _wrapper(tracer: Tracer, fn, name: str, hook):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.span(name, fn, args, kwargs, hook)
    return traced


def _hot_wrapper(tracer: Tracer, fn, name: str):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.hot_call(name, fn, args, kwargs)
    return traced


def install(tracer: Tracer) -> None:
    """Wrap every target and rebind it in each place it can be called from."""
    import hillbands.cli  # noqa: F401  (loads every module that is wrapped)
    from hillbands import lattice, verify

    lattice.QuotientLattice.canonicalize = _hot_wrapper(
        tracer, lattice.QuotientLattice.canonicalize, "lattice.canonicalize")
    modules = [m for key, m in sys.modules.items()
               if key == "hillbands" or key.startswith("hillbands.")]
    for module_name, attr, name, hook in TARGETS:
        module = sys.modules[f"hillbands.{module_name}"]
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, method, _wrapper(tracer, getattr(cls, method), name, hook))
            continue
        original = getattr(module, attr)
        traced = _wrapper(tracer, original, name, hook)
        for consumer in modules:
            for key, value in list(vars(consumer).items()):
                if value is original:
                    setattr(consumer, key, traced)
        for key, value in list(verify.SUITES.items()):
            if value is original:
                verify.SUITES[key] = traced
