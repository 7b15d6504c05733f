"""Traced mode: spans around calls into each orlicz-lab layer, and the
per-layer metrics made from them.

``install`` wraps the public functions and methods of every module where
they are looked up -- module attributes such as ``orlicz_lab.norms.
modular_from_values`` or ``orlicz_lab.suites.hardy_norm``, and methods on
the classes -- so calls between the program's own modules are seen too.  A
span is (name, start, end, parent, points), kept in flat arrays in memory.
A layer's self time is the duration of its spans minus the time their child
spans cover; its calls are the spans entered from outside the layer, so a
nested call such as ``bergman_norm`` -> ``luxemburg_norm`` counts once.

Untraced runs never import this module.
"""

from __future__ import annotations

import functools
import json
import math
import statistics
import time
from array import array

import numpy as np

class Tracer:
    def __init__(self):
        self.active = True
        self.names = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.points = array("q")
        # span name -> layer; a call nested in a span of the same layer is not
        # a new entry into that layer
        self.layer_of = {}
        self._stack = []

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.points.append(0)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int, points: int = 0):
        self.ends[idx] = time.perf_counter()
        self._stack.pop()
        if points:
            self.points[idx] = points

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({
                    "id": i, "name": name, "start": self.starts[i], "end": self.ends[i],
                    "parent": self.parents[i], "points": self.points[i],
                }) + "\n")


def _wrap(tracer, name, layer, fn, points=None):
    tracer.layer_of[name] = layer

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        idx = tracer.open(name)
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            tracer.close(idx)
            raise
        tracer.close(idx, points(args, kwargs, out) if points else 0)
        return out

    return traced


def _size_of_result(args, kwargs, out):
    return int(np.size(out))


def _size_of_arg1(args, kwargs, out):
    return int(np.size(args[1]))


def _radii(args, kwargs, out):
    from orlicz_lab import norms

    radii = kwargs.get("radii", args[2] if len(args) > 2 else None)
    return len(radii) if radii is not None else len(norms.DEFAULT_RADII)


def _grid_points(args, kwargs, out):
    return len(out.x_points)


def _modular_points(args, kwargs, out):
    dom = kwargs.get("dom", args[2] if len(args) > 2 else None)
    return dom.size


def install(tracer: Tracer):
    """Wrap the program's public entry points; returns the tracer."""
    import orlicz_lab
    from orlicz_lab import classify, cli, domains, functions, grids, logdomain, norms, suites, witnesses

    modules = (orlicz_lab, classify, cli, domains, functions, grids, logdomain, norms,
               suites, witnesses)
    replaced = {}

    def module_fn(mod, attr, layer, points=None):
        fn = getattr(mod, attr)
        replaced[id(fn)] = _wrap(tracer, f"{mod.__name__.split('.')[-1]}.{attr}", layer, fn, points)

    def method(cls, attr, layer, points=None):
        raw = cls.__dict__.get(attr)
        if raw is None:
            return
        name = f"{cls.__name__}.{attr}"
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(_wrap(tracer, name, layer, raw.__func__, points)))
        else:
            setattr(cls, attr, _wrap(tracer, name, layer, raw, points))

    for cls in (functions.OrliczFunction, functions.PowerFunction, functions.ExpLogSquared,
                functions.ExpMinusOne, functions.PiecewiseAffine, functions.SquareComposed,
                functions.ArgSquared, functions.ScaledArgument):
        method(cls, "eval_log", "eval_log", _size_of_arg1)
        method(cls, "inverse", "inverse")
        method(cls, "inverse_log", "inverse")
    for attr in ("log_add", "log_diff", "log_sum", "log_expm1"):
        module_fn(logdomain, attr, "logdomain")
    method(grids.GrowthSampleGrid, "default_for", "grid", _grid_points)
    for cls, constructors in ((domains.CircleDomain, ("uniform", "refined")),
                          (domains.DiskDomain, ("polar", "kernel_refined", "boundary_refined"))):
        for attr in constructors + ("half_resolution", "refine"):
            method(cls, attr, "rule_build")
        method(cls, "nodes", "nodes", _size_of_result)
    method(domains.DiskDomain, "weights", "weights", _size_of_result)
    module_fn(domains, "circle", "rule_build")
    module_fn(domains, "disk", "rule_build")
    for cls in (witnesses.Monomial, witnesses.Polynomial, witnesses.KernelSquared,
                witnesses.ScaledKernel, witnesses.EvaluationEnvelope):
        method(cls, "values", "values", _size_of_result)
    for attr in ("luxemburg_norm", "bergman_norm", "circle_norm"):
        module_fn(norms, attr, "norm")
    module_fn(norms, "hardy_norm", "norm", _radii)
    module_fn(norms, "modular_from_values", "modular", _size_of_arg1)
    module_fn(norms, "modular", "modular", _modular_points)
    module_fn(norms, "weak_tail_check", "evidence")
    module_fn(norms, "morse_transue_evidence", "evidence")
    module_fn(classify, "classify_injection", "classify")
    module_fn(classify, "estimate_quotient", "quotient")
    module_fn(classify, "check_condition", "condition")
    module_fn(classify, "check_conjugate_delta2", "condition")

    # point every module's name for a wrapped function at the wrapper
    for mod in modules:
        for attr, val in list(vars(mod).items()):
            wrapper = replaced.get(id(val))
            if wrapper is not None and callable(val):
                setattr(mod, attr, wrapper)
    return tracer


# -- aggregation ------------------------------------------------------------------


def layer_totals(tracer: Tracer):
    """Per layer: entries, points over entries, self time; plus per-op
    durations and modular entries made under a norm."""
    n = len(tracer.names)
    layer = [tracer.layer_of.get(nm, "op") for nm in tracer.names]
    child_time = [0.0] * n
    for i in range(n):
        p = tracer.parents[i]
        if p >= 0:
            child_time[p] += tracer.ends[i] - tracer.starts[i]
    totals = {}
    modular_in_norm = 0
    op_time = {}
    for i in range(n):
        lay = layer[i]
        dur = tracer.ends[i] - tracer.starts[i]
        t = totals.setdefault(lay, {"calls": 0, "points": 0, "self_s": 0.0})
        t["self_s"] += dur - child_time[i]
        p = tracer.parents[i]
        if p >= 0 and layer[p] == lay:
            continue
        t["calls"] += 1
        t["points"] += tracer.points[i]
        if lay == "op":
            op_time[tracer.names[i]] = op_time.get(tracer.names[i], 0.0) + dur
        if lay == "modular":
            while p >= 0 and layer[p] != "norm":
                p = tracer.parents[p]
            modular_in_norm += p >= 0
    hardy = [i for i in range(n) if tracer.names[i] == "norms.hardy_norm"
             and not (tracer.parents[i] >= 0 and layer[tracer.parents[i]] == "norm")]
    return totals, op_time, modular_in_norm, hardy


def per_layer_metrics(tracer: Tracer, passes: int, suite_checks: int) -> dict:
    """The per-layer metrics of one pass (totals divided by the pass count;
    every pass runs the same operations, so counts stay whole)."""
    totals, op_time, modular_in_norm, hardy = layer_totals(tracer)

    def get(lay, key):
        v = totals.get(lay, {}).get(key, 0)
        return v / passes if key == "self_s" else v // passes

    norm_calls = get("norm", "calls")
    m = {
        "functions.eval_log_calls": (get("eval_log", "calls"), "count"),
        "functions.eval_log_points": (get("eval_log", "points"), "count"),
        "functions.eval_log_self_s": (get("eval_log", "self_s"), "s"),
        "functions.inverse_calls": (get("inverse", "calls"), "count"),
        "functions.inverse_self_s": (get("inverse", "self_s"), "s"),
        "logdomain.calls": (get("logdomain", "calls"), "count"),
        "logdomain.self_s": (get("logdomain", "self_s"), "s"),
        "grids.default_for_calls": (get("grid", "calls"), "count"),
        "grids.x_points": (get("grid", "points"), "count"),
        "grids.default_for_self_s": (get("grid", "self_s"), "s"),
        "domains.rule_builds": (get("rule_build", "calls"), "count"),
        "domains.rule_build_self_s": (get("rule_build", "self_s"), "s"),
        "domains.nodes_calls": (get("nodes", "calls"), "count"),
        "domains.nodes_points": (get("nodes", "points"), "count"),
        "domains.nodes_self_s": (get("nodes", "self_s"), "s"),
        "domains.weights_calls": (get("weights", "calls"), "count"),
        "domains.weights_self_s": (get("weights", "self_s"), "s"),
        "witnesses.values_calls": (get("values", "calls"), "count"),
        "witnesses.values_points": (get("values", "points"), "count"),
        "witnesses.values_self_s": (get("values", "self_s"), "s"),
        "norms.norm_calls": (norm_calls, "count"),
        "norms.norm_self_s": (get("norm", "self_s"), "s"),
        "norms.hardy_calls": (len(hardy) // passes, "count"),
        "norms.hardy_radii": (sum(tracer.points[i] for i in hardy) // passes, "count"),
        "norms.modular_calls": (get("modular", "calls"), "count"),
        "norms.modular_points": (get("modular", "points"), "count"),
        "norms.modular_self_s": (get("modular", "self_s"), "s"),
        "norms.modular_evals_per_norm": (
            (modular_in_norm // passes) / norm_calls if norm_calls else 0.0, "evals/norm"),
        "norms.evidence_calls": (get("evidence", "calls"), "count"),
        "norms.evidence_self_s": (get("evidence", "self_s"), "s"),
        "classify.classify_calls": (get("classify", "calls"), "count"),
        "classify.classify_self_s": (get("classify", "self_s"), "s"),
        "classify.quotient_calls": (get("quotient", "calls"), "count"),
        "classify.quotient_self_s": (get("quotient", "self_s"), "s"),
        "classify.condition_calls": (get("condition", "calls"), "count"),
        "classify.condition_self_s": (get("condition", "self_s"), "s"),
    }
    from orlicz_lab import suites

    for name in suites.SUITE_NAMES:
        m[f"suites.{name}_s"] = (op_time.get(f"op.{name}", 0.0) / passes, "s")
    m["suites.checks"] = (suite_checks, "count")
    return m


# -- micro-timings ----------------------------------------------------------------


def _median_time(fn, reps):
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def micro_timings(reps: int = 15) -> dict:
    """eval_log per family and one modular, each on 65,536 points; medians
    of ``reps`` repetitions."""
    from orlicz_lab import domains, functions, norms

    n = 65536
    m = {}
    psis = {
        "power": functions.PowerFunction(2.5),
        "exp_log_squared": functions.ExpLogSquared(),
        "exp_minus_one": functions.ExpMinusOne(),
        "paper_counterexample": functions.build_counterexample(4),
    }
    for family, psi in psis.items():
        # x in [1e-2, 1e2], where norms evaluate Psi; it spans the first
        # four knots of the counterexample
        lx = np.linspace(math.log(1e-2), math.log(1e2), n)
        t = _median_time(lambda: psi.eval_log(lx), reps)
        m[f"functions.eval_log_ns_per_point.{family}"] = (t / n * 1e9, "ns")
    dom = domains.disk(512, 128)
    av = np.abs(dom.nodes()) ** 3
    w = dom.weights()
    psi = functions.PowerFunction(2)
    t = _median_time(lambda: norms.modular_from_values(psi, av, w, 0.5), reps)
    m["norms.modular_65536_ms"] = (t * 1e3, "ms")
    return m
