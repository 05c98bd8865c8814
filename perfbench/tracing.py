"""Per-layer tracing for the benchmark's traced run.

Wrappers are installed, from here, around the module-level names through
which one quantlab layer calls another (for example `quantlab.solvers.cKDTree`
or `Dp1dSolver.__init__`). Each wrapped call is a span; a span's self time is
its duration minus the time of the spans nested in it, so the self times of
one round add up to the round's traced duration. Counts are taken at the same
boundaries. A hook whose target no longer exists is skipped and the metrics
that depend on it are reported absent; the untraced run never imports this
module.
"""

import dataclasses
import importlib
import time
from collections import defaultdict

import numpy as np

ROOT_SPAN = "trace.unattributed"


class Recorder:
    """Span self times and counters for one phase (set-up or one round)."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.broken = set()  # metrics whose counting failed on this code
        self._stack = []

    def call(self, name, fn, *args, **kwargs):
        frame = [0.0]  # time spent in nested spans
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - t0
            self._stack.pop()
            self.self_s[name] += dur - frame[0]
            if self._stack:
                self._stack[-1][0] += dur

    def add(self, metric, fn):
        """counts[metric] += fn(); a failure marks the metric absent."""
        try:
            self.counts[metric] += int(fn())
        except Exception:  # counting must never fail the traced run
            self.broken.add(metric)

    def reset(self):
        self.self_s.clear()
        self.counts.clear()


# --- hook factories: (original, recorder) -> replacement --------------------

def span(name, count=None, after=None):
    """Time every call as span `name`; optionally count per call."""
    def make(orig, rec):
        def wrapper(*args, **kwargs):
            if count is not None:
                metric, fn = count
                rec.add(metric, lambda: fn(args, kwargs))
            out = rec.call(name, orig, *args, **kwargs)
            if after is not None:
                metric, fn = after
                rec.add(metric, lambda: fn(args, kwargs, out))
            return out
        return wrapper
    return make


def counter(metric):
    """Count calls without a span: their time stays with the caller."""
    def make(orig, rec):
        def wrapper(*args, **kwargs):
            rec.counts[metric] += 1
            return orig(*args, **kwargs)
        return wrapper
    return make


class _TracedTree:
    def __init__(self, tree, rec):
        self._tree = tree
        self._rec = rec

    def query(self, x, *args, **kwargs):
        rec = self._rec
        rec.counts["spatial.query_calls"] += 1
        rec.add("spatial.query_points", lambda: np.atleast_2d(x).shape[0])
        return rec.call("spatial.query", self._tree.query, x, *args, **kwargs)

    def __getattr__(self, attr):
        return getattr(self._tree, attr)


def kdtree(orig, rec):
    """Tree construction and queries both count as the spatial layer."""
    def build(*args, **kwargs):
        rec.counts["spatial.kdtree_builds"] += 1
        return _TracedTree(rec.call("spatial.query", orig, *args, **kwargs), rec)
    return build


_RESTRICT_COUNTS = ("measures.restrict_draws", "measures.restrict_predicate_calls",
                    "measures.restrict_accept_ratio")


def restrict(orig, rec):
    """Count base draws, predicate calls and delivered points of `restrict`.

    The calibration inside `restrict` and every later draw from the returned
    measure are spans of the same name, wherever they are called from.
    """
    def wrapper(m, predicate, *args, **kwargs):
        def pred(x):
            rec.counts["measures.restrict_predicate_calls"] += 1
            return predicate(x)

        def base_sampler(rng, n, _s=m.sampler):
            out = _s(rng, n)
            rec.add("measures.restrict_draws", lambda: len(out))
            return out

        try:
            base = dataclasses.replace(m, sampler=base_sampler)
        except TypeError:  # the measure is no longer a dataclass
            rec.broken.update(_RESTRICT_COUNTS)
            return rec.call("measures.restrict_sample", orig, m, predicate, *args, **kwargs)
        sub = rec.call("measures.restrict_sample", orig, base, pred, *args, **kwargs)

        def sampler(rng, n, _s=sub.sampler):
            out = rec.call("measures.restrict_sample", _s, rng, n)
            rec.add("measures.restrict_delivered", lambda: len(out))
            return out

        return dataclasses.replace(sub, sampler=sampler)
    return wrapper


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


# target "module:attr.attr" -> hook factory
HOOKS = {
    "quantlab.measures:Law1D.__init__": span("measures.law_build"),
    "quantlab.solvers:sample": span(
        "measures.sample", count=("measures.sample_calls", lambda a, k: 1)),
    "quantlab.asymptotics:restrict": restrict,
    "quantlab.solvers:cKDTree": kdtree,
    "quantlab.error:cKDTree": kdtree,
    "quantlab.solvers:Dp1dSolver.__init__": span(
        "solvers.dp_table",
        after=("solvers.dp_layers", lambda a, k, out: a[0].n_max - 1)),
    "quantlab.solvers:Dp1dSolver.solve": span("solvers.dp_solve"),
    "quantlab.solvers:_CellOracle.centers_costs": span(
        "solvers.oracle",
        count=("solvers.oracle_cells", lambda a, k: np.size(_arg(a, k, 1, "ls")))),
    "quantlab.solvers:lloyd": span("solvers.lloyd"),
    "quantlab.asymptotics:lloyd": span("solvers.lloyd"),
    "quantlab.solvers:_seed_pp": span("solvers.seed"),
    "quantlab.solvers:_centers_update": span(
        "solvers.center_update", count=("solvers.lloyd_iterations", lambda a, k: 1)),
    "quantlab.error:error_exact_1d": span(
        "error.exact1d", count=("error.exact1d_calls", lambda a, k: 1)),
    "quantlab.error:quad": counter("error.quad_calls"),
    "quantlab.error:error_curve": span("error.curve"),
    "quantlab.error:error_mc": span(
        "error.mc", count=("error.mc_samples", lambda a, k: _arg(a, k, 3, "n"))),
    "quantlab.bounds:rand_quant_bound": span("bounds.bound"),
    "quantlab.bounds:rand_quant_integrand": span(
        "bounds.integrand", count=("bounds.integrand_calls", lambda a, k: 1)),
    "quantlab.bounds:quad": counter("bounds.quad_calls"),
    "quantlab.asymptotics:coeff_sequence": span("asymptotics.pipeline"),
    "quantlab.asymptotics:quantizability_probe": span("asymptotics.pipeline"),
    "quantlab.asymptotics:zador_prediction": span("asymptotics.pipeline"),
}

# per-layer metric -> (unit, hooks it needs); `_s` metrics are span self times
_SPATIAL = ("quantlab.solvers:cKDTree", "quantlab.error:cKDTree")
_RESTRICT = ("quantlab.asymptotics:restrict",)
_LLOYD = ("quantlab.solvers:lloyd", "quantlab.asymptotics:lloyd")
METRICS = {
    "measures.law_build_s": ("s", ("quantlab.measures:Law1D.__init__",)),
    "measures.sample_calls": ("count", ("quantlab.solvers:sample",)),
    "measures.sample_s": ("s", ("quantlab.solvers:sample",)),
    "measures.restrict_draws": ("count", _RESTRICT),
    "measures.restrict_predicate_calls": ("count", _RESTRICT),
    "measures.restrict_sample_s": ("s", _RESTRICT),
    "measures.restrict_accept_ratio": ("ratio", _RESTRICT),
    "spatial.kdtree_builds": ("count", _SPATIAL),
    "spatial.query_calls": ("count", _SPATIAL),
    "spatial.query_points": ("count", _SPATIAL),
    "spatial.query_s": ("s", _SPATIAL),
    "solvers.dp_table_s": ("s", ("quantlab.solvers:Dp1dSolver.__init__",)),
    "solvers.dp_layers": ("count", ("quantlab.solvers:Dp1dSolver.__init__",)),
    "solvers.oracle_cells": ("count", ("quantlab.solvers:_CellOracle.centers_costs",)),
    "solvers.oracle_s": ("s", ("quantlab.solvers:_CellOracle.centers_costs",)),
    "solvers.dp_solve_s": ("s", ("quantlab.solvers:Dp1dSolver.solve",)),
    "solvers.lloyd_s": ("s", _LLOYD),
    "solvers.lloyd_iterations": ("count", ("quantlab.solvers:_centers_update",)),
    "solvers.seed_s": ("s", ("quantlab.solvers:_seed_pp",)),
    "solvers.center_update_s": ("s", ("quantlab.solvers:_centers_update",)),
    "error.exact1d_calls": ("count", ("quantlab.error:error_exact_1d",)),
    "error.quad_calls": ("count", ("quantlab.error:quad",)),
    "error.exact1d_s": ("s", ("quantlab.error:error_exact_1d",)),
    "error.curve_s": ("s", ("quantlab.error:error_curve",)),
    "error.mc_samples": ("count", ("quantlab.error:error_mc",)),
    "error.mc_s": ("s", ("quantlab.error:error_mc",)),
    "bounds.integrand_calls": ("count", ("quantlab.bounds:rand_quant_integrand",)),
    "bounds.quad_calls": ("count", ("quantlab.bounds:quad",)),
    "bounds.integrand_s": ("s", ("quantlab.bounds:rand_quant_integrand",)),
    "bounds.bound_s": ("s", ("quantlab.bounds:rand_quant_bound",)),
    "asymptotics.pipeline_s": ("s", ("quantlab.asymptotics:coeff_sequence",
                                   "quantlab.asymptotics:quantizability_probe",
                                   "quantlab.asymptotics:zador_prediction")),
    "trace.unattributed_s": ("s", ()),
    "trace.solve_traced": ("s", ()),
    "trace.solve_untraced": ("s", ()),
    "trace.overhead_s": ("s", ()),
}

# metrics measured in the set-up phase; every other `_s` metric except the
# overhead is a self time of the solve phase
SETUP_METRICS = ("measures.law_build_s",)
SOLVE_SELF_TIMES = tuple(k for k in METRICS
                         if k.endswith("_s") and k not in SETUP_METRICS
                         and k != "trace.overhead_s")


def _resolve(target):
    module, _, path = target.partition(":")
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    getattr(owner, attr)  # AttributeError if the target is gone
    return owner, attr


class Installation:
    """Installed wrappers; `restore` puts every original attribute back."""

    def __init__(self, rec, hooks=None):
        self.rec = rec
        self.missing = set()
        self._saved = []  # (owner, attr, had_own_attr, raw original)
        for target, make in (HOOKS if hooks is None else hooks).items():
            try:
                owner, attr = _resolve(target)
            except (ImportError, AttributeError):
                self.missing.add(target)
                continue
            own = vars(owner)
            had_own = attr in own
            raw = own[attr] if had_own else None
            setattr(owner, attr, make(getattr(owner, attr), rec))
            self._saved.append((owner, attr, had_own, raw))

    def restore(self):
        for owner, attr, had_own, raw in reversed(self._saved):
            if had_own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)
        self._saved = []

    def absent(self):
        """Metrics that this code cannot measure: a needed hook is missing."""
        out = {m for m, (_, needs) in METRICS.items()
               if any(t in self.missing for t in needs)}
        return out | self.rec.broken


def round_metrics(self_s, counts):
    """Per-layer values of one traced round (set-up metrics excluded)."""
    out = {}
    for name in METRICS:
        if name.startswith("trace.") and name != "trace.unattributed_s":
            continue
        if name in SETUP_METRICS:
            continue
        if name.endswith("_s"):
            out[name] = self_s.get(name[:-2], 0.0)
        elif name == "measures.restrict_accept_ratio":
            drawn = counts.get("measures.restrict_draws", 0)
            # no draws through restrict: nothing was wasted
            out[name] = counts.get("measures.restrict_delivered", 0) / drawn if drawn else 1.0
        else:
            out[name] = counts.get(name, 0)
    return out
