"""Reproducible experiment runner: JSON configs in, JSON/CSV reports out.

Subcommands: `run` executes a task pipeline from a schema-validated config,
`compare` diffs two reports field by field, `schema` prints the config
schema. All randomness flows from the mandatory config seed through named
derived seeds, so reports are reproducible byte for byte in every numeric
field (the runner's reductions are fixed-order).
Exit codes: 0 success, 2 config validation error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .asymptotics import (coeff_sequence, estimate_coefficients, make_series,
                          spatial_histogram, zador_prediction)
from .bounds import conc_lower_bound, conc_upper_bound, sandwich_check
from .error import error_eval
from .measures import (Curve, IfsSpec, curve_measure, density1d,
                       derive_seed, empirical, hausdorff_curve_measure,
                       ifs_measure, quarter_circle, sample, uniform_box)
from .solvers import (SolverConfig, auto_solver, cantor_covering_radius,
                      dp_optimal_1d, farthest_point_cover, lloyd)
from .spatial import SpatialIndex, hausdorff_density

TASKS = ("quantize", "error", "coeff", "zador-check", "density", "bounds",
         "distribution", "cantor")

_MEASURE_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["kind"],
    "properties": {
        "kind": {"enum": ["uniform-box", "density1d", "curve", "ifs", "empirical"]},
        "lo": {"type": "array", "items": {"type": "number"}},
        "hi": {"type": "array", "items": {"type": "number"}},
        "density": {
            "type": "object",
            "additionalProperties": False,
            "required": ["form"],
            "properties": {
                "form": {"enum": ["uniform", "poly"]},
                "coeffs": {"type": "array", "items": {"type": "number"}},
            },
        },
        "support": {"type": "array", "items": {"type": "number"},
                    "minItems": 2, "maxItems": 2},
        "shape": {"enum": ["quarter-circle", "segment"]},
        "segments": {"type": "integer", "minimum": 1},
        "vertices": {"type": "array",
                     "items": {"type": "array", "items": {"type": "number"}}},
        "hausdorff": {"type": "boolean"},
        "ratios": {"type": "array", "items": {"type": "number"}},
        "offsets": {"type": "array",
                    "items": {"type": "array", "items": {"type": "number"}}},
        "weights": {"type": "array", "items": {"type": "number"}},
        "depth": {"type": "integer", "minimum": 1},
        "points": {"type": "array",
                   "items": {"type": "array", "items": {"type": "number"}}},
    },
}

_REGION_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["type"],
    "properties": {
        "type": {"enum": ["interval", "box"]},
        "lo": {"type": ["number", "array"]},
        "hi": {"type": ["number", "array"]},
    },
}

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "quantlab experiment config",
    "type": "object",
    "additionalProperties": False,
    "required": ["task", "seed"],
    "properties": {
        "task": {"enum": list(TASKS)},
        "seed": {"type": "integer"},
        "p": {"anyOf": [{"type": "number", "minimum": 1}, {"const": "inf"}]},
        "s": {"type": "number", "exclusiveMinimum": 0},
        "measure": _MEASURE_SCHEMA,
        "budgets": {"type": "array", "items": {"type": "integer", "minimum": 1},
                    "minItems": 1},
        "N": {"type": "integer", "minimum": 1},
        "solver": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "name": {"enum": ["auto", "dp", "lloyd", "farthest-point"]},
                "restarts": {"type": "integer", "minimum": 1},
                "max_iters": {"type": "integer", "minimum": 1},
                "rel_tol": {"type": "number", "exclusiveMinimum": 0},
                "grid_size": {"type": "integer", "minimum": 4},
                "working_sample": {"type": "integer", "minimum": 100},
                "eval_samples": {"type": "integer", "minimum": 100},
            },
        },
        "sites": {"type": "array",
                  "items": {"type": "array", "items": {"type": "number"}}},
        "regions": {"type": "array", "items": _REGION_SCHEMA},
        "point": {"type": "array", "items": {"type": "number"}},
        "delta": {"type": "number", "exclusiveMinimum": 0},
        "bounds": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "theta_lower": {"type": "number", "exclusiveMinimum": 0},
                "theta_upper": {"type": "number", "exclusiveMinimum": 0},
                "mass": {"type": "number", "minimum": 0},
            },
        },
        "tolerance": {"type": "number", "exclusiveMinimum": 0},
        "tail_fraction": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
        "n_mc": {"type": "integer", "minimum": 100},
    },
}


class ConfigError(Exception):
    pass


def validate_config(cfg: dict) -> None:
    import jsonschema

    validator = jsonschema.Draft202012Validator(CONFIG_SCHEMA)
    errors = sorted(validator.iter_errors(cfg), key=lambda e: list(e.absolute_path))
    if errors:
        e = errors[0]
        path = "$" + "".join(f"[{p!r}]" for p in e.absolute_path)
        raise ConfigError(f"invalid config: {path}: {e.message}")


def build_measure(spec: dict):
    kind = spec["kind"]
    if kind == "uniform-box":
        return uniform_box(spec["lo"], spec["hi"])
    if kind == "density1d":
        lo, hi = spec["support"]
        dens = spec.get("density", {"form": "uniform"})
        if dens["form"] == "uniform":
            fn = lambda x: np.ones_like(np.asarray(x, dtype=float))
        else:
            coeffs = np.asarray(dens["coeffs"], dtype=float)
            fn = lambda x, _c=coeffs: np.polynomial.polynomial.polyval(
                np.asarray(x, dtype=float), _c)
        return density1d(fn, (lo, hi))
    if kind == "curve":
        if "vertices" in spec:
            c = Curve(np.asarray(spec["vertices"], dtype=float))
        elif spec.get("shape") == "quarter-circle":
            c = quarter_circle(spec.get("segments", 1024))
        else:
            raise ConfigError("curve measure needs vertices or a named shape")
        if spec.get("hausdorff", False):
            return hausdorff_curve_measure(c)
        return curve_measure(c)
    if kind == "ifs":
        ifs = IfsSpec(ratios=spec["ratios"], offsets=spec["offsets"],
                      weights=spec["weights"])
        return ifs_measure(ifs, depth=spec.get("depth", 40))
    if kind == "empirical":
        return empirical(spec["points"], spec.get("weights"))
    raise ConfigError(f"unknown measure kind {kind!r}")


def build_region(spec: dict):
    if spec["type"] == "interval":
        lo, hi = float(spec["lo"]), float(spec["hi"])
        return lambda x: lo <= float(np.ravel(x)[0]) <= hi
    lo = np.asarray(spec["lo"], dtype=float)
    hi = np.asarray(spec["hi"], dtype=float)
    return lambda x: bool(np.all(np.asarray(x, dtype=float) >= lo)
                          and np.all(np.asarray(x, dtype=float) <= hi))


def _solver_config(cfg: dict) -> SolverConfig:
    sol = cfg.get("solver", {})
    kw = {k: sol[k] for k in ("max_iters", "rel_tol", "restarts",
                              "working_sample", "eval_samples") if k in sol}
    return SolverConfig(**kw)


def _solve(cfg, m, N, p, seed):
    sol = cfg.get("solver", {})
    name = sol.get("name", "auto")
    if name == "auto":
        name = auto_solver(m, p)
    if name == "dp":
        return dp_optimal_1d(m, N, p, grid_size=sol.get("grid_size"))
    if name == "farthest-point":
        cloud = sample(m, cfg.get("n_mc", 100000), derive_seed(seed, "fpc-sample"))
        return farthest_point_cover(cloud, N, seed=derive_seed(seed, "fpc"))
    return lloyd(m, N, p, cfg=_solver_config(cfg), seed=derive_seed(seed, "lloyd"))


# ---------------------------------------------------------------------------
# task pipelines

def _task_quantize(cfg, out):
    m = build_measure(cfg["measure"])
    p = float(cfg.get("p", 2))
    q = _solve(cfg, m, cfg["N"], p, cfg["seed"])
    write_quantizer_csv(os.path.join(out, "quantizer.csv"), q.points)
    return {
        "error": q.error.to_json(),
        "n_points": int(q.points.shape[0]),
        "provenance": {"solver": q.provenance.solver,
                       "iterations": q.provenance.iterations,
                       "converged": q.provenance.converged},
    }


def _task_error(cfg, out):
    m = build_measure(cfg["measure"])
    p = float(cfg.get("p", 2))
    sites = np.asarray(cfg["sites"], dtype=float)
    est = error_eval(m, sites, p, n_mc=cfg.get("n_mc", 1 << 19),
                     seed=derive_seed(cfg["seed"], "error"))
    return {"error": est.to_json()}


def _series_pipeline(cfg):
    m = build_measure(cfg["measure"])
    p = float(cfg.get("p", 2))
    s = float(cfg.get("s", m.intrinsic_dim))
    name = cfg.get("solver", {}).get("name", "auto")
    series = coeff_sequence(m, p, s, cfg["budgets"], solver=name,
                            seed=derive_seed(cfg["seed"], "coeff"),
                            cfg=_solver_config(cfg),
                            grid_size=cfg.get("solver", {}).get("grid_size"))
    return m, p, s, series


def _task_coeff(cfg, out):
    m, p, s, series = _series_pipeline(cfg)
    write_series_csv(os.path.join(out, "series.csv"), series)
    est = estimate_coefficients(series, cfg.get("tail_fraction", 0.5))
    return {
        "series": [list(r) for r in series.rows()],
        "estimates": {"lower": est.lower, "upper": est.upper,
                      "fitted": est.fitted, "tail_size": est.tail_size},
        "monotone": series.monotone,
    }


def _task_zador_check(cfg, out):
    m, p, s, series = _series_pipeline(cfg)
    write_series_csv(os.path.join(out, "series.csv"), series)
    est = estimate_coefficients(series, cfg.get("tail_fraction", 0.5))
    pred = zador_prediction(m, 1, p)
    tol = cfg.get("tolerance", 0.05)
    verdict = all(abs(v / pred - 1.0) <= tol for v in (est.lower, est.upper))
    return {
        "prediction": pred,
        "estimates": {"lower": est.lower, "upper": est.upper, "fitted": est.fitted},
        "tolerance": tol,
        "verdict": bool(verdict),
    }


def _task_density(cfg, out):
    m = build_measure(cfg["measure"])
    s = float(cfg.get("s", m.intrinsic_dim))
    x = np.asarray(cfg["point"], dtype=float)
    delta = float(cfg.get("delta", 0.1))
    if m.ball_measure is not None:
        source = m
        method = "exact"
    else:
        cloud = sample(m, cfg.get("n_mc", 1 << 17),
                       derive_seed(cfg["seed"], "density-sample"))
        source = SpatialIndex(cloud)
        method = "empirical"
    est = hausdorff_density(source, x, s, delta)
    return {
        "lower": est.lower, "upper": est.upper, "delta": est.delta, "s": est.s,
        "outside_support": est.outside_support, "method": method,
        "n_radii": int(est.radii.size),
    }


def _task_bounds(cfg, out):
    p = float(cfg.get("p", 2))
    s = float(cfg["s"])
    b = cfg["bounds"]
    mass = float(b.get("mass", 1.0))
    lower = conc_lower_bound(float(b["theta_upper"]), s, p, mass)
    upper = conc_upper_bound(float(b["theta_lower"]), s, p, mass)
    result = {"lower": lower.to_json(), "upper": upper.to_json()}
    if "budgets" in cfg and "measure" in cfg:
        _, _, _, series = _series_pipeline(cfg)
        est = estimate_coefficients(series, cfg.get("tail_fraction", 0.5))
        result["sandwich"] = sandwich_check((est.lower, est.upper), lower, upper,
                                            slack=cfg.get("tolerance", 0.0))
    return result


def _task_distribution(cfg, out):
    m = build_measure(cfg["measure"])
    p = float(cfg.get("p", 2))
    q = _solve(cfg, m, cfg["N"], p, cfg["seed"])
    write_quantizer_csv(os.path.join(out, "quantizer.csv"), q.points)
    regions = [build_region(r) for r in cfg["regions"]]
    fracs = spatial_histogram(q.points, regions)
    return {"fractions": fracs.tolist(), "n_points": int(q.points.shape[0]),
            "error": q.error.to_json()}


def _task_cantor(cfg, out):
    budgets = cfg["budgets"]
    s = math.log(2.0) / math.log(3.0)
    errors = [cantor_covering_radius(n) for n in budgets]
    series = make_series(budgets, errors, math.inf, s)
    write_series_csv(os.path.join(out, "series.csv"), series)
    est = estimate_coefficients(series, cfg.get("tail_fraction", 0.5))
    pow2 = [n for n in budgets if n & (n - 1) == 0]
    logN = np.log(pow2)
    loge = -np.log([cantor_covering_radius(n) for n in pow2])
    slope = float(np.polyfit(loge, logN, 1)[0]) if len(pow2) >= 2 else float("nan")
    return {
        "series": [list(r) for r in series.rows()],
        "estimates": {"lower": est.lower, "upper": est.upper},
        "similarity_dim": s,
        "loglog_slope": slope,
        "oscillation_gap": est.upper - est.lower,
    }


_TASK_FN = {
    "quantize": _task_quantize,
    "error": _task_error,
    "coeff": _task_coeff,
    "zador-check": _task_zador_check,
    "density": _task_density,
    "bounds": _task_bounds,
    "distribution": _task_distribution,
    "cantor": _task_cantor,
}


# ---------------------------------------------------------------------------
# serialization

def write_series_csv(path, series):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["N", "e_N", "scaled"])
        for n, e, sc in series.rows():
            w.writerow([n, repr(float(e)), repr(float(sc))])


def write_quantizer_csv(path, points):
    points = np.atleast_2d(points)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([f"x{i}" for i in range(points.shape[1])])
        for row in points:
            w.writerow([repr(float(v)) for v in row])


def _json_default(o):
    if isinstance(o, (np.floating,)):
        return float(o)
    if isinstance(o, (np.integer,)):
        return int(o)
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"not JSON serializable: {type(o)}")


def write_report(path, report):
    with open(path, "w") as fh:
        json.dump(report, fh, sort_keys=True, indent=2, default=_json_default)
        fh.write("\n")


# ---------------------------------------------------------------------------
# subcommand drivers

def run_config(cfg: dict, out_dir: str, verbose: bool = False) -> dict:
    validate_config(cfg)
    os.makedirs(out_dir, exist_ok=True)
    t0 = time.time()
    results = _TASK_FN[cfg["task"]](cfg, out_dir)
    import scipy

    report = {
        "task": cfg["task"],
        "config": cfg,
        "results": results,
        "seed_trace": {"root": cfg["seed"]},
        "versions": {"quantlab": __version__, "numpy": np.__version__,
                     "scipy": scipy.__version__},
        "wall_time_s": time.time() - t0,
    }
    write_report(os.path.join(out_dir, "report.json"), report)
    if verbose:
        print(json.dumps(results, sort_keys=True, default=_json_default, indent=2))
    return report


_NON_NUMERIC_KEYS = {"wall_time_s"}


def _diff_reports(a, b, path="$"):
    diffs = []
    if isinstance(a, dict) and isinstance(b, dict):
        for k in sorted(set(a) | set(b)):
            if k in _NON_NUMERIC_KEYS:
                continue
            if k not in a or k not in b:
                diffs.append({"path": f"{path}.{k}", "structural": True})
                continue
            diffs.extend(_diff_reports(a[k], b[k], f"{path}.{k}"))
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            diffs.append({"path": path, "structural": True})
        else:
            for i, (x, y) in enumerate(zip(a, b)):
                diffs.extend(_diff_reports(x, y, f"{path}[{i}]"))
    elif isinstance(a, (int, float)) and isinstance(b, (int, float)) \
            and not isinstance(a, bool) and not isinstance(b, bool):
        if a != b:
            denom = max(abs(a), abs(b), 1e-300)
            diffs.append({"path": path, "a": a, "b": b,
                          "rel_diff": abs(a - b) / denom})
    elif a != b:
        diffs.append({"path": path, "structural": True})
    return diffs


def compare_reports(report_a: dict, report_b: dict, tol: float = 0.0) -> dict:
    if report_a.get("task") != report_b.get("task"):
        raise ConfigError("task mismatch between reports")
    diffs = _diff_reports(report_a, report_b)
    flagged = [d for d in diffs if d.get("structural") or d.get("rel_diff", 0) > tol]
    return {"n_diffs": len(diffs), "n_flagged": len(flagged),
            "tolerance": tol, "diffs": diffs, "flagged": flagged}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="quantlab",
                                     description="measure quantization experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default="out")
    p_run.add_argument("--verbose", action="store_true")

    p_cmp = sub.add_parser("compare", help="diff two run reports")
    p_cmp.add_argument("report_a")
    p_cmp.add_argument("report_b")
    p_cmp.add_argument("--tol", type=float, default=0.0)

    sub.add_parser("schema", help="print the config JSON schema")

    args = parser.parse_args(argv)

    if args.command == "schema":
        print(json.dumps(CONFIG_SCHEMA, indent=2, sort_keys=True))
        return 0

    if args.command == "compare":
        try:
            with open(args.report_a) as fh:
                ra = json.load(fh)
            with open(args.report_b) as fh:
                rb = json.load(fh)
            summary = compare_reports(ra, rb, tol=args.tol)
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0

    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2

    try:
        run_config(cfg, args.out, verbose=args.verbose)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"numeric failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
