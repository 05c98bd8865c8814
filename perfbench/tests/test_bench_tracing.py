"""The traced run's wrappers: restoration, unchanged outputs, absent hooks."""

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tracing
from quantlab import asymptotics, bounds, error, measures, solvers

BENCH = Path(__file__).resolve().parent.parent


def _raw_targets():
    out = {}
    for target in tracing.HOOKS:
        owner, attr = tracing._resolve(target)
        out[target] = (owner, attr, vars(owner).get(attr, KeyError))
    return out


def _measures():
    return (measures.density1d(lambda x: 2.0 * np.asarray(x), (0.0, 1.0)),
            measures.hausdorff_curve_measure(measures.quarter_circle(64)),
            measures.uniform_interval())


def _small_calls(lin, arc, uni):
    """One cheap call through every hooked boundary; returns numeric outputs."""
    cfg = solvers.SolverConfig(restarts=1, max_iters=8, working_sample=2000,
                               eval_samples=2000)
    out = [solvers.Dp1dSolver(lin, 2, n_max=6).solve(6).points,
           solvers.Dp1dSolver(lin, 3, n_max=4, grid_size=16).solve(4).points,
           [asymptotics.zador_prediction(lin, 1, 2)]]
    q = solvers.lloyd(arc, 4, 2, cfg, seed=3)
    out += [q.points, q.provenance.details["v_history"]]
    S = solvers.random_quantizer(lin, 5, [1, 2]).ravel()
    out.append([error.error_exact_1d(lin, S, 3).value])
    b = bounds.rand_quant_bound(lin, lin, 3, 1.0, 4, n_mc=3, seed=5, empirical=0.1)
    out.append([b.value, b.inputs["std_err"]])
    rows = asymptotics.quantizability_probe(uni, 2, 1.0, [0.5],
                                            budgets=(2, 3), seed=1, cfg=cfg)
    out.append([(r.mass, r.q_upper_est) for r in rows])
    return [np.asarray(a, dtype=float) for a in out]


def test_wrappers_restore_every_attribute_and_keep_outputs():
    before = _raw_targets()
    plain = _small_calls(*_measures())
    rec = tracing.Recorder()
    inst = tracing.Installation(rec)
    try:
        assert not inst.missing
        assert all(vars(o).get(a, KeyError) is not raw
                   for o, a, raw in before.values())
        inputs = _measures()
        assert rec.self_s["measures.law_build"] > 0
        rec.reset()
        traced = rec.call(tracing.ROOT_SPAN, _small_calls, *inputs)
    finally:
        inst.restore()
    after = _raw_targets()
    for target, (owner, attr, raw) in before.items():
        assert after[target][2] is raw, target
    for a, b in zip(plain, traced):
        np.testing.assert_array_equal(a, b)

    # every span is a metric, and the round's self times sum to its duration
    solve = tracing.round_metrics(rec.self_s, rec.counts)
    names = {k[:-2] for k in tracing.METRICS if k.endswith("_s")}
    assert set(rec.self_s) <= names
    assert sum(solve[k] for k in tracing.SOLVE_SELF_TIMES
               if k in solve) == pytest.approx(sum(rec.self_s.values()), rel=1e-12)
    for name in ("spatial.kdtree_builds", "solvers.lloyd_iterations",
                 "solvers.dp_layers", "error.exact1d_calls", "error.quad_calls",
                 "bounds.integrand_calls", "measures.restrict_predicate_calls"):
        assert solve[name] > 0, name
    assert solve["measures.restrict_draws"] == solve["measures.restrict_predicate_calls"]
    assert 0 < solve["measures.restrict_accept_ratio"] <= 1
    assert not inst.absent()


def test_renamed_hook_target_is_absent_not_fatal(monkeypatch):
    monkeypatch.delattr(solvers, "_seed_pp")
    hooks = dict(tracing.HOOKS, **{"quantlab.no_such_module:x": tracing.counter("x")})
    inst = tracing.Installation(tracing.Recorder(), hooks)
    try:
        assert inst.missing == {"quantlab.solvers:_seed_pp", "quantlab.no_such_module:x"}
        assert inst.absent() == {"solvers.seed_s"}
    finally:
        inst.restore()
    assert not hasattr(solvers, "_seed_pp")


def test_untraced_path_loads_no_wrapper():
    code = ("import sys; import worker, workloads\n"
            "class W:\n"
            "    run = staticmethod(lambda inp: inp)\n"
            "    arrays = staticmethod(lambda out: [out])\n"
            "worker.run_rounds(W, [1.0], 0.0, W.run)\n"
            "assert 'tracing' not in sys.modules\n")
    env_path = f"{BENCH}:{BENCH.parent / 'src'}"
    subprocess.run([sys.executable, "-c", code], check=True, cwd=BENCH,
                   env={"PYTHONPATH": env_path, "PATH": "/usr/bin:/bin"}, timeout=120)


def test_run_without_sources_exits_nonzero(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "dp1d-p2",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
