import json
import math
import os

import numpy as np
import pytest

from quantlab.cli import (CONFIG_SCHEMA, build_measure, compare_reports, main,
                          run_config, validate_config, ConfigError)


def run_cli(args):
    return main(args)


def read_report(out):
    with open(os.path.join(out, "report.json")) as fh:
        return json.load(fh)


def write_cfg(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


UNIFORM_COEFF = {
    "task": "coeff", "seed": 11, "p": 2, "s": 1.0,
    "measure": {"kind": "density1d", "support": [0, 1]},
    "budgets": [2, 4, 8, 16, 32, 64],
    "tail_fraction": 0.7,
}


def test_run_coeff_uniform(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", UNIFORM_COEFF)
    out = str(tmp_path / "out")
    assert run_cli(["run", "--config", cfg, "--out", out]) == 0
    rep = read_report(out)
    scaled = [row[2] for row in rep["results"]["series"]]
    assert np.allclose(scaled, 1 / (2 * math.sqrt(3)), atol=1e-5)
    with open(os.path.join(out, "series.csv")) as fh:
        header = fh.readline().strip()
    assert header == "N,e_N,scaled"


def test_schema_validation_rejects_bad_p(tmp_path):
    bad = dict(UNIFORM_COEFF, p=0.5)
    cfg = write_cfg(tmp_path, "bad.json", bad)
    assert run_cli(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_schema_validation_rejects_unknown_field(tmp_path):
    bad = dict(UNIFORM_COEFF, bogus=1)
    cfg = write_cfg(tmp_path, "bad2.json", bad)
    assert run_cli(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_seed_is_mandatory():
    cfg = {k: v for k, v in UNIFORM_COEFF.items() if k != "seed"}
    with pytest.raises(ConfigError, match="seed"):
        validate_config(cfg)


def test_numeric_failure_exit_code(tmp_path):
    cfg = dict(UNIFORM_COEFF, budgets=[2, 4])  # too few tail entries
    path = write_cfg(tmp_path, "nf.json", cfg)
    assert run_cli(["run", "--config", path, "--out", str(tmp_path / "o")]) == 3


def test_error_task_parses_infinite_order(tmp_path):
    # "inf" reaches the exact curve supremum: the far end is 0.75 from the site
    cfg = write_cfg(tmp_path, "e.json", {
        "task": "error", "seed": 1, "p": "inf",
        "measure": {"kind": "curve", "vertices": [[0, 0], [1, 0]]},
        "sites": [[0.25, 0.0]],
    })
    out = str(tmp_path / "out")
    assert run_cli(["run", "--config", cfg, "--out", out]) == 0
    err = read_report(out)["results"]["error"]
    assert err["method"] == "sup" and err["value"] == pytest.approx(0.75, abs=1e-15)


def test_byte_reproducible_results(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", {
        "task": "quantize", "seed": 4, "p": 2, "N": 3,
        "measure": {"kind": "uniform-box", "lo": [0, 0], "hi": [1, 1]},
        "solver": {"name": "lloyd", "restarts": 2, "working_sample": 3000,
                   "eval_samples": 5000},
    })
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert run_cli(["run", "--config", cfg, "--out", out1]) == 0
    assert run_cli(["run", "--config", cfg, "--out", out2]) == 0
    ra, rb = read_report(out1), read_report(out2)
    assert json.dumps(ra["results"], sort_keys=True) == \
        json.dumps(rb["results"], sort_keys=True)
    with open(os.path.join(out1, "quantizer.csv")) as f1, \
            open(os.path.join(out2, "quantizer.csv")) as f2:
        assert f1.read() == f2.read()


def test_compare_identical_runs(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", UNIFORM_COEFF)
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    run_cli(["run", "--config", cfg, "--out", out1])
    run_cli(["run", "--config", cfg, "--out", out2])
    summary = compare_reports(read_report(out1), read_report(out2))
    assert summary["n_flagged"] == 0


def test_compare_seed_change_moves_only_mc_fields(tmp_path):
    base = {
        "task": "error", "seed": 1, "p": 2,
        "measure": {"kind": "uniform-box", "lo": [0, 0], "hi": [1, 1]},
        "sites": [[0.5, 0.5]],
        "n_mc": 20000,
    }
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    run_cli(["run", "--config", write_cfg(tmp_path, "a.json", base),
             "--out", out1])
    run_cli(["run", "--config", write_cfg(tmp_path, "b.json",
                                          dict(base, seed=2)), "--out", out2])
    ra, rb = read_report(out1), read_report(out2)
    va, vb = ra["results"]["error"]["value"], rb["results"]["error"]["value"]
    assert va != vb
    se = max(ra["results"]["error"]["std_err"], rb["results"]["error"]["std_err"])
    assert abs(va ** 2 - vb ** 2) < 8 * se  # MC fields move within CI only


def test_compare_structural_diff_on_budget_change(tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    run_cli(["run", "--config", write_cfg(tmp_path, "a.json", UNIFORM_COEFF),
             "--out", out1])
    cfg2 = dict(UNIFORM_COEFF, budgets=[2, 4, 8, 16, 32])
    run_cli(["run", "--config", write_cfg(tmp_path, "b.json", cfg2),
             "--out", out2])
    summary = compare_reports(read_report(out1), read_report(out2))
    assert any(d.get("structural") for d in summary["flagged"])


def test_compare_task_mismatch(tmp_path):
    with pytest.raises(ConfigError):
        compare_reports({"task": "coeff"}, {"task": "cantor"})


def test_schema_subcommand_prints_json(capsys):
    assert run_cli(["schema"]) == 0
    out = capsys.readouterr().out
    schema = json.loads(out)
    assert schema["title"] == CONFIG_SCHEMA["title"]


def test_zador_check_task(tmp_path):
    cfg = write_cfg(tmp_path, "z.json", {
        "task": "zador-check", "seed": 7, "p": 2, "s": 1.0,
        "measure": {"kind": "density1d",
                    "density": {"form": "poly", "coeffs": [0, 2]},
                    "support": [0, 1]},
        "budgets": [16, 23, 32, 45, 64, 91, 128],
        "tolerance": 0.05,
    })
    out = str(tmp_path / "out")
    assert run_cli(["run", "--config", cfg, "--out", out]) == 0
    rep = read_report(out)
    assert rep["results"]["prediction"] == pytest.approx(0.26516504, abs=1e-6)
    assert rep["results"]["verdict"]


def test_zador_check_needs_both_tail_ends(tmp_path, monkeypatch):
    # lower end on the prediction, upper end 20% above it: no limit at 5%
    import quantlab.cli as cli
    from quantlab.asymptotics import CoefficientEstimate

    pred = 1 / (2 * math.sqrt(3))  # C_{2,1} for the uniform density on [0, 1]
    monkeypatch.setattr(cli, "estimate_coefficients", lambda series, frac:
                        CoefficientEstimate(pred, 1.2 * pred, 1.1 * pred, 4))
    cfg = write_cfg(tmp_path, "z.json", {
        "task": "zador-check", "seed": 7, "p": 2, "s": 1.0,
        "measure": {"kind": "density1d", "support": [0, 1]},
        "budgets": [2, 4, 8, 16], "tolerance": 0.05,
    })
    out = str(tmp_path / "out")
    assert run_cli(["run", "--config", cfg, "--out", out]) == 0
    res = read_report(out)["results"]
    assert res["prediction"] == pytest.approx(pred, rel=1e-12)
    assert not res["verdict"]


def test_cantor_task(tmp_path):
    cfg = write_cfg(tmp_path, "k.json", {
        "task": "cantor", "seed": 1,
        "budgets": [2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64],
    })
    out = str(tmp_path / "out")
    assert run_cli(["run", "--config", cfg, "--out", out]) == 0
    res = read_report(out)["results"]
    assert res["loglog_slope"] == pytest.approx(math.log(2) / math.log(3),
                                                rel=1e-12)
    assert res["oscillation_gap"] > 0.3
    assert res["estimates"]["lower"] == pytest.approx(0.5, abs=1e-12)


def test_distribution_task(tmp_path):
    cfg = write_cfg(tmp_path, "d.json", {
        "task": "distribution", "seed": 2, "p": 2, "N": 64,
        "measure": {"kind": "density1d",
                    "density": {"form": "poly", "coeffs": [0, 2]},
                    "support": [0, 1]},
        "regions": [{"type": "interval", "lo": 0.0, "hi": 0.5}],
    })
    out = str(tmp_path / "out")
    assert run_cli(["run", "--config", cfg, "--out", out]) == 0
    frac = read_report(out)["results"]["fractions"][0]
    assert abs(frac - 2 ** (-4 / 3)) < 0.05


def test_density_task_exact(tmp_path):
    cfg = write_cfg(tmp_path, "h.json", {
        "task": "density", "seed": 3, "s": 2.0,
        "measure": {"kind": "uniform-box", "lo": [0, 0], "hi": [1, 1]},
        "point": [0.0, 0.0], "delta": 0.2,
    })
    out = str(tmp_path / "out")
    assert run_cli(["run", "--config", cfg, "--out", out]) == 0
    res = read_report(out)["results"]
    assert res["lower"] == pytest.approx(0.25, abs=1e-9)
    assert res["method"] == "exact"


def test_bounds_task_with_sandwich(tmp_path):
    cfg = write_cfg(tmp_path, "b.json", {
        "task": "bounds", "seed": 5, "p": 2, "s": 1.0,
        "measure": {"kind": "density1d", "support": [0, 1]},
        "budgets": [2, 4, 8, 16, 32, 64, 128, 256],
        "bounds": {"theta_lower": 1.0, "theta_upper": 2.0},
        "tolerance": 1e-4,
    })
    out = str(tmp_path / "out")
    assert run_cli(["run", "--config", cfg, "--out", out]) == 0
    res = read_report(out)["results"]
    assert res["sandwich"]["passes"]
    assert res["lower"]["value"] == pytest.approx(0.28867513, abs=1e-7)


def test_build_measure_curve_requires_shape_or_vertices():
    with pytest.raises(ConfigError):
        build_measure({"kind": "curve"})


def test_compare_subcommand_exit_codes(tmp_path, capsys):
    a = write_cfg(tmp_path, "a.json", {"task": "error", "results": {"x": 1.0}})
    b = write_cfg(tmp_path, "b.json", {"task": "error", "results": {"x": 1.5}})
    assert run_cli(["compare", a, b, "--tol", "0.1"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["n_diffs"] == 1 and summary["n_flagged"] == 1
    assert summary["flagged"][0]["path"] == "$.results.x"
    other = write_cfg(tmp_path, "c.json", {"task": "cantor", "results": {}})
    assert run_cli(["compare", a, other]) == 2
    assert "task mismatch" in capsys.readouterr().err


def test_invalid_config_exits_before_the_output_directory(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "bad.json", dict(UNIFORM_COEFF, p=0.5))
    out = tmp_path / "o"
    assert run_cli(["run", "--config", cfg, "--out", str(out)]) == 2
    assert "invalid config: $['p']" in capsys.readouterr().err
    assert not out.exists()


def test_build_measure_ifs():
    m = build_measure({"kind": "ifs", "ratios": [1 / 3, 1 / 3],
                       "offsets": [[0.0], [2 / 3]], "weights": [0.5, 0.5],
                       "depth": 12})
    assert m.kind == "ifs" and m.ambient_dim == 1
    assert m.intrinsic_dim == pytest.approx(math.log(2) / math.log(3), rel=1e-12)


def test_build_measure_empirical():
    m = build_measure({"kind": "empirical", "points": [[0, 0], [1, 0], [0, 1]],
                       "weights": [1, 2, 1]})
    assert m.kind == "empirical" and m.ambient_dim == 2
    assert m.total_mass == 4.0


def test_build_measure_hausdorff_quarter_circle():
    m = build_measure({"kind": "curve", "shape": "quarter-circle", "segments": 64,
                       "hausdorff": True})
    L = m.curve.total_length
    assert L == pytest.approx(math.pi / 2, rel=1e-3)
    assert m.total_mass == pytest.approx(L, rel=1e-12)  # arc length, mass L
    prob = build_measure({"kind": "curve", "shape": "quarter-circle", "segments": 64})
    assert prob.total_mass == pytest.approx(1.0, rel=1e-12)


def test_distribution_task_farthest_point_in_boxes(tmp_path):
    cfg = write_cfg(tmp_path, "d.json", {
        "task": "distribution", "seed": 4, "p": "inf", "N": 16, "n_mc": 4000,
        "measure": {"kind": "uniform-box", "lo": [0, 0], "hi": [1, 1]},
        "solver": {"name": "farthest-point"},
        "regions": [{"type": "box", "lo": [0, 0], "hi": [0.5, 1]},
                    {"type": "box", "lo": [0.5, 0], "hi": [1, 1]},
                    {"type": "box", "lo": [2, 2], "hi": [3, 3]}],
    })
    out = str(tmp_path / "out")
    assert run_cli(["run", "--config", cfg, "--out", out]) == 0
    res = read_report(out)["results"]
    assert res["n_points"] == 16
    left, right, outside = res["fractions"]
    assert left + right == pytest.approx(1.0) and outside == 0.0
    assert 0.25 <= left <= 0.75  # greedy spreads the cover over the square
    assert res["error"]["method"] == "sup" and 0 < res["error"]["value"] < 0.5
