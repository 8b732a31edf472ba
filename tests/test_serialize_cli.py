import json
import math
import subprocess
import sys

import numpy as np
import pytest

from convendo import (INF, GlEndo, LineMeasure, OrbitMeasure, PhiEndo,
                      PwlFunction, RadialEndo, ScaleComposeMap, pwl_abs)
from convendo.cli import main
from convendo.kernel1d import kernel_extract
from convendo.rand import random_convex_pwl, random_finite_expr, rng_from_seed
from convendo.serialize import (endo_from_json, endo_to_json, fn_from_json,
                                fn_to_json, line_measure_from_json,
                                line_measure_to_json, orbit_measure_from_json,
                                orbit_measure_to_json)


def test_pwl_json_round_trip_with_inf_slopes():
    f = PwlFunction([-1.0, 1.0], [0.0, 0.0], -INF, INF)
    d = fn_to_json(f)
    assert d["slope_left"] == "-inf" and d["slope_right"] == "inf"
    g = fn_from_json(json.loads(json.dumps(d)))
    assert g.breakpoints == f.breakpoints
    assert g.slope_left == -INF and g.slope_right == INF


def test_expr_json_round_trip_random():
    rng = rng_from_seed(5)
    for _ in range(25):
        f = random_finite_expr(rng, 2)
        g = fn_from_json(json.loads(json.dumps(fn_to_json(f))))
        for _ in range(5):
            x = rng.uniform(-2, 2, size=2)
            from convendo import expr_eval
            assert expr_eval(g, x) == pytest.approx(expr_eval(f, x), abs=1e-12)


def test_pwl_json_round_trip_random():
    rng = rng_from_seed(6)
    for _ in range(25):
        f = random_convex_pwl(rng)
        g = fn_from_json(json.loads(json.dumps(fn_to_json(f))))
        for x in rng.uniform(-4, 4, size=8):
            a, b = f(x), g(x)
            assert (a == b == INF) or a == pytest.approx(b, abs=1e-12)


def test_measure_json_round_trips():
    m = LineMeasure([(0.5, 1.0), (-2.0, 0.25)])
    m2 = line_measure_from_json(line_measure_to_json(m))
    assert m2.atoms == m.atoms
    mu = OrbitMeasure(3, [(1.0, math.pi / 2, 2.0)])
    mu2 = orbit_measure_from_json(orbit_measure_to_json(mu))
    assert mu2.n == 3 and mu2.atoms == mu.atoms


def test_endo_json_round_trips():
    endos = [GlEndo(1.5, LineMeasure([(1.0, 1.0), (-1.0, 2.0)]), 3),
             ScaleComposeMap(2.0, -1.0, 2),
             RadialEndo(OrbitMeasure(3, [(1.0, 0.1, 1.0)]), M=16),
             PhiEndo(PwlFunction([0.0], [1.0], -1.0, 1.0))]
    for e in endos:
        d = json.loads(json.dumps(endo_to_json(e)))
        e2 = endo_from_json(d)
        assert type(e2) is type(e)
        assert endo_to_json(e2) == endo_to_json(e)


def test_kernel_descriptor_builds_operator(tmp_path):
    em = GlEndo(0.0, LineMeasure([(1.0, 1.0)]), 1)
    xs = np.linspace(-1.0, 1.0, 41)
    ys = np.linspace(-4.0, 4.0, 161)
    k = kernel_extract(em, xs, ys)
    gxs, gys, vals = k.grid
    desc = {"kind": "kernel", "A": [-1.0, 1.0], "R": 2.0,
            "psi": {"kind": "grid", "xs": gxs.tolist(), "ys": gys.tolist(),
                    "values": vals.tolist()}}
    d = endo_from_json(desc)
    f = pwl_abs()
    from convendo import kernel_endo_eval
    # grid kernel with nodes on the kink positions reproduces f(x) - f(0)
    for x in (-1.0, -0.5, 0.0, 0.5, 1.0):
        assert kernel_endo_eval(d, f, x) == pytest.approx(
            f(x) - f(0.0), abs=1e-9)


def _write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def test_cli_eval_gl_quad(tmp_path):
    endo = _write(tmp_path, "e.json",
                  {"kind": "gl", "c": 0.0, "nu": {"atoms": [{"s": 1.0, "w": 1.0}]},
                   "n": 1})
    fn = _write(tmp_path, "f.json", {"kind": "quad", "c": 1.0})
    out = tmp_path / "out.csv"
    rc = main(["eval", "--endo", endo, "--fn", fn, "--grid=-2:2:1",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "x1,value"
    assert lines[1] == "-2.0,4.0"
    assert lines[3] == "0.0,0.0"


def test_cli_eval_inf_rows(tmp_path):
    endo = _write(tmp_path, "e.json",
                  {"kind": "scale_compose", "lambda": 2.0, "mu": -1.0, "n": 1})
    fn = _write(tmp_path, "f.json",
                {"kind": "pwl", "breakpoints": [0.0, 1.0], "values": [0.0, 0.0],
                 "slope_left": "-inf", "slope_right": "inf"})
    out = tmp_path / "out.csv"
    rc = main(["eval", "--endo", endo, "--fn", fn, "--grid=-1:1:0.5",
               "--out", str(out)])
    assert rc == 0
    body = out.read_text()
    assert "inf" in body
    assert body.strip().splitlines()[1] == "-1.0,0.0"


def test_cli_eval_radial_points_file(tmp_path):
    endo = _write(tmp_path, "e.json",
                  {"kind": "radial",
                   "mu": {"n": 3, "atoms": [{"t": 1.0, "theta": 0.0, "w": 1.0}]},
                   "M": 8, "rotation_rule": "householder"})
    fn = _write(tmp_path, "f.json", {"kind": "norm", "c": 1.0})
    pts = _write(tmp_path, "p.json", [[3.0, 0.0, 4.0], [0.0, 0.0, 0.0]])
    out = tmp_path / "out.csv"
    rc = main(["eval", "--endo", endo, "--fn", fn, "--points", pts,
               "--out", str(out)])
    assert rc == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "x1,x2,x3,value"
    assert float(rows[1].split(",")[-1]) == pytest.approx(5.0)


def test_cli_eval_phi_points_at_profile_edge(tmp_path):
    endo = _write(tmp_path, "e.json",
                  {"kind": "phi_example",
                   "phi": {"kind": "pwl", "breakpoints": [-1.0, 0.0, 1.0],
                           "values": [2.0, 1.0, 2.0],
                           "slope_left": "-inf", "slope_right": "inf"}})
    fn = _write(tmp_path, "f.json", {"kind": "pwl", "breakpoints": [0.0], "values": [0.0],
                                     "slope_left": -1.0, "slope_right": 1.0})
    pts = _write(tmp_path, "p.json", [1.0, 1.0 + 1e-12, 1.0 + 5e-11, 1.0 + 1e-10,
                                      -1.0 - 1e-10, 1.5])
    out = tmp_path / "out.csv"
    assert main(["eval", "--endo", endo, "--fn", fn, "--points", pts,
                 "--out", str(out)]) == 0
    values = [row.split(",")[1] for row in out.read_text().splitlines()[1:]]
    assert "nan" not in values
    assert len(set(values[:5])) == 1 and values[5] == "inf"


def test_cli_eval_deterministic_bytes(tmp_path):
    endo = _write(tmp_path, "e.json",
                  {"kind": "gl", "c": 0.5,
                   "nu": {"atoms": [{"s": 1.0, "w": 1.0}, {"s": -0.7, "w": 0.3}]},
                   "n": 1})
    fn = _write(tmp_path, "f.json", {"kind": "norm", "c": 1.3})
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["eval", "--endo", endo, "--fn", fn, "--grid=-1:1:0.01",
                 "--out", str(out1)]) == 0
    assert main(["eval", "--endo", endo, "--fn", fn, "--grid=-1:1:0.01",
                 "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("grid", ["nan:1:0.1", "0:inf:1", "-inf:0:1", "0:1:inf",
                                  "0:1:1e-320", "0:1e12:1", "0:1e6:1"])
def test_cli_grid_rejects_non_finite_and_oversized(tmp_path, capsys, grid):
    # 0:1e6:1 is 10^18 points in 3D: refused from its count, never allocated
    endo = _write(tmp_path, "e.json", {"kind": "scale_compose", "lambda": 1.0,
                                       "mu": 1.0, "n": 3})
    fn = _write(tmp_path, "f.json", {"kind": "quad", "c": 1.0})
    rc = main(["eval", "--endo", endo, "--fn", fn, f"--grid={grid}",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("fn", [{"kind": "quad", "c": 1.0},
                                {"kind": "pwl", "breakpoints": [0.0], "values": [0.0],
                                 "slope_left": -1.0, "slope_right": 1.0}])
@pytest.mark.parametrize("points", [[[0.5], [float("nan")]], [[float("inf")]],
                                    [[0.5], [1.0, 2.0]], [[[0.5]]]])
def test_cli_points_rejects_non_finite_and_ragged(tmp_path, fn, points):
    endo = _write(tmp_path, "e.json",
                  {"kind": "gl", "c": 0.5, "nu": {"atoms": [{"s": 1.0, "w": 1.0}]},
                   "n": 1})
    out = tmp_path / "x.csv"
    rc = main(["eval", "--endo", endo, "--fn", _write(tmp_path, "f.json", fn),
               "--points", _write(tmp_path, "p.json", points), "--out", str(out)])
    assert rc == 2
    assert not out.exists()


def test_cli_schema_error_exit_2(tmp_path):
    endo = _write(tmp_path, "e.json", {"kind": "nonsense"})
    fn = _write(tmp_path, "f.json", {"kind": "quad", "c": 1.0})
    rc = main(["eval", "--endo", endo, "--fn", fn, "--grid=0:1:1",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 2


def test_cli_eval_error_exit_3(tmp_path):
    # operator requires the input to be finite at the origin
    endo = _write(tmp_path, "e.json",
                  {"kind": "gl", "c": 0.0, "nu": {"atoms": [{"s": 1.0, "w": 1.0}]},
                   "n": 1})
    fn = _write(tmp_path, "f.json",
                {"kind": "pwl", "breakpoints": [1.0, 2.0], "values": [0.0, 0.0],
                 "slope_left": "-inf", "slope_right": "inf"})
    rc = main(["eval", "--endo", endo, "--fn", fn, "--grid=0:1:0.5",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 3


def test_cli_check_unknown_suite():
    assert main(["check", "--suite", "nope"]) == 2


def test_cli_check_core_small(capsys):
    assert main(["check", "--suite", "core", "--seed", "42", "--trials", "40"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_cli_kernel_extract_and_validity(tmp_path):
    endo = _write(tmp_path, "e.json",
                  {"kind": "gl", "c": 0.0, "nu": {"atoms": [{"s": 1.0, "w": 1.0}]},
                   "n": 1})
    out = tmp_path / "k.csv"
    rc = main(["kernel", "extract", "--endo", endo, "--grid-x=-1:1:0.5",
               "--grid-y=-2:2:1", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("x\\y,")
    # row for x = 0.5: psi(0.5, y) = (y - 0.5)_+ - y_+
    row = dict(zip([c for c in lines[0].split(",")[1:]],
                   lines[4].split(",")[1:]))
    assert float(lines[4].split(",")[0]) == 0.5
    assert float(row["2.0"]) == pytest.approx(-0.5)

    # extraction grid outside a grid-kernel descriptor box is a config error
    em = GlEndo(0.0, LineMeasure([(1.0, 1.0)]), 1)
    k = kernel_extract(em, np.linspace(-1, 1, 21), np.linspace(-3, 3, 61))
    gxs, gys, vals = k.grid
    kdesc = _write(tmp_path, "k.json",
                   {"kind": "kernel", "A": [-1.0, 1.0], "R": 2.0,
                    "psi": {"kind": "grid", "xs": gxs.tolist(),
                            "ys": gys.tolist(), "values": vals.tolist()}})
    rc = main(["kernel", "extract", "--endo", kdesc, "--grid-x=-1:1:0.5",
               "--grid-y=-10:10:1", "--out", str(tmp_path / "k2.csv")])
    assert rc == 2


def test_cli_kernel_roundtrip_phi(tmp_path, capsys):
    endo = _write(tmp_path, "e.json",
                  {"kind": "phi_example",
                   "phi": {"kind": "pwl", "breakpoints": [0.0], "values": [1.0],
                           "slope_left": -1.0, "slope_right": 1.0}})
    rc = main(["kernel", "roundtrip", "--endo", endo, "--R", "3",
               "--trials", "60", "--seed", "4"])
    assert rc == 0
    out = capsys.readouterr().out
    dev = float(out.strip().rsplit("=", 1)[1])
    assert dev <= 1e-5


def test_cli_kernel_takes_every_one_variable_operator(tmp_path, capsys):
    # scale_compose with n = 1 has the kernel psi(x, y) = 2 (y + 1.5 x)_+
    endo = _write(tmp_path, "e.json", {"kind": "scale_compose", "lambda": 2.0,
                                       "mu": -1.5, "n": 1})
    out = tmp_path / "k.csv"
    assert main(["kernel", "extract", "--endo", endo, "--grid-x=-1:1:0.5",
                 "--grid-y=-3:3:0.5", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    row = dict(zip(lines[0].split(",")[1:], lines[4].split(",")[1:]))
    assert float(lines[4].split(",")[0]) == 0.5
    assert float(row["1.0"]) == pytest.approx(2.0 * 1.75)
    assert main(["kernel", "roundtrip", "--endo", endo, "--R", "4",
                 "--trials", "30", "--tol", "1e-9"]) == 0
    assert "max_deviation" in capsys.readouterr().out

    gl2 = _write(tmp_path, "gl2.json", {"kind": "gl", "c": 0.0, "n": 2,
                                        "nu": {"atoms": [{"s": 1.0, "w": 1.0}]}})
    assert main(["kernel", "roundtrip", "--endo", gl2]) == 2


def test_cli_entrypoint_subprocess(tmp_path):
    endo = tmp_path / "e.json"
    endo.write_text(json.dumps({"kind": "gl", "c": 0.0,
                                "nu": {"atoms": [{"s": 1.0, "w": 1.0}]},
                                "n": 1}))
    fn = tmp_path / "f.json"
    fn.write_text(json.dumps({"kind": "quad", "c": 1.0}))
    out = tmp_path / "o.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "convendo.cli", "eval", "--endo", str(endo),
         "--fn", str(fn), "--grid=0:2:1", "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert out.read_text().splitlines()[0] == "x1,value"


def test_counterexample_dumps_reparse():
    from convendo.suites import run_suite
    rep = run_suite("core", seed=3, trials=30)
    # force-style check: every function descriptor inside any counterexample
    # (or, when all pass, a synthesized one) re-parses
    payloads = rep.counterexamples()
    if not payloads:
        payloads = [{"f": fn_to_json(pwl_abs())}]
    for p in payloads:
        for key in ("f", "g"):
            if key in p:
                fn_from_json(json.loads(json.dumps(p[key])))


QUAD = {"kind": "quad", "c": 1.0}
GL1 = {"kind": "gl", "c": 0.5, "nu": {"atoms": [{"s": 1.0, "w": 1.0}]}, "n": 1}


@pytest.mark.parametrize("endo, fn", [
    ({**GL1, "c": "abc"}, QUAD),
    ({"kind": "ma_example", "g": {"kind": "pwl", "breakpoints": [0.0], "values": [0.5],
                                  "slope_left": -1.0, "slope_right": 2.0}, "zeta": [1]}, QUAD),
    ({**GL1, "nu": {"atoms": [{"s": 1.0}]}}, QUAD),
    (GL1, {"kind": "affine", "a": [1.0]}),
    (GL1, {"kind": "sum", "terms": 3}),
    ({"kind": "scale_compose", "lambda": 1.0, "mu": 1.0, "n": 1}, {"kind": "quad", "c": "inf"}),
], ids=["gl_c_not_a_number", "ma_zeta_not_an_object", "atom_without_weight",
        "affine_without_offset", "sum_terms_not_a_list", "quad_infinite"])
def test_cli_malformed_descriptor_field_exit_2(tmp_path, capsys, endo, fn):
    out = tmp_path / "x.csv"
    rc = main(["eval", "--endo", _write(tmp_path, "e.json", endo),
               "--fn", _write(tmp_path, "f.json", fn),
               "--points", _write(tmp_path, "p.json", [[0.0], [1.0]]), "--out", str(out)])
    assert rc == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_cli_type_error_inside_evaluation_propagates(tmp_path, monkeypatch):
    # a programming fault is not a config error
    def broken(self, f, X):
        raise TypeError("fault inside an evaluator")

    monkeypatch.setattr(GlEndo, "eval_many", broken)
    with pytest.raises(TypeError, match="fault inside"):
        main(["eval", "--endo", _write(tmp_path, "e.json", GL1),
              "--fn", _write(tmp_path, "f.json", QUAD), "--grid=0:1:0.5",
              "--out", str(tmp_path / "x.csv")])
