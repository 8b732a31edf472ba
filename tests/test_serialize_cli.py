import json
import math
import subprocess
import sys

import numpy as np
import pytest

from convendo import (INF, BadShape, GlEndo, LineMeasure, MaEndo, OrbitMeasure, PhiEndo,
                      PwlFunction, RadialEndo, RadialPwl, ScaleComposeMap, hat_weight,
                      kernel_decompose, pwl_abs, serialize)
from convendo.cli import main
from convendo.expr import BLOCK
from convendo.kernel1d import kernel_extract
from convendo.rand import random_convex_pwl, random_finite_expr, rng_from_seed
from convendo.serialize import (endo_from_json, endo_to_json, fn_from_json,
                                fn_to_json, line_measure_from_json,
                                line_measure_to_json, orbit_measure_from_json,
                                orbit_measure_to_json, write_eval_csv)


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


PWL = {"kind": "pwl", "breakpoints": [-1.0, 0.0, 1.0], "values": [1.0, 0.0, 1.0],
       "slope_left": -2.0, "slope_right": 2.0}
INTERVAL = {"kind": "pwl", "breakpoints": [-1.5, 1.5], "values": [0.0, 0.0],
            "slope_left": "-inf", "slope_right": "inf"}
QUAD = {"kind": "quad", "c": 2.0}
NORM = {"kind": "norm", "c": 1.5}


FUNCTION_EXAMPLES = [
    PWL, INTERVAL,
    {"kind": "affine", "a": [1.0, -2.0], "b": 0.5}, QUAD, NORM,
    {"kind": "ball_indicator", "r": 2.0},
    {"kind": "pwl1d", "direction": [0.6, 0.8], "pwl": PWL},
    {"kind": "sum", "terms": [QUAD, NORM]},
    {"kind": "max", "terms": [NORM, {"kind": "affine", "a": [0.0, 1.0], "b": -1.0}]},
    {"kind": "scale", "lambda": 0.5, "term": NORM},
    {"kind": "precompose", "matrix": [[2.0, 0.0], [1.0, 1.0]], "term": QUAD},
]
OPERATOR_EXAMPLES = [
    {"kind": "gl", "c": 1.5, "nu": {"atoms": [{"s": -1.0, "w": 2.0}, {"s": 1.0, "w": 1.0}]},
     "n": 3},
    {"kind": "scale_compose", "lambda": 2.0, "mu": -1.0, "n": 2},
    {"kind": "radial", "mu": {"n": 3, "atoms": [{"t": 1.0, "theta": 0.1, "w": 1.0}]}, "M": 16},
    {"kind": "phi_example", "phi": INTERVAL},
    {"kind": "ma_example", "g": PWL, "zeta": {"kind": "hat", "radius": 1.0}},
]


def test_the_round_trip_examples_cover_every_kind_of_the_tables():
    # a kind cannot enter a table without an example below
    assert {d["kind"] for d in FUNCTION_EXAMPLES} == set(serialize._FUNCTIONS)
    assert {d["kind"] for d in OPERATOR_EXAMPLES} == set(serialize._OPERATORS)


@pytest.mark.parametrize("d", FUNCTION_EXAMPLES, ids=lambda d: d["kind"])
def test_every_function_kind_round_trips(d):
    assert fn_to_json(fn_from_json(d)) == d


@pytest.mark.parametrize("d", OPERATOR_EXAMPLES, ids=lambda d: d["kind"])
def test_every_operator_kind_round_trips(d):
    assert endo_to_json(endo_from_json(d)) == d


def test_a_directly_built_hat_weight_operator_serializes():
    g = fn_from_json(PWL)
    d = endo_to_json(MaEndo(g, hat_weight(1.0), 1.0))
    assert d == {"kind": "ma_example", "g": PWL, "zeta": {"kind": "hat", "radius": 1.0}}
    assert endo_to_json(endo_from_json(json.loads(json.dumps(d)))) == d
    with pytest.raises(BadShape, match="^only hat-weight ma_example operators serialize$"):
        endo_to_json(MaEndo(g, lambda u: max(0.0, 1.0 - abs(u)), 1.0))
    # a support radius beyond the hat changes nothing; one inside it cuts the weight
    assert endo_to_json(MaEndo(g, hat_weight(1.0), 2.0)) == d
    with pytest.raises(BadShape, match="only if its support covers the hat"):
        endo_to_json(MaEndo(g, hat_weight(1.0), 0.5))


def test_the_refusal_messages_of_the_tables():
    with pytest.raises(BadShape, match="^cannot serialize RadialPwl$"):
        fn_to_json(RadialPwl(pwl_abs()))
    k = kernel_extract(ScaleComposeMap(1.0, 1.0, 1), [-1.0, 0.0, 1.0], np.arange(-3.0, 4.0))
    with pytest.raises(BadShape, match="^cannot serialize operator KernelDecomposition$"):
        endo_to_json(kernel_decompose(k, (-1.0, 1.0), 2.0))
    with pytest.raises(BadShape, match="^unknown function kind 'cube'$"):
        fn_from_json({"kind": "cube"})
    with pytest.raises(BadShape, match="^unknown operator kind 'cube'$"):
        endo_from_json({"kind": "cube"})


def test_operator_descriptors_refuse_an_unknown_rule():
    radial = {"kind": "radial", "mu": {"n": 3, "atoms": []}, "rotation_rule": "euler"}
    with pytest.raises(BadShape, match="^unknown rotation rule 'euler'$"):
        endo_from_json(radial)
    assert endo_from_json({**radial, "rotation_rule": "householder"}).M == 64
    with pytest.raises(BadShape, match=r"^zeta supports only \{'kind': 'hat', 'radius': r\}$"):
        endo_from_json({"kind": "ma_example", "g": PWL, "zeta": {"kind": "gauss", "radius": 1.0}})


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
                                    [[0.5], [1.0, 2.0]], [[[0.5]]], [[10 ** 400]]])
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


@pytest.mark.parametrize("gx, gy", [("-1:1:2e-6", "-1:1:0.5"), ("-1:1:0.001", "-1100:1100:1"),
                                    ("0:1:1e-6", "0:1:1e-6")])
def test_cli_kernel_extract_refuses_oversized_table(tmp_path, capsys, monkeypatch, gx, gy):
    # each axis fits MAX_GRID_POINTS, their product does not: refused before
    # the table is allocated or the operator is called
    def never(endo, xs, ys):
        raise AssertionError("kernel_extract called")

    monkeypatch.setattr("convendo.cli.kernel_extract", never)
    out = tmp_path / "k.csv"
    rc = main(["kernel", "extract", "--endo", _write(tmp_path, "e.json", GL1),
               f"--grid-x={gx}", f"--grid-y={gy}", "--out", str(out)])
    assert rc == 2
    assert "kernel table" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--grid-x=", "--grid-y="])
def test_cli_kernel_extract_refuses_an_empty_grid(tmp_path, capsys, flag):
    # an empty grid is refused, not read as absent
    out = tmp_path / "k.csv"
    rc = main(["kernel", "extract", "--endo", _write(tmp_path, "e.json", GL1),
               flag, "--out", str(out)])
    assert rc == 2
    assert "--grid expects lo:hi:step" in capsys.readouterr().err
    assert not out.exists()


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


EXTRACT = ["kernel", "extract", "--grid-x=-1:1:0.5", "--grid-y=-2:2:1"]
EVAL = ["eval", "--fn", "f.json"]


@pytest.mark.parametrize("argv", [
    EXTRACT + ["--A", "0:1"], EXTRACT + ["--R", "7"], EXTRACT + ["--seed", "3"],
    EXTRACT + ["--trials", "5"], EXTRACT + ["--tol", "0"],
    ["kernel", "roundtrip", "--grid-x=-1:1:0.5"], ["kernel", "roundtrip", "--grid-y=5:6:1"],
    EVAL + ["--grid=0:1:0.25", "--points", "p.json"], EVAL,
], ids=["extract-A", "extract-R", "extract-seed", "extract-trials", "extract-tol",
        "roundtrip-grid-x", "roundtrip-grid-y", "eval-points-and-grid", "eval-no-points"])
def test_cli_refuses_a_flag_the_command_does_not_read(tmp_path, capsys, monkeypatch, argv):
    # each command parses only the flags it reads, so a foreign flag or a
    # second point source exits 2 with usage instead of being dropped
    monkeypatch.chdir(tmp_path)
    _write(tmp_path, "f.json", {"kind": "quad", "c": 1.0})
    _write(tmp_path, "p.json", [[0.5]])
    out = tmp_path / "out"
    assert main(argv + ["--endo", _write(tmp_path, "e.json", GL1), "--out", str(out)]) == 2
    assert "usage:" in capsys.readouterr().err
    assert not out.exists()


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


def test_counterexample_dumps_reparse(monkeypatch):
    # wrong predicates and a shifted pwl_add make properties of three suites
    # fail; every function and operator their counterexamples name re-parses
    from convendo import suites
    for name in ("gl_is_monotone", "gl_is_dually_translation_invariant",
                 "radial_is_dually_translation_invariant"):
        monkeypatch.setattr(suites, name, lambda e, right=getattr(suites, name): not right(e))
    add = suites.pwl_add

    def shifted_add(f, g):
        s = add(f, g)
        return PwlFunction(s.breakpoints, [v + 1e-9 for v in s.values],
                           s.slope_left, s.slope_right, slopes=s.slopes)
    monkeypatch.setattr(suites, "pwl_add", shifted_add)
    dumps = []
    for suite, trials in (("core", 30), ("gl", 8), ("radial", 8)):
        rep = suites.run_suite(suite, seed=3, trials=trials)
        dumps += json.loads(json.dumps(rep.counterexamples(), default=str))
    assert {d["property"] for d in dumps} == {
        "pwl_add_exact", "gl_dual_invariance_iff_kills_linear", "gl_monotone_iff_no_witness",
        "radial_dual_invariance_iff_kills_linear"}
    for d in dumps:
        for key in ("f", "g"):
            if key in d:
                fn_from_json(d[key])
        if d["property"] != "pwl_add_exact":
            assert endo_to_json(endo_from_json(d["endo"])) == d["endo"]


QUAD = {"kind": "quad", "c": 1.0}
GL1 = {"kind": "gl", "c": 0.5, "nu": {"atoms": [{"s": 1.0, "w": 1.0}]}, "n": 1}
SC1 = {"kind": "scale_compose", "lambda": 1.0, "mu": 1.0, "n": 1}
NAN_GRID_KERNEL = {"kind": "kernel", "A": [-1.0, 1.0], "R": 1.0,
                   "psi": {"kind": "grid", "xs": [-1.0, 0.0, 1.0], "ys": [-2.0, 0.0, 2.0],
                           "values": [[0.0] * 3, ["nan", 0.0, 0.0], [0.0] * 3]}}
ZERO_GRID_KERNEL = {**NAN_GRID_KERNEL, "psi": {**NAN_GRID_KERNEL["psi"], "values": [[0.0] * 3] * 3}}


@pytest.mark.parametrize("endo, fn", [
    ({**GL1, "c": "abc"}, QUAD),
    ({"kind": "ma_example", "g": {"kind": "pwl", "breakpoints": [0.0], "values": [0.5],
                                  "slope_left": -1.0, "slope_right": 2.0}, "zeta": [1]}, QUAD),
    ({**GL1, "nu": {"atoms": [{"s": 1.0}]}}, QUAD),
    (GL1, {"kind": "affine", "a": [1.0]}),
    (GL1, {"kind": "sum", "terms": 3}),
    (SC1, {"kind": "quad", "c": "inf"}),
    ({**GL1, "c": "nan"}, QUAD),
    ({**GL1, "c": "-inf"}, QUAD),
    ({**SC1, "lambda": "inf"}, QUAD),
    ({**SC1, "mu": "nan"}, QUAD),
    ({**GL1, "nu": {"atoms": [{"s": 1.0, "w": "nan"}]}}, QUAD),
    ({**GL1, "nu": {"atoms": [{"s": "inf", "w": 1.0}]}}, QUAD),
    (NAN_GRID_KERNEL, fn_to_json(pwl_abs())),
    ({**ZERO_GRID_KERNEL, "A": [None, 1.0]}, fn_to_json(pwl_abs())),
    ({**ZERO_GRID_KERNEL, "A": ["nan", 1.0]}, fn_to_json(pwl_abs())),
    ({**ZERO_GRID_KERNEL, "R": "nan"}, fn_to_json(pwl_abs())),
    (SC1, {"kind": "quad", "c": 10 ** 400}),
    (SC1, {"kind": "norm", "c": -1.0}),
    (SC1, {"kind": "quad", "c": -1.0}),
    (SC1, {"kind": "scale", "lambda": -0.5, "term": QUAD}),
    (SC1, {"kind": "pwl1d", "direction": [0.0], "pwl": fn_to_json(pwl_abs())}),
], ids=["gl_c_not_a_number", "ma_zeta_not_an_object", "atom_without_weight",
        "affine_without_offset", "sum_terms_not_a_list", "quad_infinite",
        "gl_c_nan", "gl_c_minus_inf", "scale_compose_lambda_inf", "scale_compose_mu_nan",
        "atom_weight_nan", "atom_at_inf", "kernel_grid_value_nan", "kernel_A_null",
        "kernel_A_nan", "kernel_R_nan", "quad_c_beyond_float", "norm_c_negative",
        "quad_c_negative", "scale_lambda_negative", "pwl1d_direction_zero"])
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


# -- the CSV writer against one repr per cell -----------------------------------

CELLS = [-0.0, 0.0, 5e-324, 1e16, 1e-5, INF, 0.1, -2.5, 1.0 / 3.0]


@pytest.mark.parametrize("rows", [0, 1, BLOCK, BLOCK + 3])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_write_eval_csv_matches_a_naive_writer(tmp_path, n, rows):
    # every block repeats the same few coordinates; values come as a list
    points = np.array([[CELLS[(3 * i + 2 * j) % len(CELLS)] for j in range(n)]
                       for i in range(rows)]).reshape(rows, n)
    values = [CELLS[(5 * i + 1) % len(CELLS)] * (1 + i % 2) for i in range(rows)]
    out = tmp_path / "x.csv"
    write_eval_csv(out, points, values, n)
    lines = [",".join([f"x{i + 1}" for i in range(n)] + ["value"])]
    lines += [",".join(repr(float(v)) for v in [*p, y]) for p, y in zip(points, values)]
    assert out.read_bytes() == ("\n".join(lines) + "\n").encode()


def test_cli_eval_zero_coefficient_at_an_overflowing_atom_row(tmp_path):
    # 2 x overflows to inf in the atom row and met the zero coefficient as nan
    endo = _write(tmp_path, "e.json", {"kind": "gl", "c": 0.0,
                                       "nu": {"atoms": [{"s": 2.0, "w": 1.0}]}, "n": 2})
    fn = _write(tmp_path, "f.json", {"kind": "affine", "a": [0.0, 1.0], "b": 0.0})
    pts = _write(tmp_path, "p.json", [[1e308, 0.0]])
    out = tmp_path / "out.csv"
    assert main(["eval", "--endo", endo, "--fn", fn, "--points", pts, "--out", str(out)]) == 0
    assert out.read_text().splitlines()[1] == "1e+308,0.0,0.0"


def test_cli_eval_where_a_square_overflows_leaves_stderr_empty(tmp_path):
    # ||x||^2 overflows inside the ball test, and numpy's overflow warning
    # reached stderr with the library's source line
    endo = _write(tmp_path, "e.json", {"kind": "scale_compose", "lambda": 1.0, "mu": 1.0, "n": 2})
    fn = _write(tmp_path, "f.json", {"kind": "ball_indicator", "r": 1e200})
    pts = _write(tmp_path, "p.json", [[2e200, 0.0]])
    out = tmp_path / "out.csv"
    proc = subprocess.run([sys.executable, "-m", "convendo.cli", "eval", "--endo", endo,
                           "--fn", fn, "--points", pts, "--out", str(out)],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert out.read_text().splitlines()[1] == "2e+200,0.0,inf"


def test_cli_eval_refuses_a_nan_value_at_a_finite_point(tmp_path, capsys):
    # 2 x overflows to [inf, -inf], where the affine tree reads inf - inf
    endo = _write(tmp_path, "e.json", {"kind": "gl", "c": 0.0,
                                       "nu": {"atoms": [{"s": 2.0, "w": 1.0}]}, "n": 2})
    fn = _write(tmp_path, "f.json", {"kind": "affine", "a": [1.0, 1.0], "b": 0.0})
    pts = _write(tmp_path, "p.json", [[1e308, -1e308]])
    out = tmp_path / "out.csv"
    rc = main(["eval", "--endo", endo, "--fn", fn, "--points", pts, "--out", str(out)])
    assert rc == 2
    assert "config error: cannot evaluate at [1e+308, -1e+308]" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("fn, point, value", [
    ({"kind": "ball_indicator", "r": 1e200}, [2e200, 0.0], "inf"),
    ({"kind": "pwl1d", "direction": [1e-200, 0.0], "pwl": fn_to_json(pwl_abs())},
     [1e200, 0.0], "1.0"),
], ids=["ball_indicator", "pwl1d"])
def test_cli_eval_where_the_squares_leave_the_float_range(tmp_path, fn, point, value):
    # the ball read 0.0 and the direction was refused as zero (exit 2)
    endo = _write(tmp_path, "e.json", {"kind": "scale_compose", "lambda": 1.0, "mu": 1.0, "n": 2})
    pts = _write(tmp_path, "p.json", [point])
    out = tmp_path / "out.csv"
    with np.errstate(over="ignore"):
        rc = main(["eval", "--endo", endo, "--fn", _write(tmp_path, "f.json", fn),
                   "--points", pts, "--out", str(out)])
    assert rc == 0
    assert out.read_text().splitlines()[1].split(",")[-1] == value
