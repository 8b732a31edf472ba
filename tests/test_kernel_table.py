"""The kernel read as a table, against scalar references bit for bit.

``Kernel1D.table`` is the one read of psi, and ``KernelDecomposition`` has
one evaluation path over (f, x) pairs. Each is compared by ``float.hex``
with a reference that reads psi one point at a time: the scalar bilinear
formula of a grid kernel, the evaluator of an opaque one, and one operator
call per hinge for an operator-backed one. ``ref_residual`` and
``ref_value`` below are the list-comprehension residual and kink sum the
decomposition was evaluated by before it read psi in tables.
"""

import json
import math

import numpy as np
import pytest

from convendo import (INF, BadShape, GlEndo, Kernel1D, KernelNotConvex, LineMeasure, MaEndo,
                      OutsideA, PhiEndo, PwlFunction, ScaleComposeMap, TailNotAffine,
                      XSliceNotAffine, kernel_decompose, kernel_endo_eval, kernel_extract_live,
                      monge_ampere, pwl_hinge)
from convendo import cli, kernel1d
from convendo.cli import main
from convendo.extreal import edge_split
from convendo.rand import random_finite_pwl, rng_from_seed
from convendo.serialize import endo_from_json

A, R, BOX = (-1.0, 1.0), 2.0, (-1.2, 1.2, -6.0, 6.0)


# -- scalar references ---------------------------------------------------------------

def ref_bilinear(grid, x, y):
    """psi(x, y) of a grid kernel, one point at a time."""
    xs, ys, values = grid
    i = int(np.clip(np.searchsorted(xs, x) - 1, 0, xs.size - 2))
    j = int(np.clip(np.searchsorted(ys, y) - 1, 0, ys.size - 2))
    tx = (x - xs[i]) / (xs[i + 1] - xs[i])
    ty = (y - ys[j]) / (ys[j + 1] - ys[j])
    return float((1 - tx) * (1 - ty) * values[i, j] + tx * (1 - ty) * values[i + 1, j]
                 + (1 - tx) * ty * values[i, j + 1] + tx * ty * values[i + 1, j + 1])


def ref_residual(psi, d, x, ys):
    """The tails at x and [psi_tilde(x, y) for y in ys], psi read by the
    scalar ``psi(x, y)``, one point at a time."""
    x = float(x)
    if edge_split(x, x, *d.A)[1] or math.isnan(x):
        raise OutsideA(f"{x} outside decomposition interval {d.A}")
    R, cut = d.R, d.R + 1e-12
    p_hi, p_r, p_mr, p_lo = (psi(x, y) for y in (R + 1.0, R, -R, -R - 1.0))
    c1, c2, c3, c4 = tails = ((R + 1.0) * p_hi - (R + 2.0) * p_r,
                              (R + 1.0) * p_r - R * p_hi,
                              R * p_mr - (R - 1.0) * p_lo,
                              R * p_lo - (R + 1.0) * p_mr)
    res = [psi(x, y) - (c1 * max(y, 0.0) + c2 * max(y + 1.0, 0.0) + c3 * max(-y, 0.0)
                        + c4 * max(-y - 1.0, 0.0)) if not abs(y) > cut else 0.0 for y in ys]
    return tails, res


def ref_value(psi, d, f, x):
    """The decomposed operator at (f, x): the tails, then each kink's term in order."""
    ma = monge_ampere(f)
    (c1, c2, c3, c4), res = ref_residual(psi, d, x, ma.positions)
    total = (c1 + c3) * f(0.0) + (c2 + c4) * f(-1.0)
    for r, w in zip(res, ma.weights):
        total += r * w
    return total


def hexes(values):
    return [float(v).hex() for v in np.ravel(values)]


# -- every kind of kernel --------------------------------------------------------------

def _grid_values(xs, ys):
    X, Y = xs[:, None], ys[None, :]
    return np.maximum(Y - X, 0.0) - 0.5 * np.maximum(Y, 0.0) + 0.25 * X * Y + 0.1 * X


GRID = (np.linspace(-1.2, 1.2, 13), np.linspace(-6.0, 6.0, 61))
GRID = (*GRID, _grid_values(*GRID))
OPS = {
    "gl": GlEndo(0.5, LineMeasure([(1.0, 1.0), (-0.5, 0.25), (1e-3, 3.0)]), 1),
    "scale_compose": ScaleComposeMap(2.0, -1.5, 1),
    "phi": PhiEndo(PwlFunction([-1.0, 0.0, 1.0], [2.0, 1.0, 2.0], -INF, INF)),
    "ma": MaEndo(PwlFunction([-1.0, 0.5], [2.0, -0.5], -3.0, 2.0),
                 lambda u: 0.5 + u * u, 1.2),
}


def _kernel(kind):
    """(kernel, its scalar reference psi(x, y)) of each kind."""
    if kind == "grid":
        return Kernel1D.from_grid(*GRID), lambda x, y: ref_bilinear(GRID, x, y)
    if kind == "opaque":
        def ev(x, y):
            return max(y - x, 0.0) - max(y, 0.0) + x * x * max(1.0 - abs(y - 0.3), 0.0)
        return Kernel1D(ev, BOX), ev
    if kind == "decomposition":
        op = kernel_decompose(kernel_extract_live(OPS["gl"], (-2.0, 2.0, -8.0, 8.0)), A, R)
    else:
        op = OPS[kind]
    return kernel_extract_live(op, BOX), lambda x, y: op(pwl_hinge(y), x)


KINDS = ["grid", "opaque", "gl", "scale_compose", "phi", "ma", "decomposition"]
# A's edges and 5e-11 beside them, and inner points
XS = [-1.0 - 5e-11, -1.0, -1.0 + 5e-11, -0.3, 0.0, 0.45, 1.0 - 5e-11, 1.0, 1.0 + 5e-11]
# the cut at R + 1e-12 (+-R +- 5e-13 are read, +-R +- 2e-12 are not), zeros
# of both signs and the tail nodes
YS = ([s * R + e for s in (1.0, -1.0) for e in (0.0, 5e-13, -5e-13, 2e-12, -2e-12)]
      + [0.0, -0.0, 0.37, -1.0, 1.0, 2.5, -3.0, 3.0])


@pytest.mark.parametrize("kind", KINDS)
def test_table_row_and_point_reads_match_the_scalar_reference(kind):
    psi, ref = _kernel(kind)
    want = [[ref(x, y) for y in YS] for x in XS]
    assert hexes(psi.table(XS, YS)) == hexes(want)
    # one row of ys per x reads the same values
    Y = np.array(YS)[::-1] * np.ones((len(XS), 1))
    assert hexes(psi.table(XS, Y)) == hexes([[ref(x, y) for y in YS[::-1]] for x in XS])
    for x, row in zip(XS, want):
        assert hexes(psi.row(x, YS)) == hexes(row)
        assert [psi(x, y).hex() for y in YS[::5]] == hexes(row[::5])


@pytest.mark.parametrize("kind", KINDS)
def test_table_of_no_rows_or_no_columns(kind):
    psi, _ = _kernel(kind)
    assert psi.table([], YS).shape == (0, len(YS))
    assert psi.table(XS, []).shape == (len(XS), 0)


def test_table_reports_the_first_pair_outside_the_box_in_row_order():
    psi, _ = _kernel("opaque")
    with pytest.raises(OutsideA, match=r"\(0\.5, 7\.0\)"):
        psi.table([0.0, 0.5, 2.0], [[0.0, 1.0], [7.0, 9.0], [0.0, 0.0]])
    with pytest.raises(OutsideA, match=r"\(0\.0, 9\.0\)"):
        psi.table([0.0, 2.0], [0.0, 9.0])
    with pytest.raises(OutsideA, match=r"\(2\.0, 0\.0\)"):
        psi.table([0.0, 2.0], [0.0, 1.0])


# -- the decomposition's one evaluation path -------------------------------------------

def _decomposed(kind):
    psi, ref = _kernel(kind)
    return kernel_decompose(psi, A, R), ref


def _inputs(rng):
    """Finite inputs with kinks on the cut, beyond R, at +-0.0 and none."""
    fs = [random_finite_pwl(rng) for _ in range(6)]
    bp = [-R - 2e-12, -R - 5e-13, -0.0, 0.75, R + 5e-13, R + 2e-12]
    ms = [-2.5, -1.0, -0.25, 0.5, 1.0]
    va = [1.0]
    for b1, b2, m in zip(bp, bp[1:], ms):
        va.append(va[-1] + m * (b2 - b1))
    fs.append(PwlFunction(bp, va, -3.0, 3.0, slopes=ms))
    fs.append(PwlFunction([-3.0, 3.0], [-1.0, -1.0], -1.0, 1.0))  # kinks beyond R only
    fs.append(PwlFunction([0.0], [-1.0], 0.0, 0.0))                # no kinks
    return fs


@pytest.mark.parametrize("kind", KINDS)
def test_residual_and_values_match_the_scalar_reference(kind):
    d, ref = _decomposed(kind)
    fs = _inputs(np.random.default_rng(4))
    xs = [x for x in XS if abs(x) <= 1.0 + 5e-11]
    for x in xs:
        tails, res = d.residual(x, YS)
        want_tails, want_res = ref_residual(ref, d, x, YS)
        assert hexes(tails) == hexes(want_tails) and hexes(res) == hexes(want_res)
        assert d.tails(x) == tails
    for f in fs:
        want = hexes([ref_value(ref, d, f, x) for x in xs])
        assert hexes(d.eval_many(f, np.array(xs)[:, None])) == want
        assert hexes([kernel_endo_eval(d, f, x) for x in xs]) == want
        assert hexes([d(f, x) for x in xs]) == want
    # pairs of different inputs, each row read at its own kink count
    pairs = [(f, x) for f in fs for x in xs[::2]]
    got = d._pairs(np.array([x for _, x in pairs]), [f for f, _ in pairs])
    assert hexes(got) == hexes([ref_value(ref, d, f, x) for f, x in pairs])


def test_a_zero_total_keeps_its_sign_through_the_table_path():
    d, ref = _decomposed("decomposition")
    d0 = kernel_decompose(Kernel1D(lambda x, y: 0.0, BOX), A, R)
    g = PwlFunction([0.0], [-1.0], 0.0, 0.0)
    f = PwlFunction([-3.0, 3.0], [-1.0, -1.0], -1.0, 1.0)
    assert kernel_endo_eval(d0, g, 0.5).hex() == "-0x0.0p+0"
    assert kernel_endo_eval(d0, f, 0.5).hex() == "0x0.0p+0"
    got = d0._pairs(np.array([0.5, 0.5, 0.5]), [g, f, g])
    assert hexes(got) == ["-0x0.0p+0", "0x0.0p+0", "-0x0.0p+0"]


def test_a_kink_at_minus_zero_keeps_the_sign_of_its_hinge_multiples():
    # c1 = 0.0, c2 = -0.0 and c3, c4 < 0, so the hinge sum at y = -0.0 is
    # -0.0 only if max(-0.0, 0.0) is -0.0, as in Python; it decides the
    # residual's zero and, with a head of -0.0, the value's
    def ev(x, y):
        if abs(y) < R:
            return -0.0
        return (0.0 if y > R else -0.0) if y > 0 else -0.6 + 0.4 * (y + R)
    d = kernel_decompose(Kernel1D(ev, BOX), A, R)
    f = PwlFunction([-0.0], [0.0], 0.0, 1.0)
    for x in (-0.5, 0.25):
        assert d.residual(x, [-0.0])[1][0].hex() == ref_residual(ev, d, x, [-0.0])[1][0].hex()
        assert kernel_endo_eval(d, f, x).hex() == ref_value(ev, d, f, x).hex() == "0x0.0p+0"


@pytest.mark.parametrize("kind", KINDS)
def test_an_x_outside_A_is_refused_by_every_door(kind):
    d, _ = _decomposed(kind)
    f = _inputs(np.random.default_rng(1))[0]
    for x in (1.0 + 2e-10, -1.5, math.nan):
        for read in (lambda: d.residual(x, [0.5]), lambda: d.tails(x),
                     lambda: d.kernel_table(np.array([x]), [0.5])):
            with pytest.raises(OutsideA):
                read()
        # a nan point is refused first by the input check of every operator
        with pytest.raises(BadShape if x != x else OutsideA):
            kernel_endo_eval(d, f, x)


# -- the batched roundtrip ---------------------------------------------------------------

def _roundtrip_by_trial(endo, A, R, seed, trials):
    """The roundtrip's deviation with d(f, x) read one trial at a time."""
    live = kernel_extract_live(endo, (A[0] - 0.2, A[1] + 0.2, -(2 * R), 2 * R))
    d = kernel_decompose(live, A, R)
    rng = rng_from_seed(seed)
    worst = 0.0
    for _ in range(trials):
        f = random_finite_pwl(rng)
        x = float(rng.uniform(*A))
        worst = max(worst, abs(d(f, x) - endo(f, x)))
    return worst


@pytest.mark.parametrize("block", [1, 7, 8192])
@pytest.mark.parametrize("desc", [
    {"kind": "gl", "c": 0.5, "n": 1,
     "nu": {"atoms": [{"s": 1.0, "w": 1.0}, {"s": -0.5, "w": 0.25}]}},
    {"kind": "ma_example", "g": {"kind": "pwl", "breakpoints": [-1.0, 0.5], "values": [1.0, 0.0],
                                 "slope_left": -2.0, "slope_right": 1.0},
     "zeta": {"kind": "hat", "radius": 1.0}},
], ids=["gl", "ma"])
def test_batched_roundtrip_equals_the_trial_by_trial_loop(tmp_path, monkeypatch, block, desc):
    monkeypatch.setattr(cli, "BLOCK", block)
    path = tmp_path / "e.json"
    path.write_text(json.dumps(desc))
    out = tmp_path / "rt.json"
    assert main(["kernel", "roundtrip", "--endo", str(path), "--trials", "20", "--seed", "5",
                 "--out", str(out)]) == 0
    got = json.loads(out.read_text())["max_deviation"]
    assert got.hex() == _roundtrip_by_trial(endo_from_json(desc), (-1.0, 1.0), 4.0, 5, 20).hex()


# -- refusals -----------------------------------------------------------------------------

def _concave_kernel():
    """psi = -x^2 max(1 - |y|, 0): every psi(., y) with |y| < 1 is concave."""
    xs, ys = np.linspace(-1, 1, 9), np.linspace(-3, 3, 25)
    values = -xs[:, None] ** 2 * np.maximum(1.0 - np.abs(ys[None, :]), 0.0)
    return {"kind": "kernel", "A": [-1, 1], "R": 2.0,
            "psi": {"kind": "grid", "xs": xs.tolist(), "ys": ys.tolist(),
                    "values": values.tolist()}}


def test_a_kernel_not_convex_in_x_is_refused_by_the_library():
    with pytest.raises(KernelNotConvex, match=r"psi\(\., -0\.75\) is not convex"):
        endo_from_json(_concave_kernel())
    # within 1e-9 of the largest |slope| a falling slope passes, beyond it not
    xs, ys = np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0])
    for drop, ok in ((0.9e-9, True), (1.1e-9, False)):
        k = Kernel1D.from_grid(xs, ys, [[0.0, 0.0], [1.0, 1.0], [2.0 - drop, 2.0]])
        if ok:
            k.require_x_convex()
        else:
            with pytest.raises(KernelNotConvex):
                k.require_x_convex()


def test_a_kernel_not_convex_in_x_is_refused_by_the_cli(tmp_path, capsys):
    (tmp_path / "k.json").write_text(json.dumps(_concave_kernel()))
    (tmp_path / "f.json").write_text(json.dumps({
        "kind": "pwl", "breakpoints": [0.0], "values": [0.0],
        "slope_left": -1.0, "slope_right": 1.0}))
    out = tmp_path / "o.csv"
    assert main(["eval", "--endo", str(tmp_path / "k.json"), "--fn", str(tmp_path / "f.json"),
                 "--grid=-1:1:0.5", "--out", str(out)]) == 2
    assert "is not convex" in capsys.readouterr().err
    assert not out.exists()


GL1 = {"kind": "gl", "c": 0.5, "n": 1, "nu": {"atoms": [{"s": 1.0, "w": 1.0}]}}


@pytest.mark.parametrize("argv, message", [
    (["--R", "inf"], "radius must be >= 1 and finite"),
    (["--R", "nan"], "validity box is empty"),
    (["--A=-1:inf"], "interval A must be finite"),
    (["--A=nan:1"], "validity box is empty"),
    (["--trials", "-5"], "--trials must be non-negative"),
], ids=["R-inf", "R-nan", "A-inf", "A-nan", "trials"])
def test_roundtrip_refuses_bad_numeric_flags(tmp_path, capsys, argv, message):
    path = tmp_path / "e.json"
    path.write_text(json.dumps(GL1))
    assert main(["kernel", "roundtrip", "--endo", str(path)] + argv) == 2
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""


def test_check_refuses_negative_trials(capsys):
    assert main(["check", "--suite", "kernel", "--trials", "-3"]) == 2
    captured = capsys.readouterr()
    assert "--trials must be non-negative" in captured.err and captured.out == ""


# -- the first bend, as the row-by-row scan reported it ------------------------------------

def _first_bend_by_row(rows):
    """The row-by-row scan the decomposition checks made before tables."""
    for label, vals in rows:
        v = np.asarray(vals, dtype=float)
        if not np.isfinite(v).all():
            return label, math.nan
        dev = float(np.max(np.abs(v[2:] - 2.0 * v[1:-1] + v[:-2]))) if v.size > 2 else 0.0
        if dev > 1e-8 * max(1.0, float(np.max(np.abs(v)))):
            return label, dev
    return None


def _decompose_message(psi, A, R):
    """kernel_decompose's refusal, from the row-by-row scan with scalar reads."""
    xs = np.linspace(A[0], A[1], 21)
    ys = np.linspace(R, R + 1.0, 13)
    bend = _first_bend_by_row(((x, s * R), [psi(x, y) for y in s * ys])
                              for s in (1.0, -1.0) for x in xs)
    if bend:
        (x, edge), dev = bend
        return TailNotAffine, f"psi({x}, .) bends beyond {edge}: second difference {dev}"
    ys = np.concatenate([s * np.linspace(R + 1e-6, R + 1.0, 5) for s in (1.0, -1.0)])
    bend = _first_bend_by_row(zip(ys, np.array([[psi(x, y) for y in ys] for x in xs]).T))
    y, dev = bend
    return XSliceNotAffine, f"psi(., {y}) is not affine on A: second difference {dev}"


@pytest.mark.parametrize("ev", [
    # beyond -R at every x, beyond +R only for x > 0.5: the scan takes +R first
    lambda x, y: max(y - 2.5, 0.0) ** 2 * (x > 0.5) + max(-y - 2.5, 0.0) ** 2,
    # beyond +R at x = -0.6 and x = 0.3: the first x in the scan
    lambda x, y: max(y - 2.4, 0.0) ** 2 * (abs(x + 0.6) < 1e-9 or abs(x - 0.3) < 1e-9) * (1 + x),
    lambda x, y: math.nan if (x > 0.0 and y < 0.0) else y,
    lambda x, y: INF if y > 2.9 else y,
    # two x-slices bend: psi(., y) = x^2 y on y > R, and on y < -R
    lambda x, y: x * x * y * (abs(y) > R),
    lambda x, y: x * x * (y + 2.0) * (y < -R) + abs(x) * (y > 2.5),
], ids=["two-tails", "two-rows", "nan", "inf", "two-slices", "slices-kinked"])
def test_refusals_name_the_first_bend_of_the_row_by_row_scan(ev):
    psi = Kernel1D(ev, (-1.0, 1.0, -4.0, 4.0))
    kind, message = _decompose_message(ev, (-1.0, 1.0), R)
    with pytest.raises(kind) as got:
        kernel_decompose(psi, (-1.0, 1.0), R)
    assert str(got.value) == message


def test_detect_tail_radius_reads_one_table_per_radius(monkeypatch):
    tables = []
    psi = Kernel1D(lambda x, y: max(abs(y) - 3.0, 0.0), (-1.0, 1.0, -64.0, 64.0))
    orig = Kernel1D.table
    monkeypatch.setattr(Kernel1D, "table",
                        lambda self, X, ys: tables.append(1) or orig(self, X, ys))
    assert kernel1d.detect_tail_radius(psi, (-1.0, 1.0)) == 4.0
    assert len(tables) == 6  # R = 1, 2, ..., 32
