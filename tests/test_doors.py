"""Every operator checks f and its points once, first, with one function per
input kind, so ``op(f, x)`` refuses exactly what ``op.eval_many(f, [x])``
refuses, with the same error."""

import math
import sys

import numpy as np
import pytest

import convendo
from convendo import (Affine, BadShape, ConvendoError, DimensionMismatch, GlEndo, LineMeasure,
                      MaEndo, Norm, OrbitMeasure, PhiEndo, Quad, RadialEndo, ScaleComposeMap,
                      canonical_rotation, gl_eval_detailed, hat_weight, kernel_decompose,
                      kernel_extract_live, moreau_envelope, pwl_abs, radial_eval)

NAN = math.nan


def _operators():
    gl1 = GlEndo(0.5, LineMeasure([(1.0, 1.0), (-2.0, 0.5)]), 1)
    return {
        "gl1": gl1,
        "gl2": GlEndo(0.5, LineMeasure([(1.0, 1.0), (-2.0, 0.5)]), 2),
        "scale_compose2": ScaleComposeMap(2.0, -1.5, 2),
        "radial2": RadialEndo(OrbitMeasure(2, [(1.0, 0.5, 1.0)]), M=8),
        "phi": PhiEndo(pwl_abs()),
        "ma": MaEndo(pwl_abs(), hat_weight(1.0), 1.0),
        "decomposition": kernel_decompose(kernel_extract_live(gl1, (-1.2, 1.2, -6.0, 6.0)),
                                          (-1.0, 1.0), 2.0),
    }


def _inputs(n):
    """(f, coordinates of x) of each input kind, for an operator on R^n."""
    valid = pwl_abs() if n == 1 else Quad(1.0)
    return {
        "tree_of_dim_1": (Affine([1.0], 0.5), [0.5]),
        "bare_pwl": (pwl_abs(), [0.5] * n),
        "tree_of_wrong_dim": (Affine(np.ones(n + 1), 0.0), [0.5] * n),
        "nan_point": (valid, [NAN] * n),
        "wrong_width_point": (valid, [0.5] * (n + 1)),
    }


def _outcome(call):
    try:
        return ("value", call())
    except ConvendoError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("kind", sorted(_inputs(1)))
@pytest.mark.parametrize("name", sorted(_operators()))
def test_one_point_and_block_refuse_alike(name, kind):
    op = _operators()[name]
    f, coords = _inputs(op.n)[kind]
    x = coords[0] if len(coords) == 1 else coords  # a 1-D point may be a float
    one = _outcome(lambda: op(f, x))
    block = _outcome(lambda: float(op.eval_many(f, [coords])[0]))
    assert one == block
    if kind in ("nan_point", "wrong_width_point", "tree_of_wrong_dim"):
        assert one[0] in (BadShape, DimensionMismatch)


def test_gl_eval_detailed_takes_a_bare_pwl():
    e = GlEndo(0.5, LineMeasure([(1.0, 1.0)]), 1)
    assert gl_eval_detailed(e, pwl_abs(), 0.7) == (0.7, {"case": "interior"})


def test_canonical_rotation_refuses_nan_and_a_wrong_width_as_every_point_door():
    with pytest.raises(BadShape, match="nan"):
        canonical_rotation([NAN, 1.0, 0.0], 3)
    with pytest.raises(DimensionMismatch, match="expected dim 3, points have dim 2"):
        canonical_rotation([1.0, 0.0], 3)


def test_a_tree_of_the_wrong_dimension_is_refused_by_as_expr_alone():
    e = GlEndo(0.5, LineMeasure([(1.0, 1.0)]), 2)
    for call in (lambda f: e(f, [1.0, 0.0]), lambda f: gl_eval_detailed(e, f, [1.0, 0.0])):
        with pytest.raises(DimensionMismatch, match="expected dim 3, points have dim 2"):
            call(Affine([1.0, 2.0, 3.0], 0.0))


def _count_door_calls(monkeypatch):
    """Wrap as_point_block and as_expr under every name a convendo module binds."""
    counts = {"as_point_block": 0, "as_expr": 0}
    for name in counts:
        orig = getattr(convendo.expr, name)

        def counted(*args, name=name, orig=orig):
            counts[name] += 1
            return orig(*args)

        for mod in [m for key, m in sys.modules.items() if key.startswith("convendo.")]:
            if getattr(mod, name, None) is orig:
                monkeypatch.setattr(mod, name, counted)
    return counts


@pytest.mark.parametrize("op, f, x", [
    (GlEndo(0.5, LineMeasure([(1.0, 1.0), (-2.0, 0.5)]), 2),
     Norm(1.0), [0.3, -0.4]),
    (GlEndo(0.5, LineMeasure([(1.0, 1.0)]), 1), pwl_abs(), 0.7),
    (RadialEndo(OrbitMeasure(3, [(1.0, 0.5, 1.0)]), M=8),
     Affine([1.0, 2.0, 3.0], 0.5), [0.3, -0.4, 1.0]),
])
def test_a_one_row_call_checks_f_and_its_point_once(monkeypatch, op, f, x):
    counts = _count_door_calls(monkeypatch)
    op(f, x)
    assert counts == {"as_point_block": 1, "as_expr": 1}


OVERFLOWING = Affine([1.0, 1.0], 0.0), [1e308, -1e308]  # f(s x) = inf - inf at s = 2


@pytest.mark.parametrize("op, f, x", [
    (GlEndo(0.0, LineMeasure([(2.0, 1.0)]), 2), *OVERFLOWING),
    (ScaleComposeMap(1.0, 2.0, 2), *OVERFLOWING),
    (RadialEndo(OrbitMeasure(2, [(2.0, 0.0, 1.0)]), M=1), *OVERFLOWING),
    (RadialEndo(OrbitMeasure(3, [(2.0, 0.0, 1.0)]), M=8),
     Affine([1.0, 1.0, 0.0], 0.0), [1e308, -1e308, 0.0]),
], ids=["gl", "scale_compose", "radial2", "radial3"])
def test_a_nan_value_at_a_nan_free_point_is_refused_naming_the_point(op, f, x):
    # each returned nan: the scaled point leaves the float range
    for call in (lambda: op(f, x), lambda: op.eval_many(f, [[0.5] * op.n, x])):
        with pytest.raises(BadShape, match=r"cannot evaluate at \[1e\+308, -1e\+308"):
            with np.errstate(over="ignore", invalid="ignore"):
                call()


def test_gl_eval_detailed_refuses_a_nan_value_as_gl_eval_does():
    e = GlEndo(0.0, LineMeasure([(2.0, 1.0), (-2.0, 1.0)]), 1)
    for call in (lambda: gl_eval_detailed(e, Affine([1.0], 0.0), [1e308]),
                 lambda: e(Affine([1.0], 0.0), [1e308])):
        with pytest.raises(BadShape, match="a scaled point leaves the float range"):
            call()


@pytest.mark.parametrize("radius", [math.inf, NAN, 0.0, -1.0])
def test_hat_weight_refuses_a_radius_not_positive_and_finite(radius):
    with pytest.raises(BadShape, match="hat radius must be positive and finite"):
        hat_weight(radius)


def test_ma_endo_refuses_a_support_radius_not_finite_and_non_negative():
    f = pwl_abs()
    # g(1) zeta(0) times the jump 2 of |x| at 0, which a radius of 0 still covers
    assert MaEndo(pwl_abs(), hat_weight(1.0), 1.0)(f, 1.0) == 2.0
    assert MaEndo(pwl_abs(), hat_weight(1.0), 0.0)(f, 1.0) == 2.0
    for r in (-1.0, NAN, math.inf):
        with pytest.raises(BadShape, match="support radius must be finite and >= 0"):
            MaEndo(pwl_abs(), hat_weight(1.0), r)


def test_moreau_envelope_refuses_nan_like_every_evaluator():
    env = moreau_envelope(pwl_abs(), 1.0)
    assert env(0.25) == 0.03125
    with pytest.raises(BadShape, match="^cannot evaluate at nan$"):
        env(NAN)


def test_a_rotation_override_is_checked_and_the_canonical_one_passes():
    e, f, x = RadialEndo(OrbitMeasure(3, [(1.0, 0.0, 1.0)]), M=8), Quad(1.0), [1.0, 0.0, 0.0]
    assert radial_eval(e, f, x) == 1.0
    y = np.array([0.3, -0.4, 1.0])
    base, th = canonical_rotation(y, 3), 0.7
    q = np.eye(3)
    q[1:, 1:] = [[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]]  # fixes e1
    assert radial_eval(e, f, y, rotation=base @ q) == pytest.approx(radial_eval(e, f, y), abs=1e-12)
    X = np.array([y, [0.0, 0.0, 0.0]])
    e.eval_many(f, X, rotations=np.stack([base, np.eye(3)]))  # a zero row's rotation is free
    for bad in (2.0 * np.eye(3),  # not orthonormal: 4.0 at e1 where the value is 1.0
                canonical_rotation([0.0, 1.0, 0.0], 3),  # takes e1 to e2, not to x
                np.full((3, 3), NAN)):
        with pytest.raises(BadShape, match="orthonormal and take e1 to x"):
            radial_eval(e, f, x, rotation=bad)
    with pytest.raises(BadShape, match=r"rotations have shape \(1, 2, 2\)"):
        radial_eval(e, f, x, rotation=np.eye(2))
    with pytest.raises(BadShape, match=r"rotations have shape \(1, 3, 3\)"):
        e.eval_many(f, X, rotations=np.eye(3)[None])
