"""JSON descriptors for functions, measures and operators, plus CSV output.

Non-finite floats cross the wire as the strings "inf" and "-inf"; CSV files
render +inf as the literal ``inf``. Every descriptor emitted by the library
(including counterexample dumps) re-parses through this module. A missing,
mistyped or unparsable descriptor field raises BadShape.
"""

import json
from contextlib import contextmanager

import numpy as np

from .errors import BadShape, NegativeScale, ZeroVector
from .extreal import INF
from .expr import (Affine, BallIndicator, Max, Norm, Precompose, Pwl1D, Quad,
                   Scale, Sum, row_blocks)
from .gl import GlEndo, ScaleComposeMap
from .kernel1d import Kernel1D, MaEndo, PhiEndo, hat_weight, kernel_decompose
from .measures import LineMeasure, OrbitMeasure
from .pwl import PwlFunction
from .radial import RadialEndo


def _num_out(v):
    if v == INF:
        return "inf"
    if v == -INF:
        return "-inf"
    return float(v)


def _num_in(v):
    if v == "inf":
        return INF
    if v == "-inf":
        return -INF
    return float(v)


@contextmanager
def _fields(what):
    """Report a malformed field of a ``what`` descriptor, or a value its
    constructor refuses as negative or zero, as BadShape."""
    try:
        yield
    except (KeyError, TypeError, ValueError, AttributeError, IndexError,
            OverflowError, NegativeScale, ZeroVector) as exc:
        raise BadShape(f"malformed {what} descriptor: {type(exc).__name__}: {exc}") from exc


# -- functions ----------------------------------------------------------------

# One entry per function kind: its class, its JSON fields, and the function
# built from those fields. Nested terms recurse through the module globals.
_FUNCTIONS = {
    "pwl": (PwlFunction,
            lambda f: {"breakpoints": list(f.breakpoints), "values": list(f.values),
                       "slope_left": _num_out(f.slope_left),
                       "slope_right": _num_out(f.slope_right)},
            lambda d: PwlFunction(d["breakpoints"], d["values"],
                                  _num_in(d["slope_left"]), _num_in(d["slope_right"]))),
    "affine": (Affine, lambda f: {"a": f.a.tolist(), "b": f.b},
               lambda d: Affine(d["a"], d["b"])),
    "quad": (Quad, lambda f: {"c": f.c}, lambda d: Quad(d["c"])),
    "norm": (Norm, lambda f: {"c": f.c}, lambda d: Norm(d["c"])),
    "ball_indicator": (BallIndicator, lambda f: {"r": f.r}, lambda d: BallIndicator(d["r"])),
    "pwl1d": (Pwl1D, lambda f: {"direction": f.direction.tolist(), "pwl": fn_to_json(f.p)},
              lambda d: Pwl1D(fn_from_json(d["pwl"]), d["direction"])),
    "sum": (Sum, lambda f: {"terms": [fn_to_json(t) for t in f.terms]},
            lambda d: Sum([fn_from_json(t) for t in d["terms"]])),
    "max": (Max, lambda f: {"terms": [fn_to_json(t) for t in f.terms]},
            lambda d: Max([fn_from_json(t) for t in d["terms"]])),
    "scale": (Scale, lambda f: {"lambda": f.lam, "term": fn_to_json(f.term)},
              lambda d: Scale(d["lambda"], fn_from_json(d["term"]))),
    "precompose": (Precompose, lambda f: {"matrix": f.matrix.tolist(), "term": fn_to_json(f.term)},
                   lambda d: Precompose(d["matrix"], fn_from_json(d["term"]))),
}
_FUNCTION_KINDS = {cls: kind for kind, (cls, _, _) in _FUNCTIONS.items()}


def fn_to_json(f):
    kind = _FUNCTION_KINDS.get(type(f))
    if kind is None:
        raise BadShape(f"cannot serialize {type(f).__name__}")
    return {"kind": kind, **_FUNCTIONS[kind][1](f)}


def fn_from_json(d):
    with _fields("function"):
        kind = d["kind"]
        if kind in _FUNCTIONS:
            return _FUNCTIONS[kind][2](d)
    raise BadShape(f"unknown function kind {kind!r}")


# -- measures -----------------------------------------------------------------

def line_measure_to_json(m):
    return {"atoms": [{"s": s, "w": w} for s, w in m.atoms]}


def line_measure_from_json(d):
    with _fields("line measure"):
        return LineMeasure([(a["s"], a["w"]) for a in d["atoms"]])


def orbit_measure_to_json(m):
    return {"n": m.n,
            "atoms": [{"t": t, "theta": th, "w": w} for t, th, w in m.atoms]}


def orbit_measure_from_json(d):
    with _fields("orbit measure"):
        return OrbitMeasure(d["n"], [(a["t"], a["theta"], a["w"]) for a in d["atoms"]])


# -- operators ----------------------------------------------------------------

def _radial_from_json(d):
    e = RadialEndo(orbit_measure_from_json(d["mu"]), M=int(d.get("M", 64)))
    # the one rotation rule; the optional key is kept for old descriptors
    if d.get("rotation_rule", "householder") != "householder":
        raise BadShape(f"unknown rotation rule {d['rotation_rule']!r}")
    return e


def _ma_to_json(e):
    if not hasattr(e.zeta, "descriptor"):
        raise BadShape("only hat-weight ma_example operators serialize")
    if e.support_radius < e.zeta.descriptor["radius"]:  # the descriptor cannot cut the hat
        raise BadShape("an ma_example operator serializes only if its support covers the hat")
    return {"g": fn_to_json(e.g), "zeta": dict(e.zeta.descriptor)}


def _ma_from_json(d):
    z = d["zeta"]
    if z.get("kind") != "hat":
        raise BadShape("zeta supports only {'kind': 'hat', 'radius': r}")
    return MaEndo(fn_from_json(d["g"]), hat_weight(z["radius"]), float(z["radius"]))


# One entry per operator kind, as for functions. A "kernel" descriptor parses
# only: endo_from_json decomposes its grid kernel outside ``_fields``.
_OPERATORS = {
    "gl": (GlEndo, lambda e: {"c": e.c, "nu": line_measure_to_json(e.nu), "n": e.n},
           lambda d: GlEndo(float(d["c"]), line_measure_from_json(d["nu"]), int(d["n"]))),
    "scale_compose": (ScaleComposeMap, lambda e: {"lambda": e.lam, "mu": e.mu_scalar, "n": e.n},
                      lambda d: ScaleComposeMap(float(d["lambda"]), float(d["mu"]), int(d["n"]))),
    "radial": (RadialEndo, lambda e: {"mu": orbit_measure_to_json(e.mu), "M": e.M},
               _radial_from_json),
    "phi_example": (PhiEndo, lambda e: {"phi": fn_to_json(e.phi)},
                    lambda d: PhiEndo(fn_from_json(d["phi"]))),
    "ma_example": (MaEndo, _ma_to_json, _ma_from_json),
}
_OPERATOR_KINDS = {cls: kind for kind, (cls, _, _) in _OPERATORS.items()}


def endo_to_json(e):
    kind = _OPERATOR_KINDS.get(type(e))
    if kind is None:
        raise BadShape(f"cannot serialize operator {type(e).__name__}")
    return {"kind": kind, **_OPERATORS[kind][1](e)}


def endo_from_json(d):
    with _fields("operator"):
        kind = d["kind"]
        if kind in _OPERATORS:
            return _OPERATORS[kind][2](d)
        if kind != "kernel":
            raise BadShape(f"unknown operator kind {kind!r}")
        psi = d["psi"]
        if psi.get("kind") != "grid":
            raise BadShape("kernel psi supports only the 'grid' form")
        k = Kernel1D.from_grid(psi["xs"], psi["ys"], psi["values"])
        k.require_x_convex()
        a_lo, a_hi = (float(a) for a in d["A"])
        R = float(d["R"])
    # decomposing is computation, not parsing: its errors pass through
    return kernel_decompose(k, (a_lo, a_hi), R)


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


def dump_json(obj, path):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")


# -- CSV ----------------------------------------------------------------------

def _write_rows(fh, rows):
    """Write the rows of a 2-D float array as CSV lines, a block at a time.

    Each distinct float (by bit pattern) of a block is formatted once by
    ``repr`` (+inf reads ``inf``) into a table of its texts ending in "," and
    then in "\\n"; one fancy index of that table and one join lay out the block.
    """
    for block in row_blocks(len(rows)):
        keys, inv = np.unique(rows[block].view(np.int64), return_inverse=True)
        text = np.array([repr(v) for v in keys.view(float).tolist()], dtype=object)
        table = np.concatenate([text + ",", text + "\n"])
        idx = inv.reshape(-1, rows.shape[1])
        idx[:, -1] += len(text)
        fh.write("".join(table[idx].ravel().tolist()))


def write_eval_csv(path, points, values, n):
    """Rows of x1,...,xn,value with +inf rendered as ``inf``.

    ``points`` is a (k, n) array and ``values`` holds k floats. Rows are
    formatted a block at a time, so the text in memory stays bounded.
    """
    rows = np.column_stack([np.asarray(points, dtype=float).reshape(-1, n),
                            np.asarray(values, dtype=float)])
    with open(path, "w") as fh:
        fh.write(",".join([f"x{i + 1}" for i in range(n)] + ["value"]) + "\n")
        _write_rows(fh, rows)


def write_kernel_csv(path, xs, ys, values):
    """Kernel table: rows are x, columns are y, header row holds y values."""
    with open(path, "w") as fh:
        fh.write("x\\y,")
        _write_rows(fh, np.asarray(ys, dtype=float)[None])
        _write_rows(fh, np.column_stack([xs, values]).astype(float))
