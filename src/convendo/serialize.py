"""JSON descriptors for functions, measures and operators, plus CSV output.

Non-finite floats cross the wire as the strings "inf" and "-inf"; CSV files
render +inf as the literal ``inf``. Every descriptor emitted by the library
(including counterexample dumps) re-parses through this module. A missing,
mistyped or unparsable descriptor field raises BadShape.
"""

import json
from contextlib import contextmanager

import numpy as np

from .errors import BadShape
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
    """Report a malformed field of a ``what`` descriptor as BadShape."""
    try:
        yield
    except (KeyError, TypeError, ValueError, AttributeError, IndexError) as exc:
        raise BadShape(f"malformed {what} descriptor: {type(exc).__name__}: {exc}") from exc


# -- functions ----------------------------------------------------------------

def fn_to_json(f):
    if isinstance(f, PwlFunction):
        return {"kind": "pwl",
                "breakpoints": list(f.breakpoints),
                "values": list(f.values),
                "slope_left": _num_out(f.slope_left),
                "slope_right": _num_out(f.slope_right)}
    if isinstance(f, Affine):
        return {"kind": "affine", "a": f.a.tolist(), "b": f.b}
    if isinstance(f, Quad):
        return {"kind": "quad", "c": f.c}
    if isinstance(f, Norm):
        return {"kind": "norm", "c": f.c}
    if isinstance(f, BallIndicator):
        return {"kind": "ball_indicator", "r": f.r}
    if isinstance(f, Pwl1D):
        return {"kind": "pwl1d", "direction": f.direction.tolist(),
                "pwl": fn_to_json(f.p)}
    if isinstance(f, Sum):
        return {"kind": "sum", "terms": [fn_to_json(t) for t in f.terms]}
    if isinstance(f, Max):
        return {"kind": "max", "terms": [fn_to_json(t) for t in f.terms]}
    if isinstance(f, Scale):
        return {"kind": "scale", "lambda": f.lam, "term": fn_to_json(f.term)}
    if isinstance(f, Precompose):
        return {"kind": "precompose", "matrix": f.matrix.tolist(),
                "term": fn_to_json(f.term)}
    raise BadShape(f"cannot serialize {type(f).__name__}")


def fn_from_json(d):
    with _fields("function"):
        kind = d["kind"]
        if kind == "pwl":
            return PwlFunction(d["breakpoints"], d["values"],
                               _num_in(d["slope_left"]), _num_in(d["slope_right"]))
        if kind == "affine":
            return Affine(d["a"], d["b"])
        if kind == "quad":
            return Quad(d["c"])
        if kind == "norm":
            return Norm(d["c"])
        if kind == "ball_indicator":
            return BallIndicator(d["r"])
        if kind == "pwl1d":
            return Pwl1D(fn_from_json(d["pwl"]), d["direction"])
        if kind == "sum":
            return Sum([fn_from_json(t) for t in d["terms"]])
        if kind == "max":
            return Max([fn_from_json(t) for t in d["terms"]])
        if kind == "scale":
            return Scale(d["lambda"], fn_from_json(d["term"]))
        if kind == "precompose":
            return Precompose(d["matrix"], fn_from_json(d["term"]))
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

def endo_to_json(e):
    if isinstance(e, GlEndo):
        return {"kind": "gl", "c": e.c, "nu": line_measure_to_json(e.nu), "n": e.n}
    if isinstance(e, ScaleComposeMap):
        return {"kind": "scale_compose", "lambda": e.lam, "mu": e.mu_scalar,
                "n": e.n}
    if isinstance(e, RadialEndo):
        return {"kind": "radial", "mu": orbit_measure_to_json(e.mu), "M": e.M}
    if isinstance(e, PhiEndo):
        return {"kind": "phi_example", "phi": fn_to_json(e.phi)}
    if isinstance(e, MaEndo):
        if getattr(e, "zeta_descriptor", None) is None:
            raise BadShape("only hat-weight ma_example operators serialize")
        return {"kind": "ma_example", "g": fn_to_json(e.g),
                "zeta": dict(e.zeta_descriptor)}
    raise BadShape(f"cannot serialize operator {type(e).__name__}")


def endo_from_json(d):
    with _fields("operator"):
        kind = d["kind"]
        if kind == "gl":
            return GlEndo(float(d["c"]), line_measure_from_json(d["nu"]), int(d["n"]))
        if kind == "scale_compose":
            return ScaleComposeMap(float(d["lambda"]), float(d["mu"]), int(d["n"]))
        if kind == "radial":
            e = RadialEndo(orbit_measure_from_json(d["mu"]), M=int(d.get("M", 64)))
            # the one rotation rule; the optional key is kept for old descriptors
            if d.get("rotation_rule", "householder") != "householder":
                raise BadShape(f"unknown rotation rule {d['rotation_rule']!r}")
            return e
        if kind == "phi_example":
            return PhiEndo(fn_from_json(d["phi"]))
        if kind == "ma_example":
            z = d["zeta"]
            if z.get("kind") != "hat":
                raise BadShape("zeta supports only {'kind': 'hat', 'radius': r}")
            return MaEndo(fn_from_json(d["g"]), hat_weight(z["radius"]),
                          float(z["radius"]),
                          zeta_descriptor={"kind": "hat", "radius": float(z["radius"])})
        if kind != "kernel":
            raise BadShape(f"unknown operator kind {kind!r}")
        psi = d["psi"]
        if psi.get("kind") != "grid":
            raise BadShape("kernel psi supports only the 'grid' form")
        k = Kernel1D.from_grid(psi["xs"], psi["ys"], psi["values"])
        a_lo, a_hi = d["A"]
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

def _csv_num(v):
    if v == INF:
        return "inf"
    return repr(float(v))


def write_eval_csv(path, points, values, n):
    """Rows of x1,...,xn,value with +inf rendered as ``inf``.

    ``points`` is a (k, n) array and ``values`` holds k floats. Rows are
    formatted a block at a time, so the text in memory stays bounded. A grid
    repeats its coordinates, so each distinct float (by bit pattern) of a
    block is formatted once and its text reused.
    """
    rows = np.column_stack([np.asarray(points, dtype=float).reshape(-1, n),
                            np.asarray(values, dtype=float)])
    with open(path, "w") as fh:
        fh.write(",".join([f"x{i + 1}" for i in range(n)] + ["value"]) + "\n")
        for block in row_blocks(len(rows)):
            keys, inv = np.unique(rows[block].view(np.int64), return_inverse=True)
            # repr renders +inf as "inf", the same text as _csv_num
            text = [repr(v) for v in keys.view(float).tolist()]
            fh.writelines(",".join(map(text.__getitem__, r)) + "\n"
                          for r in inv.reshape(-1, n + 1).tolist())


def write_kernel_csv(path, xs, ys, values):
    """Kernel table: rows are x, columns are y, header row holds y values."""
    lines = [",".join(["x\\y"] + [repr(float(y)) for y in ys])]
    for x, row in zip(xs, values):
        lines.append(",".join([repr(float(x))] + [_csv_num(v) for v in row]))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
