"""Command-line front end: evaluate operators, run suites, export kernels.

Exit codes: 0 success, 1 failed property, 2 config/schema errors,
3 evaluation errors. All randomness derives from the --seed flag through
numpy's default PCG64 generator, so outputs are byte-stable per seed.
"""

import argparse
import json
import math
import sys

import numpy as np

from . import rand
from .errors import BadShape, ConvendoError
from .kernel1d import (kernel_decompose, kernel_extract, kernel_extract_live,
                       kernel_roundtrip_trials)
from .serialize import (dump_json, endo_from_json, fn_from_json, load_json,
                        write_eval_csv, write_kernel_csv)
from .suites import SUITES, run_suite


# Most points one --grid may produce (axis length to the power of the
# dimension), and most nodes of a kernel extract table (len(xs) * len(ys));
# a 128^3 grid fits.
MAX_GRID_POINTS = 2 ** 21


def _parse_grid(text, dim=1):
    """The axis of a lo:hi:step grid, refused before allocation when
    non-finite or when its dim-fold product exceeds MAX_GRID_POINTS."""
    try:
        lo, hi, step = (float(v) for v in text.split(":"))
    except ValueError:
        raise BadShape(f"--grid expects lo:hi:step, got {text!r}")
    if not all(math.isfinite(v) for v in (lo, hi, step)):
        raise BadShape(f"grid {text!r} must be finite")
    if step <= 0 or hi < lo:
        raise BadShape(f"bad grid {text!r}")
    span = (hi - lo) / step + 1e-9
    if not span < MAX_GRID_POINTS or (math.floor(span) + 1) ** dim > MAX_GRID_POINTS:
        raise BadShape(f"grid {text!r} in dimension {dim} has more than "
                       f"{MAX_GRID_POINTS} points")
    return lo + step * np.arange(math.floor(span) + 1)


def _load_points(args, dim):
    """Evaluation points as a finite (k, dim) float array."""
    if args.points is not None:
        try:
            X = np.array(load_json(args.points), dtype=float)
        except (ValueError, TypeError, OverflowError):
            raise BadShape("--points must be a list of finite points of equal dimension")
        if X.ndim == 1:
            X = X.reshape(-1, 1) if X.size else X.reshape(0, dim)
    else:
        axis = _parse_grid(args.grid, dim)
        mesh = np.meshgrid(*([axis] * dim), indexing="ij")
        X = np.stack([m.ravel() for m in mesh], axis=1)
    if X.ndim != 2 or X.shape[1] != dim:
        raise BadShape(f"points have shape {X.shape}, operator wants dim {dim}")
    bad = ~np.isfinite(X).all(axis=1)
    if bad.any():
        raise BadShape(f"point {X[np.argmax(bad)].tolist()} is not finite")
    return X


def cmd_eval(args):
    endo = endo_from_json(load_json(args.endo))
    fn = fn_from_json(load_json(args.fn))
    X = _load_points(args, endo.n)
    write_eval_csv(args.out, X, endo.eval_many(fn, X), endo.n)
    return 0


def cmd_check(args):
    if args.suite not in SUITES:
        raise BadShape(f"unknown suite {args.suite!r}; choose from {sorted(SUITES)}")
    rep = run_suite(args.suite, seed=args.seed, trials=args.trials)
    for line in rep.lines():
        print(line)
    if rep.passed:
        print(f"suite {args.suite}: all properties hold (seed={args.seed})")
        return 0
    dump = rep.counterexamples()
    if args.out:
        dump_json(dump, args.out)
        print(f"suite {args.suite}: FAILED; counterexamples written to {args.out}")
    else:
        print(f"suite {args.suite}: FAILED; counterexamples follow")
        print(json.dumps(dump, indent=1, sort_keys=True, default=str))
    return 1


def _load_1d_endo(args):
    endo = endo_from_json(load_json(args.endo))
    if endo.n != 1:
        raise BadShape("kernel commands need a one-dimensional operator")
    return endo


def cmd_kernel_extract(args):
    endo = _load_1d_endo(args)
    xs = _parse_grid(args.grid_x) if args.grid_x is not None else np.linspace(-1.0, 1.0, 201)
    ys = _parse_grid(args.grid_y) if args.grid_y is not None else np.linspace(-6.0, 6.0, 201)
    if xs.size * ys.size > MAX_GRID_POINTS:
        raise BadShape(f"a {xs.size} x {ys.size} kernel table has more than "
                       f"{MAX_GRID_POINTS} nodes")
    gxs, gys, vals = kernel_extract(endo, xs, ys).grid
    write_kernel_csv(args.out, gxs, gys, vals)
    return 0


def cmd_kernel_roundtrip(args):
    """Extract the kernel exactly, decompose it and re-evaluate against the
    operator; the worst deviation is nan if one is."""
    endo = _load_1d_endo(args)
    try:
        a_lo, a_hi = (float(v) for v in args.A.split(":"))
    except ValueError:
        raise BadShape(f"--A expects lo:hi, got {args.A!r}")
    live = kernel_extract_live(endo, (a_lo - 0.2, a_hi + 0.2, -(2 * args.R), 2 * args.R))
    d = kernel_decompose(live, (a_lo, a_hi), args.R)
    worst = 0.0
    for dev, _, _ in kernel_roundtrip_trials(d, endo, rand.rng_from_seed(args.seed), args.trials):
        if worst == worst and not dev <= worst:  # as SuiteReport.worst: the first nan is worst
            worst = dev
    print(f"kernel roundtrip: trials={args.trials} max_deviation={worst:.3e}")
    if args.out:  # a non-finite deviation crosses the wire as "nan" or "inf"
        dump_json({"trials": args.trials, "seed": args.seed,
                   "max_deviation": worst if math.isfinite(worst) else str(worst)}, args.out)
    if args.tol is not None and not worst <= args.tol:
        print(f"deviation exceeds --tol {args.tol}", file=sys.stderr)
        return 1
    return 0


def build_parser():
    p = argparse.ArgumentParser(
        prog="convendo",
        description="evaluate additive operators on convex functions, run "
                    "property suites, and export operator kernels")
    sub = p.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval", help="evaluate an operator on sample points")
    pe.add_argument("--endo", required=True, help="operator descriptor (JSON)")
    pe.add_argument("--fn", required=True, help="function descriptor (JSON)")
    where = pe.add_mutually_exclusive_group(required=True)
    where.add_argument("--points", help="JSON file with a list of points")
    where.add_argument("--grid", help="lo:hi:step per-axis grid")
    pe.add_argument("--out", required=True, help="CSV output path")
    pe.set_defaults(func=cmd_eval)

    pc = sub.add_parser("check", help="run a property suite")
    pc.add_argument("--suite", required=True)
    pc.add_argument("--seed", type=int, default=0)
    pc.add_argument("--trials", type=int, default=None)
    pc.add_argument("--out", help="counterexample dump path (JSON)")
    pc.set_defaults(func=cmd_check)

    pk = sub.add_parser("kernel", help="extract or round-trip a 1D kernel")
    actions = pk.add_subparsers(dest="action", required=True)
    px = actions.add_parser("extract", help="tabulate psi(x, y) to CSV")
    px.add_argument("--endo", required=True)
    px.add_argument("--grid-x", help="lo:hi:step extraction grid in x")
    px.add_argument("--grid-y", help="lo:hi:step extraction grid in y")
    px.add_argument("--out", required=True, help="CSV output path")
    px.set_defaults(func=cmd_kernel_extract)

    pr = actions.add_parser("roundtrip", help="re-evaluate the operator from its "
                                              "tail decomposition")
    pr.add_argument("--endo", required=True)
    pr.add_argument("--A", default="-1:1", help="decomposition interval lo:hi")
    pr.add_argument("--R", type=float, default=4.0, help="decomposition radius")
    pr.add_argument("--out", help="JSON report path")
    pr.add_argument("--seed", type=int, default=0)
    pr.add_argument("--trials", type=int, default=100)
    pr.add_argument("--tol", type=float, default=None,
                    help="fail the roundtrip when the deviation exceeds this")
    pr.set_defaults(func=cmd_kernel_roundtrip)
    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if (getattr(args, "trials", None) or 0) < 0:
            raise BadShape(f"--trials must be non-negative, got {args.trials}")
        return args.func(args)
    except (BadShape, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ConvendoError as exc:
        print(f"evaluation error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
