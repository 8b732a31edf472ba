"""Pieces shared by the workloads: operations, CLI calls, input generators."""

import contextlib
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from refs import INF, Pwl


class OpFailed(Exception):
    """The program raised or exited with an error code on a valid input."""


@dataclass
class Op:
    """One public call of the program, timed as part of a round.

    ``run`` performs the call and returns its raw output; ``check`` compares
    that output with the benchmark's own reference and raises
    ``refs.Mismatch`` naming the input and the point. ``items`` is what the
    call contributes to ``items_per_s``: a number, or a function of the
    output when the program reports its own count.
    """

    label: str
    items: object
    run: callable
    check: callable


def items_done(op, out):
    if isinstance(out, OpFailed):
        return 0
    return op.items(out) if callable(op.items) else op.items


def cli(C, argv):
    """Call ``convendo.cli.main`` in-process; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = C.cli.main(argv)
    if rc not in (0, 1):
        raise OpFailed(f"convendo {' '.join(argv)} exited {rc}: {err.getvalue().strip()}")
    return rc, out.getvalue()


def cli_ok(C, argv):
    rc, out = cli(C, argv)
    if rc != 0:
        raise OpFailed(f"convendo {' '.join(argv)} exited {rc}")
    return out


def write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return str(path)


def grid_axis(lo, hi, step):
    """The documented grid semantics of ``--grid lo:hi:step``."""
    n = int(math.floor((hi - lo) / step + 1e-9)) + 1
    return lo + step * np.arange(n)


def convex_pwl(rng, k, span=3.0, slope_span=8.0, trunc_left=False,
               trunc_right=False):
    """Random convex piecewise-linear data with k >= 2 breakpoints on about
    [-span, span] and slopes spread over about slope_span.

    Gaps between breakpoints and between slopes stay within a factor of
    three of each other, so no two breakpoints of the input or of its
    conjugate come near the library's merge tolerance.
    """
    bp = np.concatenate([[0.0], np.cumsum(rng.uniform(0.5, 1.5, k - 1))])
    bp = -span + 2.0 * span * bp / bp[-1] + rng.uniform(-0.1, 0.1)
    sgaps = rng.uniform(0.5, 1.5, k)
    slopes = np.concatenate([[0.0], np.cumsum(sgaps)])
    slopes = slope_span * (slopes / slopes[-1] - 0.5) + rng.uniform(-0.25, 0.25)
    val = np.empty(k)
    val[0] = rng.uniform(-1.0, 1.0)
    val[1:] = val[0] + np.cumsum(slopes[1:-1] * np.diff(bp))
    if trunc_left:
        slopes[0] = -INF
    if trunc_right:
        slopes[-1] = INF
    return Pwl(bp, val, slopes)


def to_program(C, p):
    """The same data as a ``PwlFunction``, with its exact piece slopes."""
    return C.pwl.PwlFunction(p.bp, p.val, p.sl, p.sr, slopes=p.slopes[1:-1])
