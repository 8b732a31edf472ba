"""Write the outputs that two checkouts of convendo must agree on, byte for byte.

    python3 tools/same_results.py OUTDIR

For the checkout this script lives in (its ``src/`` goes on the import
path), OUTDIR receives:

* the standard output of ``convendo check`` for the core, gl, radial and
  kernel suites at seeds 0, 7 and 123 with the default trial counts
  (``check_<suite>_seed<seed>.txt``);
* the standard output of each script in ``demos/`` (``demo_<name>.txt``);
* one full-size round of the grid_nd and exact_1d benchmark workloads at
  seeds 0 and 5, set up and run by ``set_up`` and ``run_round`` of
  ``benchmarks/run.py`` (``round_<workload>_seed<seed>.txt``): every float
  each operation returned, by ``float.hex``, and the SHA-256 of every file
  the round wrote;
* the JSON descriptors the serializer writes (``serialize.txt``): ``fn_to_json``
  of seeded ``random_finite_expr`` (n = 1, 2, 3) and ``random_convex_pwl``
  draws, and ``fn_to_json(fn_from_json(d))`` and ``endo_to_json(endo_from_json(d))``
  of one template of every function and operator kind, each by
  ``json.dumps(..., sort_keys=True)`` or the error it raised;
* every field of the exact 1-D operations (``pwl.txt``): ``legendre``,
  ``monge_ampere`` and ``pwl_scale`` of each input, and ``pwl_add``,
  ``pwl_max`` and ``inf_convolve`` of each input with the next one and with
  itself, by ``float.hex`` or the error raised, and ``eval_many`` of each
  input at its breakpoints, their neighbouring floats, +-0.0, +-inf and
  +-1.7e308. The inputs are seeded
  ``random_convex_pwl`` draws at k = 1..8, truncated and point-indicator
  functions, and copies of all of them scaled by 2^40 and 2^-40.

Run it once per checkout and compare the two directories with
``diff -r OUT_A OUT_B``.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SUITES = ("core", "gl", "radial", "kernel")
SEEDS = (0, 7, 123)
ROUND_WORKLOADS = ("grid_nd", "exact_1d")
ROUND_SEEDS = (0, 5)
DRAWS = 60  # per kind of random draw
PWL_DRAWS = 6  # per breakpoint count of random_convex_pwl

PWL = {"kind": "pwl", "breakpoints": [-1.0, 0.0, 1.0], "values": [1.0, 0.0, 1.0],
       "slope_left": -2.0, "slope_right": "inf"}
QUAD = {"kind": "quad", "c": 2.0}
FUNCTION_TEMPLATES = [
    PWL, {"kind": "affine", "a": [1.0, -2.0], "b": 0.5}, QUAD, {"kind": "norm", "c": 1.5},
    {"kind": "ball_indicator", "r": 2.0},
    {"kind": "pwl1d", "direction": [0.6, 0.8], "pwl": PWL},
    {"kind": "sum", "terms": [QUAD, {"kind": "norm", "c": 1.5}]},
    {"kind": "max", "terms": [QUAD, {"kind": "affine", "a": [0.0, 1.0], "b": -1.0}]},
    {"kind": "scale", "lambda": 0.5, "term": QUAD},
    {"kind": "precompose", "matrix": [[2.0, 0.0], [1.0, 1.0]], "term": QUAD},
]
OPERATOR_TEMPLATES = [
    {"kind": "gl", "c": 1.5, "nu": {"atoms": [{"s": -1.0, "w": 2.0}, {"s": 0.5, "w": 1.0}]},
     "n": 3},
    {"kind": "scale_compose", "lambda": 2.0, "mu": -1.0, "n": 2},
    {"kind": "radial", "mu": {"n": 3, "atoms": [{"t": 1.0, "theta": 0.1, "w": 1.0}]}, "M": 16},
    {"kind": "phi_example", "phi": {**PWL, "slope_right": 2.0}},
    {"kind": "ma_example", "g": {**PWL, "slope_right": 2.0},
     "zeta": {"kind": "hat", "radius": 1.0}},
    {"kind": "kernel", "A": [-1.0, 1.0], "R": 2.0,  # the kernel of f -> f, (y - x)_+
     "psi": {"kind": "grid", "xs": [-1.0, 0.0, 1.0], "ys": [-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0],
             "values": [[0.0, 0.0, 0.0, 1.0, 2.0, 3.0, 4.0], [0.0, 0.0, 0.0, 0.0, 1.0, 2.0, 3.0],
                        [0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 2.0]]}},
]


def _stdout(argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    return subprocess.run([sys.executable] + argv, cwd=ROOT, env=env,
                          capture_output=True, text=True).stdout


def _hexed(obj):
    """obj with every float written by ``float.hex``: containers and arrays
    element by element, other objects field by field, errors by message."""
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, (bool, int, str)) or obj is None:
        return obj
    if isinstance(obj, BaseException):
        return f"{type(obj).__name__}: {obj}"
    if hasattr(obj, "tolist"):  # numpy arrays and scalars
        return _hexed(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return [_hexed(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): _hexed(v) for k, v in obj.items()}
    fields = getattr(type(obj), "__slots__", None) or sorted(vars(obj))
    return {type(obj).__name__: {name: _hexed(getattr(obj, name)) for name in fields}}


def _round_lines(bench, workload, seed):
    """One full-size round of a workload: its outputs, then its files' hashes."""
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp)
        _, ops = bench.set_up(workload, ROOT / "src", seed, out_dir, "full")
        _, outputs = bench.run_round(ops, {})
        lines = [f"{op.label}: {json.dumps(_hexed(got))}" for op, got in zip(ops, outputs)]
        lines += [f"{path.name} sha256={hashlib.sha256(path.read_bytes()).hexdigest()}"
                  for path in sorted(out_dir.iterdir())]
    return lines


def _serializer_lines():
    """The descriptors of seeded draws and the round trips of the templates."""
    sys.path.insert(0, str(ROOT / "src"))
    from convendo import rand, serialize

    def dumped(make):
        try:
            return json.dumps(make(), sort_keys=True)
        except Exception as exc:
            return f"{type(exc).__name__}: {exc}"

    rng = rand.rng_from_seed(0)
    draws = [(f"expr n={n}", lambda n=n: rand.random_finite_expr(rng, n))
             for n in (1, 2, 3)] + [("pwl", lambda: rand.random_convex_pwl(rng))]
    lines = [f"{name}: {dumped(lambda: serialize.fn_to_json(draw()))}"
             for name, draw in draws for _ in range(DRAWS)]
    lines += [f"{d['kind']}: {dumped(lambda: serialize.fn_to_json(serialize.fn_from_json(d)))}"
              for d in FUNCTION_TEMPLATES]
    lines += [f"{d['kind']}: {dumped(lambda: serialize.endo_to_json(serialize.endo_from_json(d)))}"
              for d in OPERATOR_TEMPLATES]
    return lines


def _pwl_lines():
    """The exact 1-D operations on seeded small inputs, field by field."""
    sys.path.insert(0, str(ROOT / "src"))
    from convendo import ConvendoError, kernel1d, pwl, rand

    def run(make):
        try:
            return json.dumps(_hexed(make()))
        except Exception as exc:
            return json.dumps(_hexed(exc))

    rng = rand.rng_from_seed(0)
    base = [rand.random_convex_pwl(rng, max_breaks=k) for k in range(1, 9)
            for _ in range(PWL_DRAWS)]
    base += [pwl.pwl_indicator(-1.0, 2.0), pwl.pwl_indicator(0.5, 0.5),
             pwl.PwlFunction([-1.0, 0.0, 1.5], [1.0, -0.0, 2.0], -pwl.INF, 3.0),
             pwl.PwlFunction([-2.0, 0.5], [0.0, 0.0], -1.0, pwl.INF),
             pwl.pwl_abs(), pwl.pwl_linear(0.5, -1.0)]
    lines, inputs = [], []
    for c in (1.0, 2.0 ** 40, 2.0 ** -40):
        for f in base:  # the smallest copies merge breakpoints, dropping given slopes
            data = ([c * b for b in f.breakpoints], [c * v for v in f.values],
                    f.slope_left, f.slope_right)
            lines.append(f"with slopes: {run(lambda: pwl.PwlFunction(*data, slopes=f.slopes))}")
            try:
                inputs.append(pwl.PwlFunction(*data))
            except ConvendoError as exc:
                lines.append(f"from values: {run(lambda: exc)}")
    ends = [0.0, -0.0, pwl.INF, -pwl.INF, 1.7e308, -1.7e308]
    for i, f in enumerate(inputs):
        xs = [y for b in f.breakpoints
              for y in (math.nextafter(b, -pwl.INF), b, math.nextafter(b, pwl.INF))] + ends
        lines += [f"input {i}: {run(lambda: f)}",
                  f"eval_many {i}: {run(lambda: f.eval_many(xs))}",
                  f"legendre {i}: {run(lambda: pwl.legendre(f))}",
                  f"monge_ampere {i}: {run(lambda: kernel1d.monge_ampere(f))}",
                  f"pwl_scale {i}: {run(lambda: pwl.pwl_scale(0.75, f))}"]
        for j, g in ((i + 1, inputs[(i + 1) % len(inputs)]), (i, f)):
            lines += [f"{op.__name__} {i} {j}: {run(lambda: op(f, g))}"
                      for op in (pwl.pwl_add, pwl.pwl_max, pwl.inf_convolve)]
    return lines


def main(argv):
    if len(argv) != 1:
        print("usage: python3 tools/same_results.py OUTDIR", file=sys.stderr)
        return 2
    out = Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    for suite in SUITES:
        for seed in SEEDS:
            text = _stdout(["-m", "convendo.cli", "check", "--suite", suite,
                            "--seed", str(seed)])
            (out / f"check_{suite}_seed{seed}.txt").write_text(text)
    for demo in sorted((ROOT / "demos").glob("*.py")):
        (out / f"demo_{demo.stem}.txt").write_text(_stdout([str(demo)]))
    (out / "serialize.txt").write_text("\n".join(_serializer_lines()) + "\n")
    (out / "pwl.txt").write_text("\n".join(_pwl_lines()) + "\n")
    # the harness pins the numerical libraries to one thread as it is imported
    sys.path.insert(0, str(ROOT / "benchmarks"))
    import run as bench
    for workload in ROUND_WORKLOADS:
        for seed in ROUND_SEEDS:
            lines = _round_lines(bench, workload, seed)
            (out / f"round_{workload}_seed{seed}.txt").write_text("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
