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
  the round wrote.

Run it once per checkout and compare the two directories with
``diff -r OUT_A OUT_B``.
"""

import hashlib
import json
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
