"""Layered benchmark of convendo: one workload per process, one thread.

    python3 benchmarks/run.py --workload grid_nd --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; ``src/`` goes on the import path and
``convendo.cli.main`` is called in-process, so nothing needs installing.
With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics, with ``--trace 1`` the per-layer metrics of one
extra traced round. Every output of the program is checked against the
benchmark's own reference; a mismatch is reported on standard error, makes
``correct`` false and the exit code 1.
"""

import os

# One thread for every numerical library, before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import refs  # noqa: E402
from common import OpFailed, items_done  # noqa: E402

WORKLOADS = ("grid_nd", "exact_1d", "suite_check")
MODULES = ("cli", "serialize", "expr", "measures", "radial", "gl", "pwl",
           "kernel1d", "probes", "suites", "rand")
SETUP_REPEATS = 7


def import_convendo(src):
    """Import the library afresh, dropping any copy imported before, so that
    every set-up repetition pays the import again."""
    for name in [m for m in sys.modules if m == "convendo" or m.startswith("convendo.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    importlib.import_module("convendo")
    return SimpleNamespace(**{m: importlib.import_module("convendo." + m) for m in MODULES})


def set_up(workload, src, seed, out_dir, size):
    """Import, parse descriptors, build operators and generate inputs."""
    C = import_convendo(src)
    module = importlib.import_module(workload)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return C, module.setup(C, rng, out_dir, size)


def run_round(ops, failures):
    """Run every operation once; returns (seconds, outputs)."""
    outputs = []
    t0 = time.perf_counter()
    for op in ops:
        try:
            outputs.append(op.run())
        except OpFailed as exc:
            outputs.append(exc)
        except Exception as exc:  # a crash of the program counts as a failed call
            outputs.append(OpFailed(f"{type(exc).__name__}: {exc}"))
    dt = time.perf_counter() - t0
    for op, out in zip(ops, outputs):
        if isinstance(out, OpFailed) and op.label not in failures:
            failures[op.label] = str(out)
            print(f"FAILED {op.label}: {out}", file=sys.stderr)
    return dt, outputs


def check_round(workload, ops, outputs):
    """Check every output that exists; returns the mismatch messages."""
    bad = []
    for op, out in zip(ops, outputs):
        if isinstance(out, OpFailed):
            continue
        try:
            op.check(out)
        except refs.Mismatch as exc:
            bad.append(f"MISMATCH workload={workload} input={op.label}: {exc}")
    return bad


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny runs a few points of each operation (self-test)")
    args = p.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "convendo" / "cli.py").is_file():
        print(f"benchmark: no convendo sources under {src}; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2
    out_dir = root / ".bench_out" / f"{args.workload}-{args.seed}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, src, out_dir, root / ".bench_out")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def measure(args, src, out_dir, keep_dir):
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        C, ops = set_up(args.workload, src, args.seed, out_dir, args.size)
        setups.append(time.perf_counter() - t0)

    failures, mismatches, rounds, rates = {}, [], [], []
    attempted = failed = 0
    t_start = time.perf_counter()
    while True:
        dt, outputs = run_round(ops, failures)
        items = sum(items_done(op, out) for op, out in zip(ops, outputs))
        rounds.append(dt)
        rates.append(items / dt)
        attempted += len(ops)
        failed += sum(isinstance(o, OpFailed) for o in outputs)
        mismatches += check_round(args.workload, ops, outputs)
        spent = time.perf_counter() - t_start
        if spent + statistics.median(rounds) > args.seconds:
            break
    base = statistics.median(rounds)

    if args.trace:
        from tracer import Tracer
        tracer = Tracer(C)
        with tracer:
            dt, outputs = run_round(ops, failures)
        attempted += len(ops)
        failed += sum(isinstance(o, OpFailed) for o in outputs)
        mismatches += check_round(args.workload, ops, outputs)
        metrics = tracer.metrics(traced_s=dt, untraced_s=base)
        tracer.write(keep_dir / f"trace-{args.workload}-{args.seed}", metrics)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "items_per_s": {"value": statistics.median(rates), "unit": "items/s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }

    for line in dict.fromkeys(mismatches):
        print(line, file=sys.stderr)
    print(f"{args.workload}: {len(rounds)} rounds of {len(ops)} calls, {items} items, "
          f"median round {base:.4f} s, set-up median {statistics.median(setups):.4f} s",
          file=sys.stderr)
    print(json.dumps({"correct": not mismatches, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
