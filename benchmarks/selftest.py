"""Self-test of the benchmark at a tiny size; run from the repository root.

    python3 benchmarks/selftest.py

1. Every workload, untraced and traced, exits 0 and prints one JSON line
   with exactly the metrics that ``BENCHMARK.json`` names.
2. Outside a source checkout (only ``BENCHMARK.json`` and the benchmark's
   own files) the command exits non-zero without printing a result.
3. The checks are live: with one library function made slightly wrong,
   every workload reports a mismatch.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

ROOT = Path.cwd()


def bench_cmd(workload, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec, spec["command"] + ["--workload", workload, "--seed", "1", "--seconds", "1",
                                    "--trace", str(trace), "--size", "tiny"]


def check_output(workload, trace):
    spec, cmd = bench_cmd(workload, trace)
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    want = spec["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in want], list(result["metrics"])
    for m in want:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and math.isfinite(got["value"]), (m, got)
        if not trace:
            assert got["value"] > 0, (m, got)


def check_bare_directory():
    bare = ROOT / ".bench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for p in spec["paths"]:
        shutil.copytree(ROOT / p, bare / p, ignore=shutil.ignore_patterns("__pycache__"))
    try:
        _, cmd = bench_cmd("grid_nd", 0)
        proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
        assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def _shift_values(C, fn):
    """fn with every value of its PwlFunction result raised by 1e-9."""
    def wrong(*args):
        f = fn(*args)
        return C.pwl.PwlFunction(f.breakpoints, [v + 1e-9 for v in f.values],
                                 f.slope_left, f.slope_right, slopes=f.slopes)
    return wrong


def _scale_csv(fn):
    def wrong(path, points, values, n):
        return fn(path, points, [v * (1.0 + 1e-7) for v in values], n)
    return wrong


MUTATIONS = {
    "grid_nd": ("cli", "write_eval_csv", lambda C, fn: _scale_csv(fn)),
    "exact_1d": ("pwl", "legendre", _shift_values),
    "suite_check": ("suites", "pwl_add", _shift_values),
}


def check_mutation(workload):
    out_dir = ROOT / ".bench_out" / f"selftest-{workload}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        C, ops = run.set_up(workload, ROOT / "src", 1, out_dir, "tiny")
        module, name, make = MUTATIONS[workload]
        owner = getattr(C, module)
        orig = getattr(owner, name)
        setattr(owner, name, make(C, orig))
        try:
            _, outputs = run.run_round(ops, {})
        finally:
            setattr(owner, name, orig)
        assert run.check_round(workload, ops, outputs), f"{module}.{name} mutated, no mismatch"
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def main():
    tests = [(f"{w} trace={t}", check_output, (w, t)) for w in run.WORKLOADS for t in (0, 1)]
    tests.append(("bare directory", check_bare_directory, ()))
    tests += [(f"{w} mutation", check_mutation, (w,)) for w in run.WORKLOADS]
    failed = 0
    for name, fn, args in tests:
        try:
            fn(*args)
            print(f"PASS {name}", flush=True)
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {name}: {exc}", flush=True)
    print(f"{len(tests) - failed} of {len(tests)} self-tests passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
