"""Steadiness of the benchmark: run workloads repeatedly, one seed per run.

    python3 benchmarks/steady.py --workload grid_nd --seeds 0-9 --seconds 30
    python3 benchmarks/steady.py --workload grid_nd --seeds 10-19 --seconds 30 \\
        --against .bench_out/steady-grid_nd-0-9.json

Each run is a separate process, one after the other. For every end-to-end
metric the script prints the median, the quartiles (``statistics.quantiles``
with n=4) and their distance as a share of the median, next to the metric's
bound in ``BENCHMARK.json``. With ``--against`` it also prints how far each
median moved from an earlier summary, in the metric's worse direction.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds_from(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def summarize(results, spec):
    rows = {}
    for m in spec:
        vals = [r["metrics"][m["name"]]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        rows[m["name"]] = {"values": vals, "median": med, "q1": q1, "q3": q3,
                           "spread": (q3 - q1) / med if med else 0.0}
    return rows


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--seeds", default="0-9", help="lo-hi, inclusive")
    p.add_argument("--seconds", type=float, default=None,
                   help="run length (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--against", help="earlier summary JSON to compare medians with")
    args = p.parse_args(argv)

    bench = json.loads((Path.cwd() / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    spec = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    seeds = seeds_from(args.seeds)
    earlier = json.loads(Path(args.against).read_text()) if args.against else {}
    out_dir = Path.cwd() / ".bench_out"
    out_dir.mkdir(exist_ok=True)

    for workload in args.workload:
        results = []
        for seed in seeds:
            results.append(run_once(workload, seed, seconds, args.trace))
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in results[-1]["metrics"].items()),
                flush=True)
        rows = summarize(results, spec)
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        print(f"\n{workload}: {len(seeds)} runs of {seconds:g} s, "
              f"all correct: {all(r['correct'] for r in results)}, "
              f"failed {failed} of {attempted} calls")
        print(f"{'metric':40s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} "
              f"{'bound':>6s}")
        for m in spec:
            r = rows[m["name"]]
            bound = m.get("bound")
            line = (f"{m['name']:40s} {r['median']:12.6g} {r['q1']:12.6g} {r['q3']:12.6g} "
                    f"{r['spread']:8.4f} {bound if bound is not None else '':>6}")
            if bound is not None:
                line += ("  ok" if r["spread"] < bound / 3 else
                         "  WIDE" if r["spread"] >= bound else "  near")
            old = earlier.get(m["name"])
            if old:
                sign = 1.0 if m["better"] == "lower" else -1.0
                worse = sign * (r["median"] - old["median"]) / old["median"]
                line += f"  worse by {worse:+.4f} vs earlier"
            print(line)
        summary = out_dir / f"steady-{workload}-{args.seeds}{'-trace' if args.trace else ''}.json"
        summary.write_text(json.dumps(rows, indent=1))
        print(f"summary written to {summary}\n")


if __name__ == "__main__":
    main()
