"""Write the outputs that two checkouts of convendo must agree on, byte for byte.

    python3 tools/same_results.py OUTDIR

For the checkout this script lives in (its ``src/`` goes on the import
path), OUTDIR receives the standard output of ``convendo check`` for the
core, gl, radial and kernel suites at seeds 0, 7 and 123 with the default
trial counts (``check_<suite>_seed<seed>.txt``) and the standard output of
each script in ``demos/`` (``demo_<name>.txt``). Run it once per checkout
and compare the two directories with ``diff -r OUT_A OUT_B``.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SUITES = ("core", "gl", "radial", "kernel")
SEEDS = (0, 7, 123)


def _stdout(argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    return subprocess.run([sys.executable] + argv, cwd=ROOT, env=env,
                          capture_output=True, text=True).stdout


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
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
