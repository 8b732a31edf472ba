"""suite_check: ``convendo check`` in-process for every suite at its default
trial count.

The suites reach the same layers as the other workloads, but through many
single-point scalar calls with the probes on top, so a batch path that
taxes one-point calls, or added validation cost, shows here. The seed of
the suites is drawn from the benchmark seed.
"""

import re

import refs
from common import Op, cli

SUITES = ("core", "gl", "radial", "kernel")
TINY_TRIALS = 4
TRIALS = re.compile(r"^(PASS|FAIL) \S+: trials=(\d+) ")


def _trials(text):
    return sum(int(m.group(2)) for m in map(TRIALS.match, text.splitlines()) if m)


def _check(suite, seed, out):
    rc, text = out
    want = f"suite {suite}: all properties hold (seed={seed})"
    lines = text.strip().splitlines()
    if rc != 0 or not lines or lines[-1] != want:
        failing = [ln for ln in lines if ln.startswith("FAIL")]
        raise refs.Mismatch(f"suite_check {suite}", f"seed {seed}",
                            f"exit {rc}: {failing or lines[-1:]}", want)


def setup(C, rng, out_dir, size):
    ops = []
    for suite in SUITES:
        seed = int(rng.integers(2 ** 31))
        argv = ["check", "--suite", suite, "--seed", str(seed)]
        if size == "tiny":
            argv += ["--trials", str(TINY_TRIALS)]
        ops.append(Op(f"check {suite} seed={seed}", lambda out: _trials(out[1]),
                      lambda argv=argv: cli(C, argv),
                      lambda out, suite=suite, seed=seed: _check(suite, seed, out)))
    return ops
