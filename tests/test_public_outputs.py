"""Public outputs against pinned goldens.

The demos' stdout, the ``convendo eval`` CSVs of ``gl`` (a grid with
interior, exterior and boundary points, and a file of boundary points) and
``scale_compose`` inputs, the ``convendo kernel extract`` CSV of a 1-D ``gl``
operator and the ``convendo kernel roundtrip`` stdout and ``--out`` JSON of a
1-D ``gl`` and a ``phi_example`` operator must stay byte-identical to the
files in tests/golden/. The radial CSV is checked against the per-point
reference in tests/test_batch.py instead.
"""

import contextlib
import io
import json
import runpy
from pathlib import Path

import numpy as np
import pytest

from convendo.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).parent / "golden"
DEMOS = sorted((ROOT / "demos").glob("*.py"))

BALL_TREE2 = {"kind": "sum", "terms": [
    {"kind": "max", "terms": [{"kind": "quad", "c": 0.5},
                              {"kind": "affine", "a": [0.3, -0.4], "b": 0.1}]},
    {"kind": "ball_indicator", "r": 1.5}]}
RAY_TREE2 = {"kind": "sum", "terms": [
    {"kind": "pwl1d", "direction": [0.6, 0.8],
     "pwl": {"kind": "pwl", "breakpoints": [0.0], "values": [0.0],
             "slope_left": -1.0, "slope_right": 2.0}},
    {"kind": "ball_indicator", "r": 3.0}]}
GL2 = {"kind": "gl", "c": 0.7, "nu": {"atoms": [{"s": 1.0, "w": 1.0}, {"s": -0.5, "w": 0.25}]},
       "n": 2}
GL2_WIDE = {"kind": "gl", "c": 0.7, "nu": {"atoms": [{"s": 1.5, "w": 1.0}, {"s": -0.5, "w": 2.0}]},
            "n": 2}
ANGLES = np.linspace(0.0, 2.0 * np.pi, 9)[:-1]
# |x| = 2 is the boundary of GL2_WIDE on RAY_TREE2; the rest are the origin,
# interior and exterior points
BOUNDARY_POINTS = ([[0.0, 0.0], [0.3, 0.4], [2.0, 2.0], [1.2, 1.6]]
                   + (2.0 * np.stack([np.cos(ANGLES), np.sin(ANGLES)], axis=1)).tolist())
SCALE_COMPOSE2 = {"kind": "scale_compose", "lambda": 2.0, "mu": -1.5, "n": 2}

GL1 = {"kind": "gl", "c": 1.0, "nu": {"atoms": [{"s": 1.0, "w": 1.0}, {"s": -0.5, "w": 2.0}]},
       "n": 1}
PHI = {"kind": "phi_example", "phi": {"kind": "pwl", "breakpoints": [-0.5, 0.0, 0.5],
                                      "values": [1.25, 1.0, 1.25],
                                      "slope_left": -0.75, "slope_right": 0.75}}
ROUNDTRIP_CASES = {"gl1": GL1, "phi": PHI}

EVAL_CASES = {
    "gl2_grid": (GL2, BALL_TREE2, "--grid=-2:2:0.25"),
    "gl2_boundary_points": (GL2_WIDE, RAY_TREE2, BOUNDARY_POINTS),
    "scale_compose2_grid": (SCALE_COMPOSE2, BALL_TREE2, "--grid=-1.5:1.5:0.25"),
}


def eval_csv(tmp_path, name, endo, fn, where):
    """Run ``convendo eval`` and return the CSV text."""
    paths = {}
    for key, obj in (("endo", endo), ("fn", fn), ("points", where)):
        paths[key] = tmp_path / f"{name}.{key}.json"
        paths[key].write_text(json.dumps(obj))
    out = tmp_path / f"{name}.csv"
    argv = ["eval", "--endo", str(paths["endo"]), "--fn", str(paths["fn"]), "--out", str(out)]
    argv += [where] if isinstance(where, str) else ["--points", str(paths["points"])]
    assert main(argv) == 0
    return out.read_text()


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_stdout_matches_golden(demo, capsys):
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out == (GOLDEN / f"demo_{demo.stem}.txt").read_text()


@pytest.mark.parametrize("name", sorted(EVAL_CASES))
def test_eval_csv_matches_golden(name, tmp_path):
    text = eval_csv(tmp_path, name, *EVAL_CASES[name])
    assert text == (GOLDEN / f"eval_{name}.csv").read_text()


def test_kernel_extract_csv_matches_golden(tmp_path):
    endo, out = tmp_path / "gl1.json", tmp_path / "gl1.csv"
    endo.write_text(json.dumps(GL1))
    assert main(["kernel", "extract", "--endo", str(endo), "--grid-x=-1:1:0.25",
                 "--grid-y=-3:3:0.5", "--out", str(out)]) == 0
    assert out.read_text() == (GOLDEN / "kernel_extract_gl1.csv").read_text()


@pytest.mark.parametrize("name", sorted(ROUNDTRIP_CASES))
def test_kernel_roundtrip_matches_golden(name, tmp_path):
    endo, out = tmp_path / f"{name}.json", tmp_path / "rt.json"
    endo.write_text(json.dumps(ROUNDTRIP_CASES[name]))
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        rc = main(["kernel", "roundtrip", "--endo", str(endo), "--seed", "3",
                   "--trials", "50", "--out", str(out)])
    assert rc == 0
    text = stdout.getvalue() + out.read_text() + "\n"
    assert text == (GOLDEN / f"kernel_roundtrip_{name}.txt").read_text()
