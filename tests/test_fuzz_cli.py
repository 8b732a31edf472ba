"""Random and garbled JSON descriptors through ``convendo eval`` and
``convendo kernel extract``: every run ends in a documented exit code
(0, 1, 2 or 3), raises nothing and writes no ``nan`` to its CSV."""

import copy
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from convendo.cli import main

PWL = {"kind": "pwl", "breakpoints": [-0.5, 0.5], "values": [0.5, 0.5],
       "slope_left": -1.0, "slope_right": 1.0}
FUNCTIONS = [
    {"kind": "quad", "c": 1.0},
    PWL,
    {"kind": "pwl", "breakpoints": [-1.0, 1.0], "values": [0.0, 0.0],
     "slope_left": "-inf", "slope_right": "inf"},
    {"kind": "affine", "a": [1.0], "b": 0.5},
    {"kind": "norm", "c": 2.0},
    {"kind": "ball_indicator", "r": 1.5},
    {"kind": "pwl1d", "pwl": PWL, "direction": [1.0]},
    {"kind": "sum", "terms": [{"kind": "quad", "c": 1.0}, {"kind": "norm", "c": 0.5}]},
    {"kind": "max", "terms": [{"kind": "affine", "a": [1.0], "b": 0.0},
                              {"kind": "affine", "a": [-1.0], "b": 0.0}]},
    {"kind": "scale", "lambda": 2.0, "term": {"kind": "quad", "c": 1.0}},
    {"kind": "precompose", "matrix": [[2.0]], "term": {"kind": "norm", "c": 1.0}},
]
GRID_KERNEL = {"kind": "kernel", "A": [-1.0, 1.0], "R": 1.0,
               "psi": {"kind": "grid", "xs": [-1.0, 0.0, 1.0], "ys": [-2.0, -1.0, 0.0, 1.0, 2.0],
                       "values": [[0.0, 0.0, 0.0, 1.0, 2.0], [0.0, 0.0, 0.0, 0.0, 1.0],
                                  [1.0, 0.0, 0.0, 0.0, 1.0]]}}
OPERATORS_1D = [
    {"kind": "gl", "c": 0.5, "n": 1, "nu": {"atoms": [{"s": 1.0, "w": 1.0},
                                                      {"s": -0.5, "w": 0.25}]}},
    {"kind": "scale_compose", "lambda": 2.0, "mu": -1.5, "n": 1},
    {"kind": "phi_example", "phi": {"kind": "pwl", "breakpoints": [0.0], "values": [1.0],
                                    "slope_left": -1.0, "slope_right": 1.0}},
    {"kind": "ma_example", "g": PWL, "zeta": {"kind": "hat", "radius": 1.0}},
    GRID_KERNEL,
]
OPERATORS = OPERATORS_1D + [
    {"kind": "gl", "c": 0.0, "n": 2, "nu": {"atoms": [{"s": 2.0, "w": 1.0}]}},
    {"kind": "radial", "M": 8, "mu": {"n": 2, "atoms": [{"t": 1.0, "theta": 0.5, "w": 1.0}]}},
]
KEYS = sorted({k for d in FUNCTIONS + OPERATORS for k in d} | {"atoms", "s", "w", "xs", "ys"})

LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.integers(),
    st.floats(allow_nan=True, allow_infinity=True), st.floats(-3.0, 3.0),
    st.sampled_from(["inf", "-inf", "nan", "hat", "grid", "pwl", "gl", "", "1e400", 10 ** 400]))
JSON = st.recursive(
    LEAVES,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=2),
                                            inner, max_size=4)),
    max_leaves=10)


def _mutate(draw, node):
    """node with one of its leaves or subtrees replaced or deleted, or, one
    time in five at each level, replaced whole."""
    if isinstance(node, (dict, list)) and node and draw(st.integers(0, 4)):
        keys = sorted(node) if isinstance(node, dict) else list(range(len(node)))
        key = draw(st.sampled_from(keys))
        action = draw(st.sampled_from(["descend", "replace", "delete"]))
        if action == "delete":
            del node[key]
        else:
            node[key] = _mutate(draw, node[key]) if action == "descend" else draw(JSON)
        return node
    return draw(JSON)


@st.composite
def descriptors(draw, templates):
    """A template garbled one to three times, or a random JSON value."""
    if draw(st.integers(0, 5)) == 0:
        return draw(JSON), 1
    i = draw(st.integers(0, len(templates) - 1))
    node = copy.deepcopy(templates[i])
    for _ in range(draw(st.integers(0, 3))):
        node = _mutate(draw, node)
    return node, templates[i].get("n", 2 if templates[i]["kind"] == "radial" else 1)


def _run(argv_of, files, out):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        paths = {}
        for name, obj in files.items():
            paths[name] = str(tmp / f"{name}.json")
            Path(paths[name]).write_text(json.dumps(obj))
        csv = tmp / out
        rc = main(argv_of(paths, str(csv)))
        assert rc in (0, 1, 2, 3)
        if csv.exists():
            text = csv.read_text()
            assert rc == 0 and "nan" not in text.lower(), text


@settings(max_examples=300, deadline=None)
@given(descriptors(OPERATORS), descriptors(FUNCTIONS))
def test_eval_ends_in_an_exit_code(endo, fn):
    (endo, n), (fn, _) = endo, fn
    points = [[0.0] * n, [0.5] * n, [-1.0] + [0.25] * (n - 1)]
    _run(lambda p, out: ["eval", "--endo", p["endo"], "--fn", p["fn"],
                         "--points", p["points"], "--out", out],
         {"endo": endo, "fn": fn, "points": points}, "x.csv")


@settings(max_examples=200, deadline=None)
@given(descriptors(OPERATORS_1D))
def test_kernel_extract_ends_in_an_exit_code(endo):
    _run(lambda p, out: ["kernel", "extract", "--endo", p["endo"], "--grid-x=-1:1:0.5",
                         "--grid-y=-2:2:1", "--out", out],
         {"endo": endo[0]}, "k.csv")
