"""The library names the benchmark reaches into exist.

``benchmarks/tracer.py`` wraps functions by name in a ``--trace 1`` round,
``benchmarks/selftest.py`` mutates one function per workload, and
``benchmarks/exact_1d.py`` calls the operators' ``as_endomap`` methods. A
deletion in the library that drops one of these breaks the benchmark, not
Tier-1, unless it is pinned here.
"""

import ast
import importlib
import importlib.util
from pathlib import Path
from types import SimpleNamespace

from convendo import GlEndo, MaEndo, PhiEndo
from test_import_cost import _benchmark_modules

BENCH = Path(__file__).resolve().parents[1] / "benchmarks"


def test_every_traced_name_exists():
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    C = SimpleNamespace(**{m: importlib.import_module("convendo." + m)
                           for m in _benchmark_modules()})
    for owner, attr, span, _ in tracer.targets(C):
        assert callable(getattr(owner, attr, None)), span


def test_every_mutated_name_exists():
    tree = ast.parse((BENCH / "selftest.py").read_text())
    (node,) = [n for n in tree.body if isinstance(n, ast.Assign)
               and [getattr(t, "id", None) for t in n.targets] == ["MUTATIONS"]]
    pairs = [(v.elts[0].value, v.elts[1].value) for v in node.value.values]
    assert pairs
    for module, name in pairs:
        assert callable(getattr(importlib.import_module("convendo." + module), name, None)), \
            (module, name)


def test_the_endomap_methods_exist():
    assert callable(GlEndo.as_endomap_1d)
    assert callable(PhiEndo.as_endomap) and callable(MaEndo.as_endomap)
