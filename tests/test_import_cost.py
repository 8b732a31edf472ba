"""Importing the library pulls in no module beyond the few it needs.

The benchmark's set-up imports ``convendo`` and the modules of
``benchmarks/run.py`` afresh every time, so each standard module that
importing the library adds is paid again in every set-up.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# The top-level modules that importing the library adds once numpy is loaded.
ALLOWED = {"_json", "argparse", "convendo", "copy", "dataclasses", "gettext", "json"}

SCRIPT = """
import importlib, sys
import numpy
before = set(sys.modules)
for name in {names!r}:
    importlib.import_module(name)
print(sorted({{m.partition(".")[0] for m in set(sys.modules) - before}}))
"""


def _benchmark_modules():
    """The ``MODULES`` tuple of benchmarks/run.py, read without running it."""
    for node in ast.parse((ROOT / "benchmarks" / "run.py").read_text()).body:
        targets = [getattr(t, "id", None) for t in getattr(node, "targets", [])]
        if isinstance(node, ast.Assign) and targets == ["MODULES"]:
            return ast.literal_eval(node.value)
    raise AssertionError("benchmarks/run.py defines no MODULES")


def test_import_adds_only_the_allowed_top_level_modules():
    names = ["convendo"] + ["convendo." + m for m in _benchmark_modules()]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", SCRIPT.format(names=names)], env=env,
                         capture_output=True, text=True, check=True).stdout
    added = set(ast.literal_eval(out.strip().splitlines()[-1]))
    assert "convendo" in added
    assert added <= ALLOWED, sorted(added - ALLOWED)
