import math
from pathlib import Path

import pytest

from convendo.cli import main
from convendo.suites import SuiteReport, run_suite

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name,trials", [
    ("core", 150), ("gl", 60), ("radial", 60), ("kernel", 40)])
def test_suite_passes(name, trials):
    rep = run_suite(name, seed=2024, trials=trials)
    failing = [r.line() for r in rep.results if not r.passed]
    assert rep.passed, failing


def test_suite_deterministic():
    a = run_suite("gl", seed=99, trials=20)
    b = run_suite("gl", seed=99, trials=20)
    assert [r.max_error for r in a.results] == [r.max_error for r in b.results]


def test_unknown_suite_raises():
    with pytest.raises(KeyError):
        run_suite("bogus")


@pytest.mark.parametrize("name", ["core", "gl", "radial", "kernel"])
def test_check_output_matches_golden(name, capsys):
    """Seeded ``convendo check`` output is pinned byte for byte; a faster
    evaluation path must not change a verdict, a count or a printed error."""
    assert main(["check", "--suite", name, "--seed", "5", "--trials", "8"]) == 0
    want = (GOLDEN / f"check_{name}_seed5_trials8.txt").read_text()
    assert capsys.readouterr().out == want


def test_a_nan_error_fails_the_property_and_stays_the_worst():
    rep = SuiteReport("x", 0)
    rep.worst("p", 1e-9, 2, iter([(math.nan, lambda: {"draw": 0}), (0.0, lambda: {"draw": 1}),
                                  (5.0, lambda: {"draw": 2}), (math.nan, lambda: {"draw": 3})]))
    assert rep.lines() == ["FAIL p: trials=2 max_error=nan"]
    assert rep.results[0].counterexample == {"draw": 0}
    rep.worst("q", 1e-9, 2, iter([(0.0, lambda: {"draw": 0}), (1e-12, lambda: {"draw": 1})]))
    assert rep.lines()[1] == "PASS q: trials=2 max_error=1.000e-12"
    assert rep.results[1].counterexample is None
