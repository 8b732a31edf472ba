from pathlib import Path

import pytest

from convendo.cli import main
from convendo.suites import run_suite

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
