"""The pytest settings in pyproject.toml let a session report a failing property."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

# a failing property, then a passing test that must still run
TWO_TESTS = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 5


def test_passes():
    pass
"""


def test_a_failing_property_does_not_end_the_session(tmp_path):
    (tmp_path / "test_two.py").write_text(TWO_TESTS, encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider",
         "-q", "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert run.stdout.splitlines()[-1].startswith("1 failed, 1 passed"), run.stdout
