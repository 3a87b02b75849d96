"""The repository's pytest settings keep the report of a failing property test."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

FAILING_PROPERTY = """
from hypothesis import given
from hypothesis import strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 5
"""


def test_a_failing_hypothesis_test_prints_its_falsifying_example(tmp_path):
    # hypothesis's failure report imports libcst, which can warn through
    # mypy_extensions; under error::DeprecationWarning that warning used to end
    # the run with INTERNALERROR (exit 3) before any example was printed
    (tmp_path / "test_failing_property.py").write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "test_failing_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    output = run.stdout + run.stderr
    assert run.returncode == 1, output
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output
