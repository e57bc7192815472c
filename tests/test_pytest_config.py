"""The repository's pytest settings: a failing property test is reported as
a failure, and the session goes on to the next test."""

import pathlib
import subprocess
import sys

import pytest

pytest.importorskip("hypothesis")

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, max_examples=5)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_after():
    pass
'''


def test_failing_property_test_is_a_failure_not_an_internal_error(tmp_path):
    # exit code 1 (tests failed), not 3 (internal error), and the test
    # after the failing one still runs
    (tmp_path / "test_failing.py").write_text(FAILING)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         str(tmp_path / "test_failing.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "1 failed, 1 passed" in proc.stdout
