"""The suite's own pytest settings: a failing hypothesis test is reported as one failure, and one module runs alone.

``pyproject.toml`` turns every warning into an error.  Hypothesis imports
libcst to write a failing test's report, and that import warns; unless the
warning is let through, the report itself raises, pytest stops with an
INTERNALERROR and the tests after the failing one never run.  It also puts
``src`` on the import path, so a test module run on its own imports the
package without an install.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"

_TESTS = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
"""


def test_failing_hypothesis_test_does_not_end_the_session(tmp_path):
    (tmp_path / "test_sample.py").write_text(_TESTS)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_sample.py"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
    )
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout.splitlines()[-1]


def test_one_test_module_runs_alone_without_pythonpath():
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "tests/test_metrics.py"],
        capture_output=True, text=True, cwd=ROOT, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert " passed" in result.stdout.splitlines()[-1]
