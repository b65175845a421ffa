"""Each script under scripts/ imports and parses its arguments against the package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def test_scripts_are_found():
    assert SCRIPTS


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_help_exits_cleanly(script):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, str(script), "--help"], capture_output=True, text=True, env=env, cwd=ROOT, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert "Traceback" not in result.stderr + result.stdout
    assert "usage:" in result.stdout
