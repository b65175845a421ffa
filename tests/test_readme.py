"""The README quick start runs as written and prints what the README says it prints.

The ``shockda`` lines of the first code block under "Quick start" and its
``python`` block are taken from the README text, so an edited flag, value
or statement that no longer matches the program fails here.
"""

import re
import shlex
from pathlib import Path

from shockda.harness.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _quick_start():
    """(argv of each ``shockda`` line, the python block, the stated compare line, the stated print)."""
    section = README.split("\n## Quick start\n", 1)[1].split("\n## ", 1)[0]
    commands = section.split("```\n", 2)[1].replace("\\\n", " ")
    argvs = [shlex.split(line)[1:] for line in commands.splitlines() if line.startswith("shockda ")]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    compare_line = re.search(r"`(mean over [^`]+)`", section).group(1)
    printed = re.search(r"This prints `([^`]+)`", section).group(1)
    return argvs, code, compare_line, printed


def test_quick_start_runs_and_prints_what_the_readme_states(tmp_path, monkeypatch, capsys):
    argvs, code, compare_line, printed = _quick_start()
    assert [argv[0] for argv in argvs] == ["assimilate", "assimilate", "compare"]
    monkeypatch.chdir(tmp_path)  # the README's paths are relative: runs/...

    for argv in argvs:
        assert main(argv) == 0, argv
    assert capsys.readouterr().out.splitlines()[-1] == compare_line

    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out == f"{printed}\n"
