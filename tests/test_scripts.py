"""Each script under scripts/ imports and parses its arguments against the package."""

import importlib.util
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def test_scripts_are_found():
    assert SCRIPTS


def _run_script(script, *args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, str(script), *args], capture_output=True, text=True, env=env, cwd=ROOT, timeout=120
    )


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_help_exits_cleanly(script):
    result = _run_script(script, "--help")
    assert result.returncode == 0, result.stderr
    assert "Traceback" not in result.stderr + result.stdout
    assert "usage:" in result.stdout


def _artifact_hashes():
    spec = importlib.util.spec_from_file_location("artifact_hashes", ROOT / "scripts" / "artifact_hashes.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_artifact_hashes_reports_the_drift_of_differing_csvs(tmp_path):
    script = _artifact_hashes()
    new, old = tmp_path / "new", tmp_path / "old"
    for root, value, label in ((new, "2.5", "b"), (old, "2", "a")):
        (root / "run").mkdir(parents=True)
        (root / "run" / "same.csv").write_text("t,h\n0,1\n")
        (root / "run" / "moved.csv").write_text(f"t,h,obs,name\n0,-4,,{label}\n1,{value},7,c\n")
    (new / "extra.csv").write_text("t\n0\n")

    assert script.column_drift(new / "run" / "moved.csv", old / "run" / "moved.csv") == {
        "t": 0.0, "h": 0.125, "obs": 0.0, "name": "text differs"}
    assert script.drift_report(new, old) == [
        f"extra.csv: only in {new}",
        "run/moved.csv: t 0, h 0.12, obs 0, name text differs",
        f"2 of 3 CSVs differ from {old}",
    ]


def test_artifact_hashes_keys_truth_lines_by_cache_directory(tmp_path):
    # the entry's name hashes the cache fingerprint, so equal arrays under another name print the same lines
    script = _artifact_hashes()
    arrays = dict(u=np.zeros((3, 11)), h=np.ones((2, 11)), tu=np.arange(22.0).reshape(2, 11))
    lines = []
    for root, entry in ((tmp_path / "old", "truth_0123456789abcdef"), (tmp_path / "new", "truth_fedcba9876543210")):
        for case in ("sparse", "dense"):
            (root / case / "truth_cache").mkdir(parents=True)
            np.savez(root / case / "truth_cache" / f"{entry}.npz", fingerprint=np.array(entry + case), **arrays)
        lines.append(script.truth_lines(root))
    assert lines[0] == lines[1]
    assert [line.split("  ")[1] for line in lines[0]] == [
        f"{case}/truth_cache:{name}" for case in ("dense", "sparse") for name in ("u", "h", "tu")]
    np.savez(tmp_path / "new" / "dense" / "truth_cache" / "truth_0000000000000000.npz", **arrays)
    with pytest.raises(ValueError, match="more than one entry"):
        script.truth_lines(tmp_path / "new")


def test_oscillatory_regions_prints_one_finite_row_per_variant():
    result = _run_script(ROOT / "scripts" / "oscillatory_regions.py",
                         "--n", "41", "--ensemble-size", "8", "--seeds", "1", "--fine-refine", "2")
    assert result.returncode == 0, result.stderr
    header, *rows = result.stdout.splitlines()
    assert header == "n,K,seed,variant,full,window,shock"
    assert [row.split(",")[3] for row in rows] == ["etkf_baseline", "gsm", "gsm_clustered"]
    for row in rows:
        assert row.split(",")[:3] == ["41", "8", "1"]
        assert all(math.isfinite(float(value)) for value in row.split(",")[4:]), row
    assert rows == [
        "41,8,1,etkf_baseline,0.006047,0.005294,0.013552",
        "41,8,1,gsm,0.006497,0.005281,0.014564",
        "41,8,1,gsm_clustered,0.006087,0.004831,0.010542",
    ]


def test_src_lines_total_is_the_line_count_of_the_package_sources():
    result = _run_script(ROOT / "scripts" / "src_lines.py")
    assert result.returncode == 0, result.stderr
    total = result.stdout.splitlines()[-1].split()
    assert total[0] == "total"
    # what `find src -name '*.py' | xargs cat | wc -l` counts: newline characters
    assert int(total[1]) == sum(path.read_bytes().count(b"\n") for path in (ROOT / "src").rglob("*.py"))


def test_src_lines_against_prints_each_file_and_the_total_as_before_and_after(tmp_path):
    before, after = tmp_path / "before", tmp_path / "after"
    for root in (before, after):
        (root / "pkg").mkdir(parents=True)
    (before / "pkg" / "a.py").write_text('"""Doc."""\n\nx = 1\ny = 2\n')
    (after / "pkg" / "a.py").write_text('"""Doc."""\n\nx = 1\n')
    (before / "pkg" / "gone.py").write_text("z = 3\n")
    (after / "pkg" / "new.py").write_text("# note\nw = 4\n")
    result = _run_script(ROOT / "scripts" / "src_lines.py", "--root", str(after), "--against", str(before))
    assert result.returncode == 0, result.stderr
    table = result.stdout.split("\n\n")[0]  # the name section follows a blank line
    rows = {line.split()[0]: " ".join(line.split()[1:]) for line in table.splitlines()[1:]}
    assert rows == {
        "pkg/a.py": "4 -> 3 (-1) 2 -> 1 (-1)",
        "pkg/gone.py": "1 -> - (-1) 1 -> - (-1)",
        "pkg/new.py": "- -> 2 (+2) - -> 1 (+1)",
        "total": "5 -> 5 (+0) 3 -> 2 (-1)",
    }


def test_src_lines_against_lists_the_names_and_options_on_one_side_only(tmp_path):
    before, after = tmp_path / "before", tmp_path / "after"
    for root in (before, after):
        (root / "pkg").mkdir(parents=True)
    (before / "pkg" / "a.py").write_text(
        "from dataclasses import dataclass\n\n\n@dataclass(frozen=True)\nclass Box:\n    width: float\n"
        "    height: float = 1.0\n\n    def area(self, scale=1.0):\n        return self.width * self.height\n\n\n"
        "def grow(box, factor=2.0, *, clip=None, check):\n    def inner(z=0):\n        return z\n    return box\n\n\n"
        "class Gone(Exception):\n    pass\n"
    )
    (after / "pkg" / "a.py").write_text(
        "from dataclasses import dataclass\n\n\n@dataclass(frozen=True)\nclass Box:\n    width: float\n\n"
        "    def area(self, scale=1.0):\n        return self.width\n\n\n"
        "def grow(box, factor, *, clip=None, check):\n    return box\n\n\ndef fresh():\n    pass\n"
    )
    (after / "pkg" / "b.py").write_text("import dataclasses\n\n\n@dataclasses.dataclass\nclass Pair:\n    left: int\n")
    result = _run_script(ROOT / "scripts" / "src_lines.py", "--root", str(after), "--against", str(before))
    assert result.returncode == 0, result.stderr
    names = [line.split() for line in result.stdout.split("\n\n")[1].splitlines()]
    # Box.width, Box.height, area(scale=), grow(factor=), grow(clip=) -> Box.width, area(scale=), grow(clip=), Pair.left
    assert names[0] == ["options", "(defaulted", "parameters", "+", "dataclass", "fields):", "5", "->", "4", "(-1)"]
    assert names[1:] == [
        ["-", "field", "pkg/a.py", "Box.height"],
        ["-", "class", "pkg/a.py", "Gone"],
        ["-", "parameter", "pkg/a.py", "grow(factor=)"],
        ["+", "function", "pkg/a.py", "fresh"],
        ["+", "class", "pkg/b.py", "Pair"],
        ["+", "field", "pkg/b.py", "Pair.left"],
    ]
