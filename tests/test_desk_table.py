"""The desk numbers under test: a fresh run of every desk artifact matches the committed table.

``tests/data/desk_table.csv`` holds, for every numeric column of every CSV
that ``scripts/artifact_hashes.py`` writes at desk scale (seed 1; the
reference-scale run left out), the row count, max |x|, sum |x| and the
weighted sum sum (i + 1)/N x_i.  Each element may move by 1e-12 of its
column's max |x|: so max |x| may move by that much and each sum, over N
elements with weights of at most 1, by N times it.  A roundoff-level change
(a BLAS kernel, say) passes; a change to the method does not.  Regenerate
the table only with a change that states its reason and its bound:

    PYTHONPATH=src python3 scripts/artifact_hashes.py --out runs/hashes --seed 1 --table tests/data/desk_table.csv
"""

import csv
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TABLE = ROOT / "tests" / "data" / "desk_table.csv"
RTOL = 1e-12


def _script():
    spec = importlib.util.spec_from_file_location("artifact_hashes", ROOT / "scripts" / "artifact_hashes.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_desk_runs_match_the_committed_table(tmp_path):
    script = _script()
    script.desk_runs(tmp_path, seed=1)
    fresh = {(r[0], r[1]): r[2:] for r in script.desk_table(tmp_path)}
    with open(TABLE, newline="") as f:
        header, *rows = list(csv.reader(f))
    assert tuple(header) == script.TABLE_HEADER
    committed = {(r[0], r[1]): r[2:] for r in rows}
    assert sorted(fresh) == sorted(committed)

    moved = []
    for key, (n, *stats) in committed.items():
        fresh_n, *fresh_stats = fresh[key]
        max_abs = float(stats[0])
        bounds = (RTOL * max_abs, RTOL * max_abs * int(n), RTOL * max_abs * int(n))
        if fresh_n != n:
            moved.append(f"{key}: {fresh_n} rows, table {n}")
        for name, old, new, bound in zip(script.TABLE_HEADER[3:], stats, fresh_stats, bounds):
            if abs(float(new) - float(old)) > bound:
                moved.append(f"{key} {name}: {new}, table {old}")
    assert not moved, "\n".join(moved)
