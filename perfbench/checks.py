"""Checks on the artifacts of one repetition, and the accuracy read from them."""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference.json")


def _read_csv(path: Path):
    with open(path, newline="") as f:
        reader = csv.reader(f)
        return next(reader, []), list(reader)


def expected_rows(cfg) -> dict:
    """Data rows each CSV must hold, from the config alone."""
    cycles = cfg.n_steps // cfg.obs_stride_steps
    snapshots = sum(any(abs(t - s) <= 1e-9 for s in cfg.snapshot_times) for t in cfg.obs_times)
    return {
        "solution.csv": cycles * cfg.n,
        "error.csv": cycles * cfg.n,
        "summary.csv": cycles,
        "moments.csv": snapshots * cfg.n,
    }


def _check_csv(path: Path, want_rows: int, want_obs: int) -> list[str]:
    """Row count, field count and finiteness; ``obs`` may be empty, at unobserved points only."""
    name = path.name
    if not path.exists():
        return [f"{name} is missing"]
    header, rows = _read_csv(path)
    problems = [] if len(rows) == want_rows else [f"{name} has {len(rows)} rows, expected {want_rows}"]
    obs_col = header.index("obs") if "obs" in header else -1
    observed = 0
    for r, row in enumerate(rows, start=2):
        if len(row) != len(header):
            return problems + [f"{name}:{r} has {len(row)} fields, expected {len(header)}"]
        for c, field in enumerate(row):
            if c == obs_col and field == "":
                continue
            try:
                finite = math.isfinite(float(field))
            except ValueError:
                finite = False
            if not finite:
                return problems + [f"{name}:{r} column {header[c]} holds {field!r}"]
            observed += c == obs_col
    if obs_col >= 0 and observed != want_obs:
        problems.append(f"{name} has {observed} observations, expected {want_obs}")
    return problems


def check_outputs(cfg) -> list[str]:
    """Problems found in the run's artifacts; empty when all is well.

    The manifest must say ``status = completed``; every CSV must have the
    expected row count and a finite number in every field, except the
    solution's ``obs`` column, which is empty exactly at unobserved points.
    """
    out = Path(cfg.output_dir)
    problems = []
    manifest = out / "manifest.txt"
    status = None
    if manifest.exists():
        for line in manifest.read_text().splitlines():
            key, _, value = line.partition("=")
            if key.strip() == "status":
                status = value.strip()
    if status != "completed":
        problems.append(f"manifest status is {status!r}, expected 'completed'")
    observed_points = cfg.n if cfg.case == "dense" else len(range(0, cfg.n, 2))
    for name, want in expected_rows(cfg).items():
        problems += _check_csv(out / name, want, want // cfg.n * observed_points)
    return problems


def posterior_rel_err(cfg) -> float:
    """Mean full-domain relative L1 posterior error over all cycles, from summary.csv."""
    header, rows = _read_csv(Path(cfg.output_dir) / "summary.csv")
    col = header.index("relative_error_full")
    return sum(float(row[col]) for row in rows) / len(rows)


def reference_problem(workload: str, seed: int, value: float):
    """A message if the pinned default-seed posterior error moved, else None."""
    ref = json.loads(REFERENCE.read_text())
    if seed != ref["seed"] or workload not in ref["posterior_rel_err"]:
        return None
    want = ref["posterior_rel_err"][workload]
    if abs(value - want) > ref["rtol"] * abs(want):
        return f"posterior_rel_err {value!r} differs from the reference {want!r} by more than rtol {ref['rtol']}"
    return None
