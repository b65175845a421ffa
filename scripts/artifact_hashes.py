#!/usr/bin/env python3
"""SHA-256 of every CSV written by the desk-scale runs of each case.

For each named case (oscillatory with a 4x fine-grid reference, as in
the acceptance test) at n=201, K=50 this writes, under ``<out>/<case>/``:

- ``<variant>/``: one ``run_experiment`` per filter variant (solution,
  error, summary and prior moments CSVs);
- ``<variant>_unmasked/``: the same with ``localization_bandwidth`` None,
  the low-rank-plus-diagonal weight, for dense gsm and sparse
  gsm_clustered;
- ``truth/truth.csv`` from ``run_truth_only``;
- ``moments/moments.csv`` from ``run_free_moments``;
- ``comparison.csv``: ``compare_runs`` over the variants' summaries with
  one time window, so the quoted ``mean[lo,hi]`` row is written too.

Every desk forecast runs in one process (K (n + 1) is under one WENO5 face
block), so one reference-scale run is added under
``<out>/reference/sparse_gsm_clustered/``: sparse gsm_clustered at n=1001,
K=100, t_end=0.05, whose forecast is split over two processes on a machine
with two CPUs (its bytes do not depend on the split).

It prints ``sha256  relative/path`` per CSV (57 in all), sorted by path,
then ``sha256  relative/path:name`` for the ``u``, ``h`` and ``tu`` arrays of
each truth-cache entry the runs created (4 entries, 12 lines), sorted the
same way: the hash covers each array's dtype, shape and bytes, so equal
lines mean ``array_equal`` truths whatever else the cache file holds.
``manifest.txt`` is left out because it records absolute paths. Two
commits wrote byte-identical artifacts and identical truths when their
outputs are equal:

    PYTHONPATH=src python3 scripts/artifact_hashes.py --out runs/hashes --seed 1 > after.txt
    diff before.txt after.txt

With ``--against DIR`` (the ``--out`` of an earlier run, say of the parent
commit) it also prints to stderr, for each CSV whose bytes differ from
DIR's copy, the largest |difference| of each numeric column relative to
the max |value| of DIR's column, and a text column whose cells differ.

With ``--table PATH`` it also writes the desk table: for every numeric
column of every CSV but the reference-scale run's, the row count N, max
|x|, sum |x| and sum w_i x_i with w_i = (i + 1)/N (which catches permuted
rows), each at ``%.17g``; an empty cell counts as 0 in the sums.  The
sums are ``math.fsum``, correctly rounded, so they do not depend on the
summation order.  ``tests/data/desk_table.csv`` is this table for seed 1,
and ``tests/test_desk_table.py`` checks a fresh run against it:

    PYTHONPATH=src python3 scripts/artifact_hashes.py --out runs/hashes --seed 1 --table tests/data/desk_table.csv
"""

import argparse
import csv
import hashlib
import math
import sys
from pathlib import Path

import numpy as np

from shockda.assimilation.weights import VARIANTS
from shockda.harness import CASES, ExperimentConfig, compare_runs, run_experiment, run_free_moments, run_truth_only

COMPARE_WINDOW = (0.05, 0.15)
# (case, variant) pairs also run without a localization mask
UNMASKED = (("dense", "gsm"), ("sparse", "gsm_clustered"))
TABLE_HEADER = ("csv", "column", "rows", "max_abs", "sum_abs", "weighted_sum")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", required=True, help="artifact directory (each run gets a subdirectory)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--against", type=Path, help="artifact directory to report the drift of differing CSVs against")
    p.add_argument("--table", type=Path, help="also write the desk table (column sizes and sums) to this CSV")
    args = p.parse_args(argv)
    out = Path(args.out)

    desk_runs(out, args.seed)
    if args.table is not None:
        with open(args.table, "w", newline="") as f:
            csv.writer(f, lineterminator="\n").writerows([TABLE_HEADER, *desk_table(out)])
    run_experiment(ExperimentConfig.for_case(
        "sparse", variant="gsm_clustered", n=1001, ensemble_size=100, t_end=0.05, seed=args.seed,
        output_dir=out / "reference" / "sparse_gsm_clustered",
    ))
    for path in sorted(out.rglob("*.csv")):
        print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(out).as_posix()}")
    for path in sorted(out.rglob("truth_*.npz")):
        with np.load(path) as stored:
            for name in ("u", "h", "tu"):
                array = stored[name]
                digest = hashlib.sha256(f"{array.dtype.str}{array.shape}".encode() + array.tobytes()).hexdigest()
                print(f"{digest}  {path.relative_to(out).as_posix()}:{name}")
    if args.against is not None:
        for line in drift_report(out, args.against):
            print(line, file=sys.stderr)


def desk_runs(out: Path, seed: int) -> None:
    """Every desk-scale run, truth, free-moments and comparison output, under ``out/<case>/``."""
    for case in CASES:
        extra = {"fine_refine": 4} if case == "oscillatory" else {}

        def config(name, **overrides):
            return ExperimentConfig.for_case(
                case, n=201, ensemble_size=50, seed=seed, output_dir=out / case / name, **extra, **overrides
            )

        for variant in VARIANTS:
            run_experiment(config(variant, variant=variant))
        for variant in (v for c, v in UNMASKED if c == case):
            run_experiment(config(f"{variant}_unmasked", variant=variant, localization_bandwidth=None))
        run_truth_only(config("truth"))
        run_free_moments(config("moments"))
        compare_runs(
            [out / case / variant / "summary.csv" for variant in VARIANTS],
            out_path=out / case / "comparison.csv",
            windows=[COMPARE_WINDOW],
        )


def desk_table(out: Path) -> list[list[str]]:
    """One row per numeric column of each CSV under ``out/<case>/``: csv, column, N, max |x|, sum |x|
    and sum w_i x_i with w_i = (i + 1)/N, the numbers at ``%.17g``; an empty cell is 0 in the sums."""
    rows = []
    for path in sorted(p for case in CASES for p in (out / case).rglob("*.csv")):
        with open(path, newline="") as f:
            header, *cells = list(csv.reader(f))
        for j, name in enumerate(header):
            x = _floats([r[j] for r in cells])
            if x is None:
                continue
            x = np.nan_to_num(x, nan=0.0)
            weights = (np.arange(x.size) + 1.0) / x.size
            stats = (np.max(np.abs(x), initial=0.0), math.fsum(np.abs(x)), math.fsum(weights * x))
            rows.append([path.relative_to(out).as_posix(), name, str(x.size), *(f"{v:.17g}" for v in stats)])
    return rows


def _floats(cells):
    """The cells as floats, an empty cell as NaN; None if a cell is text."""
    try:
        return np.array([float(c) if c else np.nan for c in cells])
    except ValueError:
        return None


def column_drift(path, reference) -> dict:
    """Per column of two CSVs with one header: max |a - b| / max |b| of a numeric column (b from
    ``reference``; an empty cell against a number counts as inf), or "text differs" for a text column."""
    tables = []
    for p in (path, reference):
        with open(p, newline="") as f:
            tables.append(list(csv.reader(f)))
    (header, *rows), (ref_header, *ref_rows) = tables
    if header != ref_header or len(rows) != len(ref_rows):
        raise ValueError(f"{path}: header or row count differs from {reference}")
    drift = {}
    for j, name in enumerate(header):
        cells, ref_cells = [r[j] for r in rows], [r[j] for r in ref_rows]
        a, b = _floats(cells), _floats(ref_cells)
        if a is None or b is None:
            if cells != ref_cells:
                drift[name] = "text differs"
            continue
        with np.errstate(invalid="ignore"):
            delta = np.where(np.isnan(a) & np.isnan(b), 0.0, np.abs(a - b))
        scale = np.nanmax(np.abs(b), initial=0.0)
        worst = np.max(np.where(np.isnan(delta), np.inf, delta), initial=0.0)
        drift[name] = worst / scale if scale > 0 else (np.inf if worst else 0.0)
    return drift


def drift_report(out, against) -> list[str]:
    """One line per CSV under ``out`` whose bytes differ from its copy under ``against``, then a count."""
    out, against = Path(out), Path(against)
    paths = sorted({p.relative_to(root) for root in (out, against) for p in root.rglob("*.csv")})
    lines = []
    for rel in paths:
        path, reference = out / rel, against / rel
        if not (path.exists() and reference.exists()):
            lines.append(f"{rel.as_posix()}: only in {out if path.exists() else against}")
        elif path.read_bytes() != reference.read_bytes():
            try:
                drift = column_drift(path, reference)
            except ValueError as exc:
                lines.append(str(exc))
                continue
            cells = ", ".join(f"{k} {v}" if isinstance(v, str) else f"{k} {v:.2g}" for k, v in drift.items())
            lines.append(f"{rel.as_posix()}: {cells}")
    lines.append(f"{len(lines)} of {len(paths)} CSVs differ from {against}")
    return lines


if __name__ == "__main__":
    main()
