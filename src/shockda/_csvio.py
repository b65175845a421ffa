"""The CSV writer shared by every artifact.

Floats are written with 17 significant digits so every value round-trips
to the same float64 and regression comparisons can be byte-exact.  This
module is the only one that knows that text format.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

# rows formatted at a time; bounds the text held in memory
_ROW_BLOCK = 1024


def fmt17(x: float) -> str:
    """One float in the artifact text format, for scalar manifest and label text."""
    return format(float(x), ".17g")


def write_csv(path, header, columns) -> None:
    """Write equal-length 1-D ``columns`` under ``header``, one row per index.

    A numeric array column is written as ``%.17g``, one ``%``-format per
    block of rows; that is the text of ``format(x, ".17g")``.  Any other
    column is written cell by cell: a ``str`` cell as ``csv.writer`` writes
    it (quoted where csv needs quotes), any other cell as a float.
    """
    columns = [c if isinstance(c, np.ndarray) else np.array(c, dtype=object) for c in columns]
    n_rows = len(columns[0]) if columns else 0
    if any(c.ndim != 1 or len(c) != n_rows for c in columns):
        raise ValueError("CSV columns must be 1-D and of equal length")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        for start in range(0, n_rows, _ROW_BLOCK):
            writer.writerows(zip(*(_cells(c[start:start + _ROW_BLOCK]) for c in columns)))


def _cells(column: np.ndarray) -> list[str]:
    if column.dtype.kind in "fiu":
        return ("%.17g " * column.size % tuple(column.astype(float).tolist())).split()
    return [c if isinstance(c, str) else "%.17g" % c for c in column]
