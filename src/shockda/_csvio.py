"""The CSV writer shared by every artifact.

Floats are written with 17 significant digits so every value round-trips
to the same float64 and regression comparisons can be byte-exact.  This
module is the only one that knows that text format.
"""

from __future__ import annotations

import csv
import io
import itertools
from functools import lru_cache
from pathlib import Path

import numpy as np

# rows formatted at a time; bounds the text held in memory
_ROW_BLOCK = 1024


def fmt17(x: float) -> str:
    """One float in the artifact text format, for scalar manifest and label text."""
    return format(float(x), ".17g")


def write_csv(path, header, columns) -> None:
    """Write equal-length 1-D ``columns`` under ``header``, one row per index.

    The bytes are those of ``csv.writer`` over rows of cells, a cell that
    is not a ``str`` written as ``format(x, ".17g")``.  Each block of rows
    is one ``%``-format over its interleaved cells: ``%.17g`` for a numeric
    array column, ``%s`` of each cell's text for any other column, where a
    ``str`` cell is quoted as ``csv.writer`` quotes it (``_text_cell``).
    """
    columns = [c if isinstance(c, np.ndarray) else np.array(c, dtype=object) for c in columns]
    n_rows = len(columns[0]) if columns else 0
    if any(c.ndim != 1 or len(c) != n_rows for c in columns):
        raise ValueError("CSV columns must be 1-D and of equal length")
    numeric = [c.dtype.kind in "fiu" for c in columns]
    row = ",".join("%.17g" if is_num else "%s" for is_num in numeric) + "\n"
    alone = len(columns) == 1
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as f:
        csv.writer(f, lineterminator="\n").writerow(header)
        for start in range(0, n_rows, _ROW_BLOCK):
            block = [c[start:start + _ROW_BLOCK] for c in columns]
            cells = [c.astype(float).tolist() if is_num else _cells(c, alone) for c, is_num in zip(block, numeric)]
            f.write(row * len(block[0]) % tuple(itertools.chain.from_iterable(zip(*cells))))


def _cells(column: np.ndarray, alone: bool) -> list[str]:
    return [_text_cell(c, alone) if isinstance(c, str) else "%.17g" % c for c in column]


@lru_cache(maxsize=1024)
def _text_cell(cell: str, alone: bool) -> str:
    """``cell`` as ``csv.writer`` writes it in a row, quoted where csv needs quotes.

    ``alone``: the cell is its row's only field, where an empty one is
    written ``""``.
    """
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow((cell,) if alone else (cell, ""))
    return buf.getvalue()[: -1 if alone else -2]
