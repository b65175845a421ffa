"""The column-wise artifact CSV writer against the row writer it replaced."""

import csv

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from shockda._csvio import _ROW_BLOCK, write_csv

SPECIAL_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308,
    1.0, -3.0, 2.0**53, 2.0**53 + 2.0, 1e16, 0.1, 1.0 / 3.0, float("nan"), float("inf"), float("-inf"),
]
ROW_COUNTS = [0, 1, 2, _ROW_BLOCK - 1, _ROW_BLOCK, _ROW_BLOCK + 1, 2 * _ROW_BLOCK + 3]

floats = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats())
# blanks (as in solution.csv's obs column) and cells that need quoting,
# like compare_runs' mean[lo,hi] label
texts = st.one_of(st.just(""), st.just("mean[0.050000000000000003,0.14999999999999999]"),
                  st.text(alphabet=st.sampled_from(list('ab ,"[]\n-.0e')), max_size=6))


def _write_csv_rows(path, header, columns):
    """The former writer: csv.writer over rows of format(x, ".17g") cells."""
    rows = (tuple(c if isinstance(c, str) else format(float(c), ".17g") for c in row) for row in zip(*columns))
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


@st.composite
def tables(draw):
    """Columns of every kind the artifacts use, cycled to a row count around the block size."""
    n_rows = draw(st.sampled_from(ROW_COUNTS))
    columns = []
    for kind in draw(st.lists(st.sampled_from(["float", "int", "text", "mixed"]), min_size=1, max_size=5)):
        if kind == "float":
            base = np.array(draw(st.lists(floats, min_size=1, max_size=20)))
        elif kind == "int":
            base = np.array(draw(st.lists(st.integers(-2**62, 2**62), min_size=1, max_size=20)), dtype=np.int64)
        else:
            cells = st.one_of(floats, texts) if kind == "mixed" else texts
            base = np.array(draw(st.lists(cells, min_size=1, max_size=20)), dtype=object)
        column = np.resize(base, n_rows)
        columns.append(column.tolist() if draw(st.booleans()) else column)
    header = [f"c{i}" for i in range(len(columns) - 1)] + ["mean[lo,hi]"]
    return header, columns


@settings(max_examples=60, deadline=None)
@given(table=tables())
@example(table=(["t", "x", "obs"], [np.arange(2 * _ROW_BLOCK + 3) * 0.1, np.resize(SPECIAL_FLOATS, 2 * _ROW_BLOCK + 3),
                                    np.resize(np.array([1.25, "", -0.0, ""], dtype=object), 2 * _ROW_BLOCK + 3)]))
def test_write_csv_matches_row_reference_bytes(tmp_path_factory, table):
    header, columns = table
    out = tmp_path_factory.mktemp("csv")
    write_csv(out / "columns.csv", header, columns)
    _write_csv_rows(out / "rows.csv", header, columns)
    assert (out / "columns.csv").read_bytes() == (out / "rows.csv").read_bytes()


def test_write_csv_matches_reference_on_random_float_bit_patterns(tmp_path):
    # every exponent, sign and payload, subnormals and nan/inf included
    bits = np.random.default_rng(0).integers(0, 2**64, size=50_000, dtype=np.uint64, endpoint=False)
    x = bits.view(np.float64)
    write_csv(tmp_path / "columns.csv", ["x"], [x])
    _write_csv_rows(tmp_path / "rows.csv", ["x"], [x])
    assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def test_write_csv_rejects_ragged_or_nested_columns(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "bad.csv", ["a", "b"], [np.zeros(3), np.zeros(4)])
    with pytest.raises(ValueError):
        write_csv(tmp_path / "bad.csv", ["a"], [np.zeros((2, 2))])
