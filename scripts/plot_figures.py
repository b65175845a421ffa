#!/usr/bin/env python3
"""Quick-look plots for run artifacts.

Reads the CSV files written by the ``shockda`` CLI and renders the standard
views: solution snapshots (truth vs posterior), relative-error curves across
runs, and the free-ensemble moment panels.  Matplotlib is imported lazily so
the package itself never depends on it.  A CSV whose run did not complete
(its sibling ``manifest.txt`` says otherwise) is refused before plotting.

Usage:
    PYTHONPATH=src python3 scripts/plot_figures.py solution runs/dense_gsm/solution.csv --times 0.05 0.15
    PYTHONPATH=src python3 scripts/plot_figures.py errors runs/*/summary.csv --column relative_error_full
    PYTHONPATH=src python3 scripts/plot_figures.py moments runs/moments/moments.csv
"""

import argparse
import csv
import sys
from collections import defaultdict
from pathlib import Path

from shockda.errors import ConfigError
from shockda.harness import require_completed


def _require_matplotlib():
    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        sys.exit("matplotlib is required for plotting: pip install matplotlib")
    return plt


def _read_rows(path):
    with open(path, newline="") as fh:
        yield from csv.DictReader(fh)


def _group_by_time(path, fields):
    groups = defaultdict(lambda: defaultdict(list))
    for row in _read_rows(path):
        t = float(row["t"])
        groups[t]["x"].append(float(row["x"]))
        for f in fields:
            value = row[f]
            groups[t][f].append(float(value) if value != "" else float("nan"))
    return groups


def cmd_solution(args):
    plt = _require_matplotlib()
    groups = _group_by_time(args.csv, ("truth", "obs", "prior_mean", "posterior_mean"))
    available = sorted(groups)
    times = args.times or available[-1:]

    fig, axes = plt.subplots(1, len(times), figsize=(5 * len(times), 4), squeeze=False)
    for ax, t in zip(axes[0], times):
        hits = [u for u in available if abs(u - t) <= 1e-9]
        if not hits:
            sys.exit(f"time {t} not present in {args.csv}; available: {available[:5]}...")
        g = groups[hits[0]]
        ax.plot(g["x"], g["truth"], "k-", lw=1.0, label="truth")
        ax.plot(g["x"], g["prior_mean"], "C1--", lw=1.0, label="prior mean")
        ax.plot(g["x"], g["posterior_mean"], "C0-", lw=1.2, label="posterior mean")
        ax.plot(g["x"], g["obs"], "g.", ms=2.5, alpha=0.5, label="observations")
        ax.set_title(f"t = {hits[0]:g}")
        ax.set_xlabel("x")
        ax.set_ylabel("h")
    axes[0][0].legend(fontsize=8)
    fig.tight_layout()
    fig.savefig(args.out, dpi=150)
    print(f"wrote {args.out}")


def cmd_errors(args):
    plt = _require_matplotlib()
    fig, ax = plt.subplots(figsize=(6, 4))
    for path in args.csvs:
        t, v = [], []
        for row in _read_rows(path):
            t.append(float(row["t"]))
            v.append(float(row[args.column]))
        ax.semilogy(t, v, lw=1.2, label=Path(path).parent.name or Path(path).stem)
    ax.set_xlabel("t")
    ax.set_ylabel(args.column)
    ax.legend(fontsize=8)
    ax.grid(True, which="both", alpha=0.3)
    fig.tight_layout()
    fig.savefig(args.out, dpi=150)
    print(f"wrote {args.out}")


def cmd_moments(args):
    plt = _require_matplotlib()
    groups = _group_by_time(args.csv, ("mean", "variance", "gsm"))
    times = sorted(groups)
    fig, axes = plt.subplots(3, 1, figsize=(6, 9), sharex=True)
    for t in times:
        g = groups[t]
        for ax, field in zip(axes, ("mean", "variance", "gsm")):
            ax.plot(g["x"], g[field], lw=1.0, label=f"t = {t:g}")
    for ax, field in zip(axes, ("mean", "variance", "gradient second moment")):
        ax.set_ylabel(field)
        ax.grid(alpha=0.3)
    axes[0].legend(fontsize=8)
    axes[-1].set_xlabel("x")
    fig.tight_layout()
    fig.savefig(args.out, dpi=150)
    print(f"wrote {args.out}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solution", help="truth vs prior/posterior snapshots")
    p.add_argument("csv", type=Path)
    p.add_argument("--times", type=float, nargs="+", help="snapshot times (default: last)")
    p.add_argument("--out", type=Path, default=Path("solution.png"))
    p.set_defaults(func=cmd_solution)

    p = sub.add_parser("errors", help="relative-error curves for one or more runs")
    p.add_argument("csvs", type=Path, nargs="+")
    p.add_argument("--column", default="relative_error_full",
                   choices=("relative_error_full", "relative_error_window"))
    p.add_argument("--out", type=Path, default=Path("errors.png"))
    p.set_defaults(func=cmd_errors)

    p = sub.add_parser("moments", help="mean/variance/gradient-second-moment panels")
    p.add_argument("csv", type=Path)
    p.add_argument("--out", type=Path, default=Path("moments.png"))
    p.set_defaults(func=cmd_moments)

    args = parser.parse_args(argv)
    try:
        for path in args.csvs if args.command == "errors" else [args.csv]:
            require_completed(path)
    except ConfigError as exc:
        sys.exit(str(exc))
    args.func(args)


if __name__ == "__main__":
    main()
