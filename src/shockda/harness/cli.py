"""Command-line entry point for the twin experiments.

Subcommands: ``truth`` (generate and cache the truth/velocity run),
``moments`` (free-ensemble moment diagnostic), ``assimilate`` (run one
filter variant end to end), ``compare`` (join summary CSVs).  Exit codes:
0 success, 2 configuration error, 3 numerical failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from ..errors import ConfigError, NumericalError
from ..assimilation.weights import VARIANTS
from .config import CASES, ExperimentConfig, parse_config_file
from .experiments import compare_runs, run_experiment, run_free_moments, run_truth_only

# the free moment diagnostic defaults to its reference setup: a coarser
# grid, a much smaller time step, and gentler initial perturbations
_MOMENTS_DEFAULTS = {"n": 201, "cfl": 0.001, "ic_perturb_std": 0.05, "t_end": 0.15}


def _add_run_flags(p: argparse.ArgumentParser, variant: bool) -> None:
    """Flags of the run-producing subcommands, left as strings for ExperimentConfig.for_case to parse;
    each ``dest`` but ``config`` is its ExperimentConfig field."""
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--case", help=f"named preset, one of {', '.join(CASES)}")
    if variant:
        p.add_argument("--variant", help=f"filter variant, one of {', '.join(VARIANTS)}")
    p.add_argument("--n", help="grid points")
    p.add_argument("--cfl")
    p.add_argument("--ensemble-size", dest="ensemble_size")
    p.add_argument("--alpha", help="baseline inflation factor")
    p.add_argument("--beta-max", dest="beta_max_target", help="target max weight entry")
    p.add_argument("--dist", help="clustering radius in grid points")
    p.add_argument("--bandwidth", dest="localization_bandwidth", help="localization bandwidth (integer, or 'none' to disable masking)")
    p.add_argument("--gamma", help="observation noise std")
    p.add_argument("--seed")
    p.add_argument("--t-end", dest="t_end")
    p.add_argument("--out", dest="output_dir", help="output directory")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are ConfigErrors, one line each; subparsers inherit the class."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="shockda", description="Shallow-water twin experiments with gradient-weighted ensemble filtering.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_truth = sub.add_parser("truth", help="generate and cache the truth and velocity runs")
    _add_run_flags(p_truth, variant=False)

    p_mom = sub.add_parser("moments", help="free-ensemble mean/variance/gradient-second-moment diagnostic")
    _add_run_flags(p_mom, variant=False)
    p_mom.add_argument("--ic-std", dest="ic_perturb_std", help="initial perturbation std (default 0.05 here)")

    p_assim = sub.add_parser("assimilate", help="run one filter variant end to end")
    _add_run_flags(p_assim, variant=True)

    p_cmp = sub.add_parser("compare", help="join run summaries into one comparison table")
    p_cmp.add_argument("summaries", nargs="+", type=Path, help="summary.csv paths")
    p_cmp.add_argument("--window", action="append", default=[], metavar="LO:HI", help="aggregate mean over a time window (repeatable)")
    p_cmp.add_argument("--label", action="append", default=None, help="column label per summary (repeatable)")
    p_cmp.add_argument("--out", type=Path, default=Path("comparison.csv"))

    return parser


def _assemble_config(args, extra_defaults: dict | None = None) -> ExperimentConfig:
    """Case preset <- subcommand defaults <- config file <- CLI flags."""
    settings = dict(extra_defaults or {})
    if args.config is not None:
        settings.update(parse_config_file(args.config))
    settings.update((k, v) for k, v in vars(args).items() if k not in ("command", "config") and v is not None)
    return ExperimentConfig.for_case(settings.pop("case", "dense"), **settings)


def _parse_windows(specs) -> list[tuple[float, float]]:
    windows = []
    for spec in specs:
        try:
            lo_s, hi_s = spec.split(":")
            windows.append((float(lo_s), float(hi_s)))
        except ValueError as exc:
            raise ConfigError(f"bad --window '{spec}', expected LO:HI") from exc
    return windows


def _dispatch(args) -> int:
    if args.command == "truth":
        written = run_truth_only(_assemble_config(args))
    elif args.command == "moments":
        written = run_free_moments(_assemble_config(args, extra_defaults=_MOMENTS_DEFAULTS))
    elif args.command == "assimilate":
        written = run_experiment(_assemble_config(args))
    elif args.command == "compare":
        times, columns, aggregates = compare_runs(
            args.summaries, out_path=args.out, windows=_parse_windows(args.window), labels=args.label
        )
        print(f"wrote {args.out} ({times.size} times, {len(columns)} runs)")
        for (lo, hi), means in aggregates.items():
            parts = ", ".join(f"{label}={value:.6g}" for label, value in means.items())
            print(f"mean over [{lo}, {hi}]: {parts}")
        return 0
    else:  # pragma: no cover - argparse enforces the choices
        raise ConfigError(f"unknown command {args.command}")

    for path in written:
        print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    try:
        return _dispatch(build_parser().parse_args(argv))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
