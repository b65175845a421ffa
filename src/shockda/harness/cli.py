"""Command-line entry point for the twin experiments.

Subcommands: ``truth`` (generate and cache the truth/velocity run),
``moments`` (free-ensemble moment diagnostic), ``assimilate`` (run one
filter variant end to end), ``compare`` (join summary CSVs).  Exit codes:
0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from ..errors import ConfigError, NumericalError
from ..assimilation.weights import VARIANTS
from .config import CASES, ExperimentConfig, _str_to_value, parse_config_file
from .experiments import compare_runs, run_experiment, run_free_moments, run_truth_only

# the free moment diagnostic defaults to its reference setup: a coarser
# grid, a much smaller time step, and gentler initial perturbations
_MOMENTS_DEFAULTS = {"n": 201, "cfl": 0.001, "ic_perturb_std": 0.05, "t_end": 0.15}


def _add_run_flags(p: argparse.ArgumentParser, variant: bool) -> None:
    """Flags of the run-producing subcommands; each ``dest`` is its ExperimentConfig field."""
    p.add_argument("--config", type=Path, help="flat key = value config file")
    p.add_argument("--case", choices=CASES)
    if variant:
        p.add_argument("--variant", choices=VARIANTS)
    p.add_argument("--n", type=int, help="grid points")
    p.add_argument("--cfl", type=float)
    p.add_argument("--ensemble-size", type=int, dest="ensemble_size")
    p.add_argument("--alpha", type=float, help="baseline inflation factor")
    p.add_argument("--beta-max", type=float, dest="beta_max_target", help="target max weight entry")
    p.add_argument("--dist", type=int, help="clustering radius in grid points")
    p.add_argument("--bandwidth", dest="localization_bandwidth", help="localization bandwidth (integer, or 'none' to disable masking)")
    p.add_argument("--gamma", type=float, help="observation noise std")
    p.add_argument("--seed", type=int)
    p.add_argument("--t-end", type=float, dest="t_end")
    p.add_argument("--out", type=Path, dest="output_dir", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="shockda", description="Shallow-water twin experiments with gradient-weighted ensemble filtering.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_truth = sub.add_parser("truth", help="generate and cache the truth and velocity runs")
    _add_run_flags(p_truth, variant=False)

    p_mom = sub.add_parser("moments", help="free-ensemble mean/variance/gradient-second-moment diagnostic")
    _add_run_flags(p_mom, variant=False)
    p_mom.add_argument("--ic-std", type=float, dest="ic_perturb_std", help="initial perturbation std (default 0.05 here)")

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
    file_values: dict = {}
    if args.config is not None:
        file_values = parse_config_file(args.config)

    case = args.case or file_values.get("case") or "dense"
    overrides: dict = dict(extra_defaults or {})
    overrides.update((k, v) for k, v in file_values.items() if k != "case")
    # --case is consumed above to pick the preset
    for f in dataclasses.fields(ExperimentConfig):
        value = getattr(args, f.name, None)
        if f.name != "case" and value is not None:
            overrides[f.name] = value
    # file values arrive as strings; reuse the manifest coercion rules
    overrides = {k: (_str_to_value(k, v) if isinstance(v, str) else v) for k, v in overrides.items()}
    unknown = set(overrides) - {f.name for f in dataclasses.fields(ExperimentConfig)}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return ExperimentConfig.for_case(case, **overrides)


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
        artifacts = run_truth_only(_assemble_config(args))
    elif args.command == "moments":
        artifacts = run_free_moments(_assemble_config(args, extra_defaults=_MOMENTS_DEFAULTS))
    elif args.command == "assimilate":
        artifacts = run_experiment(_assemble_config(args))
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

    for path in artifacts.written():
        print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
