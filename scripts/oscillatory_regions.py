#!/usr/bin/env python3
"""Per-region error table for the oscillatory twin experiment.

Runs the oscillatory case (4x fine-grid reference, as in the acceptance
test) for each seed and variant, and prints three mean relative L1 errors
per run:

- ``full``: whole domain, t in [0.03, 0.3];
- ``window``: smooth window [-0.39, 0.39], t in [0.15, 0.3];
- ``shock``: the cells within one cell of the analytic shock position s*t,
  t in [0.15, 0.3] (the shock region of the acceptance tests).

Usage:
    PYTHONPATH=src python3 scripts/oscillatory_regions.py --n 201 --ensemble-size 50 --seeds 1 2 3 4 5
    PYTHONPATH=src python3 scripts/oscillatory_regions.py --n 1001 --ensemble-size 100 --seeds 1 --out runs/osc1001
"""

import argparse
import tempfile

import numpy as np

from shockda.assimilation.weights import VARIANTS
from shockda.harness import ExperimentConfig, run_experiment
from shockda.metrics import in_window, relative_error
from shockda.stoker import stoker_solve


def shock_region_error(cfg, arts, t_lo=0.15, t_hi=0.3):
    """Mean relative L1 error over t in [t_lo, t_hi] on the cells within one of s*t."""
    x = cfg.grid().points
    s = stoker_solve(cfg.dam_params()).s
    values = []
    # row j of the posterior means and row j + 1 of the truth belong to analysis time t_j
    for t, posterior, truth in zip(cfg.obs_times, arts.posterior_mean, arts.truth.truth_h[1:]):
        if t_lo <= t <= t_hi:
            xi = int(np.argmin(np.abs(x - s * t)))
            window = (x[max(xi - 1, 0)], x[min(xi + 1, x.size - 1)])
            values.append(relative_error(posterior, truth, window=window, x=x))
    return float(np.mean(values))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--n", type=int, default=201)
    p.add_argument("--ensemble-size", type=int, default=50)
    p.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 4, 5])
    p.add_argument("--fine-refine", type=int, default=4)
    p.add_argument("--out", default=None, help="artifact directory (default: a temporary one)")
    args = p.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        out = args.out or tmp
        print("n,K,seed,variant,full,window,shock", flush=True)
        for seed in args.seeds:
            for variant in VARIANTS:
                cfg = ExperimentConfig.for_case(
                    "oscillatory", n=args.n, ensemble_size=args.ensemble_size, seed=seed,
                    variant=variant, fine_refine=args.fine_refine,
                    output_dir=f"{out}/{variant}_{seed}", cache_dir=f"{out}/cache",
                )
                arts = run_experiment(cfg)
                full_errors, window_errors = arts.relative_errors  # whole domain, smooth window
                full = full_errors[in_window(cfg.obs_times, 0.03, 0.3)].mean()
                window = window_errors[in_window(cfg.obs_times, 0.15, 0.3)].mean()
                print(f"{args.n},{args.ensemble_size},{seed},{variant},{full:.6f},{window:.6f},"
                      f"{shock_region_error(cfg, arts):.6f}", flush=True)


if __name__ == "__main__":
    main()
