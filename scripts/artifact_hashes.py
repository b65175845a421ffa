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

It prints ``sha256  relative/path`` per CSV (53 in all), sorted by path.
``manifest.txt`` is left out because it records absolute paths. Two
commits wrote byte-identical artifacts when their outputs are equal:

    PYTHONPATH=src python3 scripts/artifact_hashes.py --out runs/hashes --seed 1 > after.txt
    diff before.txt after.txt
"""

import argparse
import hashlib
from pathlib import Path

from shockda.assimilation.weights import VARIANTS
from shockda.harness import CASES, ExperimentConfig, compare_runs, run_experiment, run_free_moments, run_truth_only

COMPARE_WINDOW = (0.05, 0.15)
# (case, variant) pairs also run without a localization mask
UNMASKED = (("dense", "gsm"), ("sparse", "gsm_clustered"))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", required=True, help="artifact directory (each run gets a subdirectory)")
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    out = Path(args.out)

    for case in CASES:
        extra = {"fine_refine": 4} if case == "oscillatory" else {}

        def config(name, **overrides):
            return ExperimentConfig.for_case(
                case, n=201, ensemble_size=50, seed=args.seed, output_dir=out / case / name, **extra, **overrides
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
    for path in sorted(out.rglob("*.csv")):
        print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(out).as_posix()}")


if __name__ == "__main__":
    main()
