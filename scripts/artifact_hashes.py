#!/usr/bin/env python3
"""SHA-256 of every CSV written by the nine desk-scale case x variant runs.

Runs each named case (oscillatory with a 4x fine-grid reference, as in
the acceptance test) with each filter variant at n=201, K=50 into
``<out>/<case>/<variant>/`` and prints ``sha256  relative/path`` per CSV,
sorted by path. ``manifest.txt`` is left out because it records absolute
paths. Two commits wrote byte-identical artifacts when their outputs are
equal:

    PYTHONPATH=src python3 scripts/artifact_hashes.py --out runs/hashes --seed 1 > after.txt
    diff before.txt after.txt
"""

import argparse
import hashlib
from pathlib import Path

from shockda.assimilation.weights import VARIANTS
from shockda.harness import CASES, ExperimentConfig, run_experiment


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", required=True, help="artifact directory (each run gets a subdirectory)")
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    out = Path(args.out)

    for case in CASES:
        for variant in VARIANTS:
            extra = {"fine_refine": 4} if case == "oscillatory" else {}
            cfg = ExperimentConfig.for_case(
                case, n=201, ensemble_size=50, seed=args.seed, variant=variant,
                output_dir=out / case / variant, **extra,
            )
            run_experiment(cfg)
    for path in sorted(out.rglob("*.csv")):
        print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(out).as_posix()}")


if __name__ == "__main__":
    main()
