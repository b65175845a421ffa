"""The benchmark workloads and the experiment config each one generates.

Why each workload is here is recorded in BENCHMARK.json and README.md.
The program only ever sees the ExperimentConfig built by ``make_config``.
"""

from __future__ import annotations

from pathlib import Path

# The seed whose posterior error is pinned in reference.json.
DEFAULT_SEED = 1

WORKLOADS = {
    # the only input whose analysis builds X X^T and a 1001x1001 Cholesky
    "dense_baseline_ref": dict(case="dense", variant="etkf_baseline", n=1001, ensemble_size=100, t_end=0.05),
    # banded clustered weight: cheap analysis, the WENO forecast dominates
    "sparse_clustered_ref": dict(case="sparse", variant="gsm_clustered", n=1001, ensemble_size=100, t_end=0.05),
    # set-up is the 2001-point fine coupled solve; short run, so CSV writing weighs most
    "oscillatory_cold_desk": dict(case="oscillatory", variant="gsm", n=201, ensemble_size=50, t_end=0.3, fine_refine=10),
}


def make_config(workload: str, seed: int, work_dir: Path, **overrides):
    """ExperimentConfig for one repetition, writing only below ``work_dir``.

    ``overrides`` replace workload parameters; the tests use them to
    shrink a workload to a tiny grid.
    """
    from shockda.harness import ExperimentConfig

    params = {**WORKLOADS[workload], **overrides}
    work_dir = Path(work_dir)
    return ExperimentConfig.for_case(
        params.pop("case"), seed=seed, output_dir=work_dir / "out", cache_dir=work_dir / "truth_cache", **params
    )
