"""Twin-experiment harness: configuration, pipeline, and the CLI."""

from .config import CASES, ExperimentConfig
from .experiments import (
    compare_runs,
    config_from_manifest,
    generate_truth,
    read_manifest,
    run_experiment,
    run_free_moments,
    run_truth_only,
)
