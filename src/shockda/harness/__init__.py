"""Twin-experiment harness: configuration, pipeline, and the CLI."""

from .config import CASES, ExperimentConfig, parse_config_file
from .experiments import (
    SMOOTH_WINDOW,
    build_initial_ensemble,
    compare_runs,
    config_from_manifest,
    generate_truth,
    initial_condition,
    read_manifest,
    require_completed,
    run_experiment,
    run_free_moments,
    run_truth_only,
    write_manifest,
)
