"""Ensemble statistics, weight matrices, and the ETKF analysis machinery."""

from .ensemble import (
    Ensemble,
    correlation_matrix_factor,
    ensemble_moments,
    gradient_second_moment,
    sample_variance_diag,
)
from .filters import (
    analysis_mean,
    etkf_transform,
    run_baseline_filter,
    run_weighted_filter,
)
from .weights import (
    ClusterPartition,
    FilterConfig,
    WeightMatrix,
    build_weight,
    cluster_partition,
    covariance_weight,
    detect_discontinuity,
    mask_correlations,
    toeplitz_band_mask,
)
