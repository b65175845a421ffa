"""Weight-matrix construction, discontinuity clustering, and localization tests."""

import warnings

import numpy as np
import pytest

from shockda.errors import ConfigError, NumericalError
from shockda.solver import Grid1D
from shockda.assimilation.ensemble import correlation_matrix_factor, ensemble_moments, gradient_second_moment
from shockda.assimilation.weights import (
    FilterConfig,
    build_weight,
    cluster_regions,
    covariance_weight,
    detect_discontinuity,
    mask_correlations,
    toeplitz_band_mask,
)


def _grid(n):
    return Grid1D(n=n)


def _random_ensemble(rng, K, n, scale=0.1):
    return ensemble_moments(1.0 + scale * rng.standard_normal((K, n)))


def _gsm_config(**kw):
    defaults = dict(variant="gsm", alpha=1.5, beta_max_target=0.003, localization_bandwidth=0, dist=1)
    defaults.update(kw)
    return FilterConfig(**defaults)


# ---------------------------------------------------------------- FilterConfig


def test_filter_settings_validation():
    with pytest.raises(ConfigError):
        FilterConfig(variant="enkf")
    with pytest.raises(ConfigError):
        FilterConfig(variant="etkf_baseline", alpha=1.0)
    with pytest.raises(ConfigError):
        FilterConfig(variant="gsm", beta_max_target=0.0)
    with pytest.raises(ConfigError):
        FilterConfig(variant="gsm", localization_bandwidth=-1)
    with pytest.raises(ConfigError):
        FilterConfig(variant="gsm", dist=-1)
    FilterConfig(variant="gsm", localization_bandwidth=None)  # no masking is valid


# ------------------------------------------------------------------- band mask


def test_toeplitz_band_mask_values():
    M = toeplitz_band_mask(4, 1)
    expected = np.array(
        [[1, 1, 0, 0], [1, 1, 1, 0], [0, 1, 1, 1], [0, 0, 1, 1]], dtype=float
    )
    np.testing.assert_array_equal(M, expected)
    np.testing.assert_array_equal(toeplitz_band_mask(4, 0), np.eye(4))
    np.testing.assert_array_equal(toeplitz_band_mask(4, None), np.ones((4, 4)))


# --------------------------------------------------------- discontinuity / regions


def test_detect_discontinuity_hand_case():
    # mean (1, 1, 0.5, 0.5): steepest difference between points 1 and 2
    assert detect_discontinuity(np.array([1.0, 1.0, 0.5, 0.5]), 1.0) == 1


def test_detect_discontinuity_tie_takes_smallest_index():
    assert detect_discontinuity(np.array([0.0, 1.0, 0.0, 1.0]), 1.0) == 0


def test_detect_discontinuity_monotone_mean():
    mean = np.array([0.0, 0.1, 0.3, 0.9, 1.0])
    assert detect_discontinuity(mean, 0.5) == 2


def test_detect_discontinuity_at_stoker_shock():
    from shockda.stoker import DamBreakParams, stoker_evaluate, stoker_solve

    grid = _grid(1001)
    p = DamBreakParams()
    inter = stoker_solve(p)
    h, _ = stoker_evaluate(p, inter, grid.points, 0.15)
    xi = detect_discontinuity(h, grid.dx)
    shock_index = int(np.argmin(np.abs(grid.points - inter.s * 0.15)))
    assert abs(xi - shock_index) <= 2


def test_cluster_partition_hand_cases():
    # interior: n=5, xi=2 (third point), dist=1; region ids 0 (left smooth), 1 (jump), 2 (right smooth)
    np.testing.assert_array_equal(cluster_regions(2, 1, 5), [0, 1, 1, 1, 2])

    # clipped at the left boundary
    np.testing.assert_array_equal(cluster_regions(0, 1, 5), [1, 1, 2, 2, 2])

    # dist=0 keeps only xi
    np.testing.assert_array_equal(cluster_regions(3, 0, 5), [0, 0, 0, 1, 2])


def test_cluster_partition_covers_and_orders():
    # every cell gets one id, and the ids run 0..., 1..., 2... left to right with the
    # jump region exactly |i - xi| <= dist clipped to the grid
    rng = np.random.default_rng(0)
    for _ in range(30):
        n = int(rng.integers(2, 40))
        xi = int(rng.integers(0, n))
        dist = int(rng.integers(0, 6))
        ids = cluster_regions(xi, dist, n)
        assert ids.shape == (n,) and set(ids) <= {0, 1, 2}
        assert np.all(np.diff(ids) >= 0)
        np.testing.assert_array_equal(np.flatnonzero(ids == 1), np.arange(max(0, xi - dist), min(n - 1, xi + dist) + 1))


def test_cluster_partition_validates():
    with pytest.raises(ConfigError):
        cluster_regions(5, 1, 5)
    with pytest.raises(ConfigError):
        cluster_regions(0, -1, 5)


def test_mask_correlations_hand_case():
    # 5 points with the jump region {1,2,3}
    ids = cluster_regions(2, 1, 5)
    R = np.arange(25, dtype=float).reshape(5, 5)
    R = 0.5 * (R + R.T)
    np.fill_diagonal(R, 1.0)
    Rm = mask_correlations(R, ids)
    assert Rm[0, 4] == 0.0  # across smooth regions
    assert Rm[1, 2] == 0.0  # off-diagonal inside the jump region
    assert Rm[0, 0] == 1.0 and Rm[4, 4] == 1.0
    np.testing.assert_array_equal(np.diag(Rm), np.diag(R))


def test_mask_correlations_all_discontinuous_leaves_diagonal():
    ids = cluster_regions(2, 10, 5)  # the jump region covers everything
    R = np.random.default_rng(1).standard_normal((5, 5))
    R = 0.5 * (R + R.T)
    Rm = mask_correlations(R, ids)
    np.testing.assert_array_equal(Rm, np.diag(np.diag(R)))


def test_mask_correlations_smooth_block_untouched():
    ids = cluster_regions(1, 1, 7)  # right smooth region {3,4,5,6}
    R = np.random.default_rng(2).standard_normal((7, 7))
    R = 0.5 * (R + R.T)
    Rm = mask_correlations(R, ids)
    np.testing.assert_array_equal(Rm[3:, 3:], R[3:, 3:])


def test_mask_correlations_idempotent():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(3, 25))
        ids = cluster_regions(int(rng.integers(0, n)), int(rng.integers(0, 4)), n)
        R = rng.standard_normal((n, n))
        R = 0.5 * (R + R.T)
        once = mask_correlations(R, ids)
        np.testing.assert_array_equal(mask_correlations(once, ids), once)


def test_mask_correlations_shape_check():
    ids = cluster_regions(1, 1, 5)
    with pytest.raises(ConfigError):
        mask_correlations(np.eye(4), ids)


# ----------------------------------------------------------------- build_weight


def test_diagonal_weight_hand_case():
    # S = (0.5, 2.5, 2.0) / dx^2 from the member profile (0, 1, 3) at dx = 0.2;
    # target 0.003 gives beta = 0.0012 dx^2 = 4.8e-5
    ens = ensemble_moments(np.tile([0.0, 1.0, 3.0], (2, 1)))
    grid = Grid1D(n=11)  # dx = 0.2
    W = build_weight(ens, _gsm_config(), grid)
    assert W.form == "band" and W.matrix.shape == (1, 3)
    assert W.beta == pytest.approx(4.8e-5)
    np.testing.assert_allclose(W.toarray(), np.diag([0.0006, 0.003, 0.0024]), rtol=1e-12)


def test_weight_realized_max_hits_target():
    rng = np.random.default_rng(4)
    grid = _grid(41)
    for variant, bandwidth, target in (
        ("gsm", 0, 0.003),
        ("gsm", 3, 0.0027),
        ("gsm", None, 0.01),
        ("gsm_clustered", 3, 0.0027),
        ("gsm_clustered", None, 0.003),
    ):
        ens = _random_ensemble(rng, 12, 41)
        W = build_weight(ens, _gsm_config(variant=variant, localization_bandwidth=bandwidth, beta_max_target=target), grid)
        assert W.toarray().max() == pytest.approx(target, rel=1e-12)


def test_full_weight_matches_dense_reference():
    rng = np.random.default_rng(5)
    grid = _grid(25)
    ens = _random_ensemble(rng, 8, 25)
    for bandwidth in (1, 4, None):
        cfg = _gsm_config(localization_bandwidth=bandwidth)
        W = build_weight(ens, cfg, grid)

        S = gradient_second_moment(ens.members, grid.dx)
        Xt = correlation_matrix_factor(ens)
        dense = np.sqrt(S)[:, None] * (Xt @ Xt.T) * np.sqrt(S)[None, :]
        dense *= toeplitz_band_mask(25, bandwidth)
        dense *= cfg.beta_max_target / dense.max()
        np.testing.assert_allclose(W.toarray(), dense, atol=1e-15)


def test_clustered_weight_matches_dense_reference():
    rng = np.random.default_rng(6)
    grid = _grid(31)
    base = np.where(grid.points < 0.0, 1.0, 0.8)
    ens = ensemble_moments(base + 0.02 * rng.standard_normal((10, 31)))
    cfg = _gsm_config(variant="gsm_clustered", localization_bandwidth=4, dist=2)
    W = build_weight(ens, cfg, grid)
    assert W.form == "band" and W.matrix.shape == (5, 31)
    assert W.xi == detect_discontinuity(ens.mean, grid.dx)

    S = gradient_second_moment(ens.members, grid.dx)
    Xt = correlation_matrix_factor(ens)
    R = mask_correlations(Xt @ Xt.T, cluster_regions(W.xi, 2, 31))
    dense = np.sqrt(S)[:, None] * R * np.sqrt(S)[None, :]
    dense *= toeplitz_band_mask(31, 4)
    dense *= cfg.beta_max_target / dense.max()
    np.testing.assert_allclose(W.toarray(), dense, atol=1e-15)



def test_clustered_weight_is_the_gsm_weight_at_bandwidth_zero():
    # at bandwidth 0 (the dense preset) no coupling is left for the cluster rule to mask, and
    # gsm_clustered's diagonal sqrt(S_i) r_ii sqrt(S_i) is gsm's S_i, as r_ii = 1 up to roundoff
    rng = np.random.default_rng(17)
    n, K = 41, 20
    grid = _grid(n)
    members = np.where(grid.points < 0.0, 1.0, 0.8) + 0.05 * rng.standard_normal((K, n))
    gsm, clustered = (build_weight(ensemble_moments(members), _gsm_config(variant=variant), grid)
                      for variant in ("gsm", "gsm_clustered"))
    assert gsm.form == clustered.form == "band" and clustered.matrix.shape == (1, n)
    np.testing.assert_allclose(clustered.matrix, gsm.matrix, rtol=1e-12, atol=0.0)

    # a cell with no spread is excluded above because there the two differ outright: gsm keeps its S_i,
    # a second moment of differences, while the correlation factor zeroes its row (r_ii = 0), so the
    # clustered diagonal is the invertibility floor
    members[:, 5] = 0.9
    gsm, clustered = (build_weight(ensemble_moments(members), _gsm_config(variant=variant), grid)
                      for variant in ("gsm", "gsm_clustered"))
    assert clustered.matrix[0, 5] == 1e-12 * clustered.matrix.max() < 1e-6 * gsm.matrix[0, 5]
    others = np.arange(n) != 5
    np.testing.assert_allclose(clustered.matrix[0, others], gsm.matrix[0, others], rtol=1e-12, atol=0.0)


def test_full_weight_with_identity_correlation_reduces_to_diagonal():
    # members whose anomalies live on disjoint points have diagonal R-hat;
    # simpler: compare the no-mask full form against the diagonal form after
    # forcing the off-diagonal correlations to zero via clustering everywhere
    rng = np.random.default_rng(7)
    grid = _grid(21)
    ens = _random_ensemble(rng, 9, 21)
    W_diag = build_weight(ens, _gsm_config(localization_bandwidth=0), grid)
    W_full = build_weight(ens, _gsm_config(localization_bandwidth=None), grid)
    np.testing.assert_allclose(np.diag(W_full.toarray()), W_diag.toarray().diagonal(), rtol=1e-12)


def test_weight_symmetry():
    rng = np.random.default_rng(8)
    grid = _grid(29)
    for variant, bw in (("gsm", 0), ("gsm", 2), ("gsm", None), ("gsm_clustered", 2), ("gsm_clustered", None)):
        ens = _random_ensemble(rng, 7, 29)
        A = build_weight(ens, _gsm_config(variant=variant, localization_bandwidth=bw), grid).toarray()
        np.testing.assert_allclose(A, A.T, atol=1e-12 * np.abs(A).max())


def test_weight_psd_for_unmasked_and_clustered_forms():
    # Hadamard masking by the block "same smooth region" pattern preserves
    # positive semidefiniteness (the pattern itself is PSD); banded masks
    # do not, so those forms are checked for symmetry only.
    rng = np.random.default_rng(9)
    grid = _grid(27)
    for variant in ("gsm", "gsm_clustered"):
        for _ in range(5):
            ens = _random_ensemble(rng, 6, 27)
            W = build_weight(ens, _gsm_config(variant=variant, localization_bandwidth=None), grid)
            eigs = np.linalg.eigvalsh(W.toarray())
            assert eigs.min() >= -1e-10
            assert np.all(np.diag(W.toarray()) >= 0.0)


def test_diagonal_weight_psd():
    rng = np.random.default_rng(10)
    grid = _grid(23)
    W = build_weight(_random_ensemble(rng, 6, 23), _gsm_config(), grid)
    assert np.all(np.diag(W.toarray()) > 0.0)


def test_weight_floor_applied_to_flat_regions():
    # anomalies only on the left half: right-half variances are zero, so
    # the full-form diagonal gets the invertibility floor there
    rng = np.random.default_rng(11)
    n = 20
    members = np.zeros((6, n))
    members[:, : n // 2] = rng.standard_normal((6, n // 2))
    ens = ensemble_moments(members)
    grid = _grid(n)
    W = build_weight(ens, _gsm_config(localization_bandwidth=None), grid)
    d = np.diag(W.toarray())
    assert np.all(d > 0.0)
    assert d.min() == pytest.approx(1e-12 * d.max())


def test_weight_degenerate_flat_ensemble_rejected():
    grid = _grid(15)
    flat = ensemble_moments(np.full((4, 15), 0.7))
    with pytest.raises(NumericalError, match="gradient second moment is identically zero"):
        build_weight(flat, _gsm_config(), grid)


def test_weight_degenerate_no_spread_rejected_in_full_form():
    # identical members with a slope: gsm is positive but anomalies vanish
    grid = _grid(15)
    ens = ensemble_moments(np.tile(np.linspace(0, 1, 15), (4, 1)))
    with pytest.raises(NumericalError, match="no anomaly spread anywhere"):
        build_weight(ens, _gsm_config(localization_bandwidth=2), grid)


def test_weight_scale_overflow_from_roundoff_anomalies_rejected():
    # identical members whose mean rounds: the anomalies are roundoff, so the
    # largest weight diagonal is about 1e-22 and target / max overflows
    grid = _grid(21)
    ens = ensemble_moments(np.tile(np.linspace(0.8, 1.0, 21), (5, 1)))
    assert 0.0 < np.abs(ens.centered).max() < 1e-15
    for bandwidth in (1, None):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="overflows"):
                build_weight(ens, _gsm_config(localization_bandwidth=bandwidth, beta_max_target=1e300), grid)


def test_weight_wrong_variant_rejected():
    grid = _grid(15)
    ens = _random_ensemble(np.random.default_rng(12), 5, 15)
    with pytest.raises(ConfigError):
        build_weight(ens, FilterConfig(variant="etkf_baseline", alpha=1.5), grid)


def test_localization_identities():
    # bandwidth 0 keeps exactly the diagonal of the unmasked W; a mask at
    # least n-1 wide changes nothing
    rng = np.random.default_rng(13)
    grid = _grid(19)
    ens = _random_ensemble(rng, 25, 19)
    W_none = build_weight(ens, _gsm_config(localization_bandwidth=None), grid).toarray()
    W_zero = build_weight(ens, _gsm_config(localization_bandwidth=0), grid).toarray()
    W_wide = build_weight(ens, _gsm_config(localization_bandwidth=18), grid).toarray()
    np.testing.assert_allclose(W_zero, np.diag(np.diag(W_none)), rtol=1e-12)
    np.testing.assert_allclose(W_wide, W_none, rtol=1e-12)


# ------------------------------------------------------------ baseline weight


def test_covariance_weight_is_localized_sample_covariance():
    rng = np.random.default_rng(14)
    ens = _random_ensemble(rng, 10, 21)
    X = 1.5 * ens.centered
    C = X @ X.T
    for bandwidth in (0, 1, 5, None):
        W = covariance_weight(X, bandwidth)
        assert W.beta == 1.0
        np.testing.assert_allclose(W.toarray(), C * toeplitz_band_mask(21, bandwidth), atol=1e-15)


def test_covariance_weight_diagonal_matches_variance():
    rng = np.random.default_rng(15)
    ens = _random_ensemble(rng, 10, 21)
    from shockda.assimilation.ensemble import sample_variance_diag

    W = covariance_weight(ens.centered, 0)
    np.testing.assert_allclose(W.toarray().diagonal(), sample_variance_diag(ens), atol=1e-14)
