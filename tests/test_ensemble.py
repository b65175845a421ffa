"""Ensemble moments, gradient second moment, and correlation factor tests."""

import numpy as np
import pytest

from shockda.errors import ConfigError
from shockda.assimilation.ensemble import correlation_matrix_factor, ensemble_moments, gradient_second_moment, sample_variance_diag


def test_moments_mean_and_centered_shapes():
    members = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    ens = ensemble_moments(members)
    np.testing.assert_array_equal(ens.mean, [1.0, 1.0])
    assert ens.centered.shape == (2, 3)
    assert ens.members.shape == (3, 2)


def test_moments_identical_members_center_to_zero():
    members = np.tile(np.linspace(0, 1, 7), (4, 1))
    ens = ensemble_moments(members)
    np.testing.assert_array_equal(ens.centered, 0.0)


def test_moments_scalar_two_member_variance():
    # n=1, K=2, members {0, 2}: mean 1, sample variance 2
    ens = ensemble_moments(np.array([[0.0], [2.0]]))
    np.testing.assert_array_equal(ens.mean, [1.0])
    np.testing.assert_allclose(ens.covariance(), [[2.0]])
    np.testing.assert_allclose(sample_variance_diag(ens), [2.0])


def test_moments_rank_one_covariance():
    members = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    np.testing.assert_allclose(ensemble_moments(members).covariance(), [[1.0, 1.0], [1.0, 1.0]], atol=1e-15)


def test_moments_rejects_fewer_than_two_members():
    with pytest.raises(ConfigError):
        ensemble_moments(np.zeros((1, 3)))


def test_centered_columns_sum_to_zero():
    rng = np.random.default_rng(0)
    for _ in range(20):
        K = int(rng.integers(2, 12))
        n = int(rng.integers(1, 30))
        ens = ensemble_moments(rng.standard_normal((K, n)))
        assert np.max(np.abs(ens.centered.sum(axis=1))) < 1e-12
        np.testing.assert_allclose(ens.mean, ens.members.mean(axis=0), rtol=1e-13)


def test_variance_diag_matches_covariance_diagonal():
    rng = np.random.default_rng(1)
    for _ in range(20):
        ens = ensemble_moments(rng.standard_normal((6, 15)))
        np.testing.assert_allclose(sample_variance_diag(ens), np.diag(ens.covariance()), atol=1e-13)


def test_variance_diag_identical_members_zero():
    ens = ensemble_moments(np.ones((5, 8)))
    np.testing.assert_array_equal(sample_variance_diag(ens), 0.0)


# ------------------------------------------------------- gradient second moment


def test_gsm_constant_members_zero():
    ens = ensemble_moments(np.vstack([np.full(6, 0.3), np.full(6, 0.9)]))
    np.testing.assert_array_equal(gradient_second_moment(ens, 0.1), 0.0)


def test_gsm_single_member_hand_case():
    # member (0, 1, 3), dx=1: center values (1, 4), grid values (0.5, 2.5, 2.0)
    out = gradient_second_moment(np.array([[0.0, 1.0, 3.0]]), 1.0)
    np.testing.assert_array_equal(out, [0.5, 2.5, 2.0])


def test_gsm_two_member_hand_case():
    members = np.array([[0.0, 1.0, 1.0], [0.0, 0.0, 1.0]])
    # interface second moments: ((1^2 + 0^2)/2, (0^2 + 1^2)/2) = (0.5, 0.5)
    out = gradient_second_moment(members, 1.0)
    np.testing.assert_array_equal(out, [0.25, 0.5, 0.25])


def test_gsm_matches_direct_formula_on_random_ensembles():
    rng = np.random.default_rng(2)
    for _ in range(50):
        K = int(rng.integers(1, 9))
        n = int(rng.integers(2, 25))
        dx = float(rng.uniform(0.01, 2.0))
        members = rng.standard_normal((K, n))

        d = np.diff(members, axis=1) / dx
        centers = np.mean(d**2, axis=0)  # 1/K normalization
        expected = np.empty(n)
        expected[0] = 0.5 * centers[0]
        expected[-1] = 0.5 * centers[-1]
        expected[1:-1] = 0.5 * (centers[:-1] + centers[1:])

        out = gradient_second_moment(members, dx)
        np.testing.assert_allclose(out, expected, atol=1e-13)


def test_gsm_accepts_ensemble_or_raw_members():
    rng = np.random.default_rng(3)
    members = rng.standard_normal((5, 12))
    a = gradient_second_moment(members, 0.5)
    b = gradient_second_moment(ensemble_moments(members), 0.5)
    np.testing.assert_array_equal(a, b)


def test_gsm_peaks_at_step_location():
    rng = np.random.default_rng(4)
    base = np.where(np.arange(50) < 30, 1.0, 0.8)
    members = base + 0.001 * rng.standard_normal((20, 50))
    out = gradient_second_moment(members, 0.01)
    # the step sits between indices 29 and 30; both neighbors see the jump
    assert int(np.argmax(out)) in (29, 30)


def test_gsm_scales_quadratically_with_members():
    # gsm is a raw (uncentered) second moment of member gradients, so
    # scaling all members by c scales it by c^2
    rng = np.random.default_rng(5)
    members = rng.standard_normal((8, 20))
    np.testing.assert_allclose(
        gradient_second_moment(3.0 * members, 0.1),
        9.0 * gradient_second_moment(members, 0.1),
        rtol=1e-12,
    )


def test_gsm_anomaly_scaling_about_constant_mean():
    # with a gradient-free mean the member gradients are pure anomaly
    # gradients, so scaling the anomalies by c scales gsm by c^2
    rng = np.random.default_rng(12)
    anomalies = rng.standard_normal((6, 14))
    anomalies -= anomalies.mean(axis=0)
    members = 0.7 + anomalies
    scaled = 0.7 + 4.0 * anomalies
    np.testing.assert_allclose(
        gradient_second_moment(scaled, 0.2),
        16.0 * gradient_second_moment(members, 0.2),
        rtol=1e-12,
    )


def test_gsm_rejects_single_point():
    with pytest.raises(ConfigError):
        gradient_second_moment(np.ones((3, 1)), 0.1)


# ------------------------------------------------------------------ correlation


def test_correlation_factor_unit_diagonal():
    rng = np.random.default_rng(6)
    ens = ensemble_moments(1.0 + 0.1 * rng.standard_normal((10, 15)))
    Xt = correlation_matrix_factor(ens)
    R = Xt @ Xt.T
    np.testing.assert_allclose(np.diag(R), 1.0, atol=1e-12)


def test_correlation_factor_perfectly_correlated_rows():
    rng = np.random.default_rng(7)
    a = rng.standard_normal(6)
    members = np.column_stack([a, 2.0 * a, -a + 1.0])  # rows 0,1 correlated, row 2 anti
    ens = ensemble_moments(members)
    R = correlation_matrix_factor(ens) @ correlation_matrix_factor(ens).T
    assert R[0, 1] == pytest.approx(1.0, abs=1e-12)
    assert R[0, 2] == pytest.approx(-1.0, abs=1e-12)


def test_correlation_matches_direct_formula():
    rng = np.random.default_rng(8)
    for _ in range(20):
        members = rng.standard_normal((5, 9))
        ens = ensemble_moments(members)
        Xt = correlation_matrix_factor(ens)
        R = Xt @ Xt.T

        anomalies = members - members.mean(axis=0)
        cov = anomalies.T @ anomalies / 4.0
        sd = np.sqrt(np.diag(cov))
        expected = cov / np.outer(sd, sd)
        np.testing.assert_allclose(R, expected, atol=1e-12)


def test_correlation_zero_variance_row_floored_not_nan():
    members = np.zeros((4, 3))
    members[:, 1] = np.random.default_rng(9).standard_normal(4)
    ens = ensemble_moments(members)
    Xt = correlation_matrix_factor(ens)
    assert np.all(np.isfinite(Xt))
    R = Xt @ Xt.T
    assert R[0, 0] == 0.0  # flat row carries no correlation signal


def test_correlation_invariant_under_anomaly_scaling():
    rng = np.random.default_rng(10)
    members = 1.0 + 0.1 * rng.standard_normal((8, 12))
    mean = members.mean(axis=0)
    scaled = mean + 5.0 * (members - mean)
    Ra = correlation_matrix_factor(ensemble_moments(members))
    Rb = correlation_matrix_factor(ensemble_moments(scaled))
    np.testing.assert_allclose(Ra @ Ra.T, Rb @ Rb.T, atol=1e-12)
