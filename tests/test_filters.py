"""ETKF transform, analysis mean, and assimilation loop tests."""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from shockda.errors import ConfigError, NumericalError
from shockda.solver import Grid1D
from shockda.stoker import ObservationOperator, ObservationStream
from shockda.assimilation import (
    FilterConfig,
    analysis_mean,
    build_weight,
    covariance_weight,
    ensemble_moments,
    etkf_transform,
    run_baseline_filter,
    run_weighted_filter,
)
from shockda.assimilation.weights import WeightMatrix


def _centered(rng, n, K):
    members = rng.standard_normal((K, n))
    return ensemble_moments(members).centered


# -------------------------------------------------------------- etkf_transform


def test_transform_no_observation_is_identity():
    rng = np.random.default_rng(0)
    X = _centered(rng, 6, 4)
    H = ObservationOperator(np.array([], dtype=int), 6)
    Tsqrt = etkf_transform(X, H, 0.01**2)
    np.testing.assert_array_equal(Tsqrt, np.eye(4))


def test_transform_scalar_closed_form():
    # X = [a], H = 1, Gamma = gamma^2: T = 1/(1 + a^2/gamma^2)
    Tsqrt = etkf_transform(np.array([[1.0]]), ObservationOperator.dense(1), 1.0)
    assert (Tsqrt @ Tsqrt)[0, 0] == pytest.approx(0.5, abs=1e-15)
    assert Tsqrt[0, 0] == pytest.approx(np.sqrt(0.5), abs=1e-15)

    Tsqrt = etkf_transform(np.array([[2.0]]), ObservationOperator.dense(1), 0.5**2)
    assert (Tsqrt @ Tsqrt)[0, 0] == pytest.approx(1.0 / 17.0, rel=1e-14)


def test_transform_solves_definition():
    rng = np.random.default_rng(1)
    for _ in range(20):
        n, m, K = 8, 5, 6
        X = _centered(rng, n, K)
        H = ObservationOperator(np.sort(rng.choice(n, size=m, replace=False)), n)
        gamma_sq = float(rng.uniform(0.01, 2.0))
        Tsqrt = etkf_transform(X, H, gamma_sq)
        HX = H.apply(X.T).T
        A = np.eye(K) + HX.T @ HX / gamma_sq
        np.testing.assert_allclose(A @ (Tsqrt @ Tsqrt), np.eye(K), atol=1e-10)
        np.testing.assert_allclose(Tsqrt, Tsqrt.T, atol=1e-14)


def test_transform_posterior_covariance_matches_kalman_identity():
    # X X^T with X = Xhat Tsqrt equals (I - K H) Chat for the Kalman gain
    # K = Chat H^T (H Chat H^T + Gamma)^{-1}
    rng = np.random.default_rng(2)
    for _ in range(50):
        n, m, K = 4, 2, 3
        X = _centered(rng, n, K)
        H = ObservationOperator(np.sort(rng.choice(n, size=m, replace=False)), n)
        gamma_sq = float(rng.uniform(0.05, 1.0))
        Tsqrt = etkf_transform(X, H, gamma_sq)

        Hm = H.matrix()
        C = X @ X.T
        S = Hm @ C @ Hm.T + gamma_sq * np.eye(m)
        gain = C @ Hm.T @ np.linalg.inv(S)
        posterior = (X @ Tsqrt) @ (X @ Tsqrt).T
        np.testing.assert_allclose(posterior, (np.eye(n) - gain @ Hm) @ C, atol=1e-10)


def test_transform_preserves_zero_column_sums():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(3, 20))
        K = int(rng.integers(2, 10))
        m = int(rng.integers(1, n + 1))
        X = _centered(rng, n, K)
        H = ObservationOperator(np.sort(rng.choice(n, size=m, replace=False)), n)
        Tsqrt = etkf_transform(X, H, 0.01)
        posterior_anomalies = X @ Tsqrt
        assert np.max(np.abs(posterior_anomalies.sum(axis=1))) < 1e-12


def test_transform_gamma_validation():
    # Gamma = gamma^2 I: a non-positive or non-scalar gamma^2 is a config
    # error in both the transform and the mean (a 1-D array with m == K
    # would otherwise broadcast along the ensemble axis)
    rng = np.random.default_rng(4)
    X = _centered(rng, 5, 5)
    H = ObservationOperator.dense(5)
    W = np.eye(5)
    for gamma_sq in (0.0, -1.0, np.full(5, 0.01), 0.01 * np.eye(5)):
        with pytest.raises(ConfigError):
            etkf_transform(X, H, gamma_sq)
        with pytest.raises(ConfigError):
            analysis_mean(np.zeros(5), np.ones(5), H, gamma_sq, W)


# -------------------------------------------------------------- analysis_mean


def test_analysis_scalar_closed_form():
    # m = (gamma^2 m_hat + w y) / (gamma^2 + w); with m_hat=0, y=1, w=gamma^2: 0.5
    H = ObservationOperator.dense(1)
    m = analysis_mean(np.array([0.0]), np.array([1.0]), H, 0.04, np.array([[0.04]]))
    assert m[0] == pytest.approx(0.5, abs=1e-15)

    m = analysis_mean(np.array([2.0]), np.array([1.0]), H, 0.01, np.array([[0.03]]))
    assert m[0] == pytest.approx((0.01 * 2.0 + 0.03 * 1.0) / 0.04, rel=1e-14)


def test_analysis_uninformative_observations_keep_prior():
    rng = np.random.default_rng(6)
    n = 8
    m_hat = rng.standard_normal(n)
    W = np.eye(n) * 0.5
    H = ObservationOperator.dense(n)
    y = m_hat + rng.standard_normal(n)
    out = analysis_mean(m_hat, y, H, 1e12, W)
    np.testing.assert_allclose(out, m_hat, rtol=1e-6)


def test_analysis_matches_normal_equations_oracle():
    # SMW form vs the direct regularized normal-equation solve
    rng = np.random.default_rng(7)
    for _ in range(30):
        n = int(rng.integers(2, 20))
        m = int(rng.integers(1, n + 1))
        A = rng.standard_normal((n, 2 * n))
        W = A @ A.T / (2 * n) + 0.1 * np.eye(n)
        H = ObservationOperator(np.sort(rng.choice(n, size=m, replace=False)), n)
        gamma_sq = float(rng.uniform(0.05, 2.0))
        m_hat = rng.standard_normal(n)
        y = rng.standard_normal(m)

        out = analysis_mean(m_hat, y, H, gamma_sq, W)

        Hm = H.matrix()
        lhs = Hm.T @ Hm / gamma_sq + np.linalg.inv(W)
        rhs = Hm.T @ y / gamma_sq + np.linalg.solve(W, m_hat)
        expected = np.linalg.solve(lhs, rhs)
        np.testing.assert_allclose(out, expected, rtol=1e-10, atol=1e-12)


def test_analysis_accepts_weightmatrix_and_sparse():
    rng = np.random.default_rng(8)
    grid = Grid1D(n=21, x_min=-1.0, x_max=1.0)
    ens = ensemble_moments(1.0 + 0.1 * rng.standard_normal((30, 21)))
    cfg = FilterConfig(variant="gsm", localization_bandwidth=2, beta_max_target=0.003)
    W = build_weight(ens, cfg, grid)
    H = ObservationOperator.every_other(21)
    y = rng.standard_normal(H.m)
    m_hat = rng.standard_normal(21)
    out_sparse = analysis_mean(m_hat, y, H, 0.01, W)
    out_dense = analysis_mean(m_hat, y, H, 0.01, W.toarray())
    np.testing.assert_allclose(out_sparse, out_dense, atol=1e-14)


@pytest.mark.parametrize("gamma_kind", ["scalar"])  # Gamma = gamma^2 I, the one form the filter takes
@pytest.mark.parametrize("wide", [False, True], ids=["K<n", "K>n"])
@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 25), extra=st.integers(0, 30), seed=st.integers(0, 2**32 - 1))
def test_lowrank_mean_matches_dense_weight(gamma_kind, wide, n, extra, seed):
    # the K x K ensemble-space solve for W = X X^T against the m x m
    # innovation solve on the materialized W
    rng = np.random.default_rng(seed)
    K = n + 1 + extra if wide else 1 + extra % (n - 1)
    X = rng.standard_normal((n, K)) / np.sqrt(K)
    m = int(rng.integers(1, n + 1))
    H = ObservationOperator(np.sort(rng.choice(n, size=m, replace=False)), n)
    gamma_sq = float(rng.uniform(0.05, 2.0))
    m_hat = rng.standard_normal(n)
    y = rng.standard_normal(m)

    W = covariance_weight(X, None)
    assert W.form == "lowrank"
    Wd = W.toarray()
    np.testing.assert_array_equal(Wd, X @ X.T)
    np.testing.assert_allclose(W.diagonal(), np.diagonal(Wd), rtol=1e-12)
    assert W.max_entry() == pytest.approx(Wd.max(), rel=1e-12)

    out = analysis_mean(m_hat, y, H, gamma_sq, W)
    dense = analysis_mean(m_hat, y, H, gamma_sq, Wd)
    assert np.linalg.norm(out - dense) <= 1e-10 * np.linalg.norm(dense)


def test_diagonal_innovation_shortcut_matches_dense_path(monkeypatch):
    # a sparse W whose observed block H W H^T is diagonal is solved without
    # Cholesky; a block with off-diagonal entries still takes the m x m path
    cholesky_calls = []
    cho_factor = scipy.linalg.cho_factor
    monkeypatch.setattr(
        scipy.linalg, "cho_factor", lambda *a, **kw: cholesky_calls.append(1) or cho_factor(*a, **kw)
    )
    rng = np.random.default_rng(16)
    n = 31
    grid = Grid1D(n=n, x_min=-1.0, x_max=1.0)
    ens = ensemble_moments(np.where(grid.points < 0.0, 1.0, 0.6) + 0.05 * rng.standard_normal((40, n)))
    every_other, dense_obs = ObservationOperator.every_other(n), ObservationOperator.dense(n)
    cases = [
        (build_weight(ens, FilterConfig(variant="gsm", localization_bandwidth=1), grid), every_other, True),
        (build_weight(ens, FilterConfig(variant="gsm_clustered", localization_bandwidth=1), grid), every_other, True),
        (covariance_weight(1.3 * ens.centered, 1), every_other, True),
        (build_weight(ens, FilterConfig(variant="gsm", localization_bandwidth=0), grid), dense_obs, True),
        (covariance_weight(1.5 * ens.centered, 0), dense_obs, True),
        (build_weight(ens, FilterConfig(variant="gsm", localization_bandwidth=2), grid), every_other, False),
    ]
    for W, H, diagonal_block in cases:
        block = W.toarray()[np.ix_(H.indices, H.indices)]
        assert np.array_equal(block, np.diag(np.diag(block))) == diagonal_block
        m_hat = ens.mean + 0.01 * rng.standard_normal(n)
        y = H.apply(ens.mean) + 0.01 * rng.standard_normal(H.m)
        cholesky_calls.clear()
        out = analysis_mean(m_hat, y, H, 0.01**2, W)
        assert bool(cholesky_calls) != diagonal_block
        expected = analysis_mean(m_hat, y, H, 0.01**2, W.toarray())
        np.testing.assert_allclose(out, expected, rtol=1e-12, atol=1e-12)


def test_analysis_indefinite_but_nonsingular_weight_still_solves():
    # band-masked covariances can be indefinite; the SMW identity only
    # needs the innovation system to be nonsingular
    n = 6
    W = np.eye(n)
    W[0, 1] = W[1, 0] = 3.0  # eigenvalues -2 and 4 in that block
    H = ObservationOperator.dense(n)
    m_hat = np.zeros(n)
    y = np.ones(n)
    out = analysis_mean(m_hat, y, H, 1.0, W)
    expected = W @ np.linalg.solve(W + np.eye(n), y)
    np.testing.assert_allclose(out, expected, atol=1e-12)


def test_analysis_singular_system_raises():
    n = 3
    W = -np.eye(n)  # makes H W H^T + Gamma exactly singular for Gamma = I
    H = ObservationOperator.dense(n)
    with pytest.raises(NumericalError):
        analysis_mean(np.zeros(n), np.ones(n), H, 1.0, W)
    with pytest.raises(NumericalError):  # the same system on the diagonal path
        analysis_mean(np.zeros(n), np.ones(n), H, 1.0, sp.csr_matrix(W))


def test_clustered_analysis_leaves_unobserved_jump_cells_unchanged():
    # the clustered weight severs every coupling inside and across r_d, so
    # under every-other observations and a tridiagonal band the unobserved
    # r_d cells have no observed neighbour to draw an increment from
    rng = np.random.default_rng(11)
    n = 41
    grid = Grid1D(n=n, x_min=-1.0, x_max=1.0)
    members = np.where(grid.points < 0.0, 1.0, 0.5) + 0.05 * rng.standard_normal((50, n))
    ens = ensemble_moments(members)
    cfg = FilterConfig(variant="gsm_clustered", localization_bandwidth=1, dist=1, beta_max_target=0.003)
    W = build_weight(ens, cfg, grid)
    H = ObservationOperator.every_other(n)
    y = H.apply(ens.mean) + 0.1 * rng.standard_normal(H.m)

    increment = analysis_mean(ens.mean, y, H, 0.01**2, W) - ens.mean

    r_d = W.partition.r_d
    observed = np.isin(r_d, H.indices)
    assert observed.any() and not observed.all()
    np.testing.assert_array_equal(increment[r_d[~observed]], 0.0)
    assert np.all(increment[r_d[observed]] != 0.0)


# ----------------------------------------------------------- assimilation loop


def _identity_dynamics(members, step):
    return members


def _make_stream(truth, times, H, gamma, rng=None, exact=False):
    if exact:
        values = np.tile(H.apply(truth), (len(times), 1))
    else:
        values = H.apply(truth) + gamma * rng.standard_normal((len(times), H.m))
    return ObservationStream(times=np.asarray(times), operator=H, gamma=gamma, values=values, seed=0)


def test_static_estimation_converges_monotonically():
    # zero dynamics, constant truth, exact observations: baseline posterior
    # error decreases at every assimilation time; K > n keeps the prior
    # weight full rank so no error component survives in a null space
    rng = np.random.default_rng(9)
    n, K = 15, 40
    grid = Grid1D(n=n, x_min=-1.0, x_max=1.0)
    truth = np.full(n, 0.9)
    members = truth + 0.1 * rng.standard_normal((K, n))
    H = ObservationOperator.dense(n)
    stream = _make_stream(truth, np.linspace(0.1, 0.8, 8), H, gamma=0.01, exact=True)
    cfg = FilterConfig(variant="etkf_baseline", alpha=1.5, localization_bandwidth=None)
    run = run_baseline_filter(members, _identity_dynamics, stream, cfg, grid, steps_per_obs=1)

    errors = [np.linalg.norm(r.posterior_mean - truth) / np.linalg.norm(truth) for r in run.records]
    assert all(errors[i + 1] < errors[i] for i in range(len(errors) - 1))
    assert errors[-1] < 1e-6
    assert errors[-1] < errors[0] / 100.0


def test_posterior_ensemble_mean_equals_analysis_mean():
    rng = np.random.default_rng(10)
    n, K = 25, 8
    grid = Grid1D(n=n, x_min=-1.0, x_max=1.0)
    truth = np.where(grid.points < 0, 1.0, 0.8)
    members = truth + 0.1 * rng.standard_normal((K, n))
    H = ObservationOperator.every_other(n)
    stream = _make_stream(truth, [0.1, 0.2, 0.3], H, gamma=0.01, rng=rng)

    for cfg, runner in (
        (FilterConfig(variant="etkf_baseline", alpha=1.3, localization_bandwidth=1), run_baseline_filter),
        (FilterConfig(variant="gsm", beta_max_target=0.003, localization_bandwidth=0), run_weighted_filter),
        (FilterConfig(variant="gsm_clustered", beta_max_target=0.0027, localization_bandwidth=1, dist=1), run_weighted_filter),
    ):
        run = runner(members, _identity_dynamics, stream, cfg, grid, steps_per_obs=1)
        np.testing.assert_allclose(run.ensemble.mean, run.records[-1].posterior_mean, atol=1e-12)


def test_filter_runs_are_deterministic():
    rng = np.random.default_rng(11)
    n, K = 21, 6
    grid = Grid1D(n=n, x_min=-1.0, x_max=1.0)
    truth = np.where(grid.points < 0, 1.0, 0.8)
    members = truth + 0.1 * rng.standard_normal((K, n))
    H = ObservationOperator.dense(n)
    stream = _make_stream(truth, [0.1, 0.2], H, gamma=0.01, rng=rng)
    cfg = FilterConfig(variant="gsm", localization_bandwidth=0)

    a = run_weighted_filter(members, _identity_dynamics, stream, cfg, grid, steps_per_obs=2)
    b = run_weighted_filter(members, _identity_dynamics, stream, cfg, grid, steps_per_obs=2)
    for ra, rb in zip(a.records, b.records):
        np.testing.assert_array_equal(ra.posterior_mean, rb.posterior_mean)
    np.testing.assert_array_equal(a.ensemble.members, b.ensemble.members)


def test_dynamics_called_between_observations_with_global_step():
    calls = []

    def recording_dynamics(members, step):
        calls.append(step)
        return members

    rng = np.random.default_rng(12)
    n, K = 15, 4
    grid = Grid1D(n=n, x_min=-1.0, x_max=1.0)
    truth = np.full(n, 1.0)
    members = truth + 0.1 * rng.standard_normal((K, n))
    H = ObservationOperator.dense(n)
    stream = _make_stream(truth, [0.1, 0.2, 0.3], H, gamma=0.01, rng=rng)
    cfg = FilterConfig(variant="gsm", localization_bandwidth=0)
    run_weighted_filter(members, recording_dynamics, stream, cfg, grid, steps_per_obs=5)
    assert calls == list(range(15))


def test_filter_variant_mismatch_rejected():
    rng = np.random.default_rng(13)
    grid = Grid1D(n=15, x_min=-1.0, x_max=1.0)
    members = 1.0 + 0.1 * rng.standard_normal((4, 15))
    H = ObservationOperator.dense(15)
    stream = _make_stream(np.ones(15), [0.1], H, gamma=0.01, rng=rng)
    with pytest.raises(ConfigError):
        run_baseline_filter(members, _identity_dynamics, stream, FilterConfig(variant="gsm"), grid)
    with pytest.raises(ConfigError):
        run_weighted_filter(members, _identity_dynamics, stream, FilterConfig(variant="etkf_baseline", alpha=1.5), grid)


def test_filter_iteration_interface_and_diagnostics():
    rng = np.random.default_rng(14)
    n, K = 21, 6
    grid = Grid1D(n=n, x_min=-1.0, x_max=1.0)
    truth = np.where(grid.points < 0, 1.0, 0.8)
    members = truth + 0.05 * rng.standard_normal((K, n))
    H = ObservationOperator.every_other(n)
    times = [0.1, 0.2]
    stream = _make_stream(truth, times, H, gamma=0.01, rng=rng)
    cfg = FilterConfig(variant="gsm_clustered", localization_bandwidth=1, dist=2, beta_max_target=0.0027)
    run = run_weighted_filter(members, _identity_dynamics, stream, cfg, grid, steps_per_obs=1)

    assert [r.t for r in run.records] == times
    for r in run.records:
        assert r.prior_mean.shape == (n,)
        assert r.posterior_mean.shape == (n,)
        assert r.diagnostics["form"] == "clustered"
        assert r.diagnostics["w_max"] == pytest.approx(0.0027, rel=1e-12)
        assert 0 <= r.diagnostics["xi"] < n
    np.testing.assert_array_equal(run.times, times)


def test_weighted_filter_reduces_error_against_baseline_static():
    # static dense-observation problem with a step profile: the gradient
    # weighted analysis tracks the truth at least as well as inflation
    rng = np.random.default_rng(15)
    n, K = 41, 20
    grid = Grid1D(n=n, x_min=-1.0, x_max=1.0)
    truth = np.where(grid.points < 0, 1.0, 0.8)
    members = truth + 0.1 * rng.standard_normal((K, n))
    H = ObservationOperator.dense(n)
    times = np.linspace(0.05, 0.5, 10)
    stream = _make_stream(truth, times, H, gamma=0.01, rng=rng)

    base = run_baseline_filter(
        members, _identity_dynamics, stream,
        FilterConfig(variant="etkf_baseline", alpha=1.5, localization_bandwidth=0), grid, steps_per_obs=1,
    )
    weighted = run_weighted_filter(
        members, _identity_dynamics, stream,
        FilterConfig(variant="gsm", beta_max_target=0.003, localization_bandwidth=0), grid, steps_per_obs=1,
    )
    err = lambda run: np.mean([np.linalg.norm(r.posterior_mean - truth) for r in run.records])
    assert err(weighted) < 2.0 * err(base)  # sanity bracket, not a benchmark
