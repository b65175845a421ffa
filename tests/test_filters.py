"""ETKF transform, analysis mean, and assimilation loop tests."""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from shockda.errors import ConfigError, NumericalError
from shockda.harness.config import CASES, ExperimentConfig
from shockda.harness.experiments import build_initial_ensemble, generate_truth
from shockda.solver import Grid1D, Workspace, transport_step
from shockda.stoker import ObservationOperator, synthesize_observations
from shockda.assimilation.ensemble import correlation_matrix_factor, ensemble_moments, gradient_second_moment
from shockda.assimilation import filters
from shockda.assimilation.filters import analysis_mean, etkf_transform, run_baseline_filter, run_weighted_filter
from shockda.assimilation.weights import (
    FilterConfig,
    WeightMatrix,
    build_weight,
    cluster_regions,
    coupled,
    covariance_weight,
    detect_discontinuity,
    mask_correlations,
)


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


def test_analysis_banded_weightmatrix_matches_dense_array():
    rng = np.random.default_rng(8)
    grid = Grid1D(n=21)
    ens = ensemble_moments(1.0 + 0.1 * rng.standard_normal((30, 21)))
    cfg = FilterConfig(variant="gsm", localization_bandwidth=2, beta_max_target=0.003)
    W = build_weight(ens, cfg, grid)
    H = ObservationOperator.every_other(21)
    y = rng.standard_normal(H.m)
    m_hat = rng.standard_normal(21)
    out_banded = analysis_mean(m_hat, y, H, 0.01, W)
    out_dense = analysis_mean(m_hat, y, H, 0.01, W.toarray())
    np.testing.assert_allclose(out_banded, out_dense, atol=1e-14)


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

    out = analysis_mean(m_hat, y, H, gamma_sq, W)
    dense = analysis_mean(m_hat, y, H, gamma_sq, Wd)
    assert np.linalg.norm(out - dense) <= 1e-10 * np.linalg.norm(dense)


def test_diagonal_innovation_shortcut_matches_dense_path(monkeypatch):
    # a band W whose observed block H W H^T is diagonal is solved without
    # a matrix solve; a block with off-diagonal entries still takes the
    # m x m path; neither densifies W
    solve_calls = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda *a, **kw: solve_calls.append(1) or solve(*a, **kw))
    rng = np.random.default_rng(16)
    n = 31
    grid = Grid1D(n=n)
    ens = ensemble_moments(np.where(grid.points < 0.0, 1.0, 0.6) + 0.05 * rng.standard_normal((40, n)))
    every_other, dense_obs = ObservationOperator.every_other(n), ObservationOperator.dense(n)
    cases = [
        (build_weight(ens, FilterConfig(variant="gsm", localization_bandwidth=1), grid), every_other, True),
        (build_weight(ens, FilterConfig(variant="gsm_clustered", localization_bandwidth=1), grid), every_other, True),
        (covariance_weight(1.3 * ens.centered, 1), every_other, True),
        (build_weight(ens, FilterConfig(variant="gsm", localization_bandwidth=0), grid), dense_obs, True),
        (covariance_weight(1.5 * ens.centered, 0), dense_obs, True),
        (build_weight(ens, FilterConfig(variant="gsm", localization_bandwidth=2), grid), every_other, False),
        (build_weight(ens, FilterConfig(variant="gsm_clustered", localization_bandwidth=1), grid), dense_obs, False),
        (build_weight(ens, FilterConfig(variant="gsm", localization_bandwidth=n - 1), grid), every_other, False),
        (build_weight(ens, FilterConfig(variant="gsm_clustered", localization_bandwidth=None), grid), dense_obs, False),
    ]
    for W, H, diagonal_block in cases:
        block = W.toarray()[np.ix_(H.indices, H.indices)]
        assert np.array_equal(block, np.diag(np.diag(block))) == diagonal_block
        m_hat = ens.mean + 0.01 * rng.standard_normal(n)
        y = H.apply(ens.mean) + 0.01 * rng.standard_normal(H.m)
        expected = analysis_mean(m_hat, y, H, 0.01**2, W.toarray())
        solve_calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(WeightMatrix, "toarray", lambda self: pytest.fail("the band path densified W"))
            out = analysis_mean(m_hat, y, H, 0.01**2, W)
        assert bool(solve_calls) != diagonal_block
        np.testing.assert_allclose(out, expected, rtol=1e-12, atol=1e-12)


# The reference below is the former scipy.sparse storage of banded weights:
# diagonals assembled by sp.diags into CSR, and the mean solved through the
# CSC columns of W H^T.  Band arrays must reproduce it bit for bit.


def _reference_bands(F, bandwidth, band_mask=None):
    n = F.shape[0]
    bands = []
    for d in range(bandwidth + 1):
        band = np.einsum("ik,ik->i", F[: n - d], F[d:])
        if band_mask is not None and d > 0:
            band = band * band_mask(d)
        bands.append(band)
    return bands


def _reference_csr(bands, n):
    diagonals, offsets = [bands[0]], [0]
    for d in range(1, len(bands)):
        diagonals.extend([bands[d], bands[d]])
        offsets.extend([d, -d])
    return sp.diags(diagonals, offsets, shape=(n, n), format="csr")


def _reference_weight(kind, ens, bandwidth, grid, target=0.003):
    if kind == "covariance":
        return _reference_csr(_reference_bands(1.3 * ens.centered, bandwidth), grid.n)
    S = gradient_second_moment(ens.members, grid.dx)
    n = S.size
    if kind == "gsm" and bandwidth == 0:
        bands = [S]
    else:
        F = np.sqrt(S)[:, None] * correlation_matrix_factor(ens)
        band_mask = None
        if kind == "gsm_clustered":
            ids = cluster_regions(detect_discontinuity(ens.mean, grid.dx), 1, n)

            def band_mask(d):
                return coupled(ids[: n - d], ids[d:]).astype(float)

        bands = _reference_bands(F, bandwidth, band_mask)
    beta = target / bands[0].max()
    diag = beta * bands[0]
    diag = np.where(diag == 0.0, 1e-12 * diag.max(), diag)
    return _reference_csr([diag] + [beta * b for b in bands[1:]], n)


def _reference_mean(m_hat, y, H, gamma_sq, W):
    idx = H.indices
    innovation = y - m_hat[idx]
    WHt = W.tocsc()[:, idx]
    S_obs = WHt.tocsr()[idx]
    coo = S_obs.tocoo()
    if not np.any(coo.data[coo.row != coo.col]):
        return m_hat + WHt @ (innovation / (S_obs.diagonal() + gamma_sq))
    S = S_obs.toarray()
    S[np.diag_indices_from(S)] += gamma_sq
    return m_hat + WHt @ np.linalg.solve(S, innovation)


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(["gsm", "gsm_clustered", "covariance"]),
    bandwidth=st.integers(0, 3),
    obs=st.sampled_from(["dense", "every_other", "random"]),
    n=st.integers(11, 30),
    seed=st.integers(0, 2**32 - 1),
)
def test_band_weight_matches_former_sparse_storage(kind, bandwidth, obs, n, seed):
    # every bandwidth drawn is below n-1 (unmasked weights are low rank, tested below)
    rng = np.random.default_rng(seed)
    grid = Grid1D(n=n)
    ens = ensemble_moments(np.where(grid.points < 0.0, 1.0, 0.6) + 0.05 * rng.standard_normal((8, n)))
    if kind == "covariance":
        W = covariance_weight(1.3 * ens.centered, bandwidth)
    else:
        W = build_weight(ens, FilterConfig(variant=kind, localization_bandwidth=bandwidth, dist=1), grid)
    ref = _reference_weight(kind, ens, bandwidth, grid)
    assert W.matrix.shape == (bandwidth + 1, n)
    assert np.array_equal(W.toarray(), ref.toarray())

    if obs == "dense":
        H = ObservationOperator.dense(n)
    elif obs == "every_other":
        H = ObservationOperator.every_other(n)
    else:
        H = ObservationOperator(np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)), n)
    block = W.observed_block(H.indices)
    assert np.array_equal(np.diag(block) if block.ndim == 1 else block, ref.toarray()[np.ix_(H.indices, H.indices)])
    m_hat = ens.mean + 0.01 * rng.standard_normal(n)
    y = H.apply(ens.mean) + 0.01 * rng.standard_normal(H.m)
    assert np.array_equal(analysis_mean(m_hat, y, H, 0.01**2, W), _reference_mean(m_hat, y, H, 0.01**2, ref))


def test_band_width_at_least_n_minus_one_is_the_unmasked_lowrank_weight():
    # a mask at least n-1 wide masks nothing: every variant gives the weight
    # of bandwidth None, the low-rank factor (n x K, n x 2K when clustered)
    # plus a diagonal, and no band array is built
    rng = np.random.default_rng(17)
    n, K = 11, 12
    grid = Grid1D(n=n)
    ens = ensemble_moments(np.where(grid.points < 0.0, 1.0, 0.6) + 0.1 * rng.standard_normal((K, n)))
    X = 1.3 * ens.centered
    for variant, factor_shape in (("etkf_baseline", (n, K)), ("gsm", (n, K)), ("gsm_clustered", (n, 2 * K))):

        def weight(bandwidth):
            if variant == "etkf_baseline":
                return covariance_weight(X, bandwidth)
            return build_weight(ens, FilterConfig(variant=variant, localization_bandwidth=bandwidth), grid)

        unmasked = weight(None)
        assert unmasked.form == "lowrank" and unmasked.matrix.shape == factor_shape
        assert (unmasked.xi is not None) == (variant == "gsm_clustered")
        for bandwidth in (n - 1, n, 3 * n):
            W = weight(bandwidth)
            assert W.form == "lowrank"
            assert np.array_equal(W.matrix, unmasked.matrix) and W.beta == unmasked.beta
            assert np.array_equal(W.D, unmasked.D)
    np.testing.assert_array_equal(covariance_weight(X, n).D, np.zeros(n))


@settings(max_examples=150, deadline=None)
@given(
    variant=st.sampled_from(["gsm", "gsm_clustered"]),
    obs=st.sampled_from(["dense", "every_other", "random"]),
    n=st.integers(11, 30),
    seed=st.integers(0, 2**32 - 1),
)
def test_lowrank_plus_diagonal_mean_matches_dense_weight(variant, obs, n, seed):
    # the K-space Woodbury solve of W = beta G G^T + diag(D) against the
    # m x m solve on the materialized W, relative tolerance 1e-12
    rng = np.random.default_rng(seed)
    grid = Grid1D(n=n)
    ens = ensemble_moments(np.where(grid.points < 0.0, 1.0, 0.6) + 0.05 * rng.standard_normal((8, n)))
    W = build_weight(ens, FilterConfig(variant=variant, localization_bandwidth=None, dist=1), grid)
    assert W.form == "lowrank"
    if obs == "dense":
        H = ObservationOperator.dense(n)
    elif obs == "every_other":
        H = ObservationOperator.every_other(n)
    else:
        H = ObservationOperator(np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)), n)
    m_hat = ens.mean + 0.01 * rng.standard_normal(n)
    y = H.apply(ens.mean) + 0.01 * rng.standard_normal(H.m)
    out = analysis_mean(m_hat, y, H, 0.01**2, W)
    dense = analysis_mean(m_hat, y, H, 0.01**2, W.toarray())
    np.testing.assert_allclose(out, dense, rtol=1e-12, atol=0.0)


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
        analysis_mean(np.zeros(n), np.ones(n), H, 1.0, WeightMatrix("band", -np.ones((1, n)), 1.0))


def test_clustered_analysis_leaves_unobserved_jump_cells_unchanged():
    # the clustered weight severs every coupling inside and across the jump
    # region r_d, so under every-other observations and a tridiagonal band
    # the unobserved r_d cells have no observed neighbour to draw an increment from
    rng = np.random.default_rng(11)
    n = 41
    grid = Grid1D(n=n)
    members = np.where(grid.points < 0.0, 1.0, 0.5) + 0.05 * rng.standard_normal((50, n))
    ens = ensemble_moments(members)
    cfg = FilterConfig(variant="gsm_clustered", localization_bandwidth=1, dist=1, beta_max_target=0.003)
    W = build_weight(ens, cfg, grid)
    H = ObservationOperator.every_other(n)
    y = H.apply(ens.mean) + 0.1 * rng.standard_normal(H.m)

    increment = analysis_mean(ens.mean, y, H, 0.01**2, W) - ens.mean

    r_d = np.flatnonzero(cluster_regions(W.xi, 1, n) == 1)
    observed = np.isin(r_d, H.indices)
    assert observed.any() and not observed.all()
    np.testing.assert_array_equal(increment[r_d[~observed]], 0.0)
    assert np.all(increment[r_d[observed]] != 0.0)


# ----------------------------------------------------------- assimilation loop


def _identity_dynamics(members, step):
    return members


def _make_stream(truth, times, H, gamma, rng=None, exact=False):
    """The filter's observation arguments (y, H, gamma^2), one row of y per time."""
    if exact:
        y = np.tile(H.apply(truth), (len(times), 1))
    else:
        y = H.apply(truth) + gamma * rng.standard_normal((len(times), H.m))
    return y, H, gamma**2


def test_static_estimation_converges_monotonically():
    # zero dynamics, constant truth, exact observations: baseline posterior
    # error decreases at every assimilation time; K > n keeps the prior
    # weight full rank so no error component survives in a null space
    rng = np.random.default_rng(9)
    n, K = 15, 40
    grid = Grid1D(n=n)
    truth = np.full(n, 0.9)
    members = truth + 0.1 * rng.standard_normal((K, n))
    H = ObservationOperator.dense(n)
    stream = _make_stream(truth, np.linspace(0.1, 0.8, 8), H, gamma=0.01, exact=True)
    cfg = FilterConfig(variant="etkf_baseline", alpha=1.5, localization_bandwidth=None)
    posterior = run_baseline_filter(members, _identity_dynamics, *stream, cfg, grid, steps_per_obs=1, snapshots=())[1]

    errors = [np.linalg.norm(m - truth) / np.linalg.norm(truth) for m in posterior]
    assert all(errors[i + 1] < errors[i] for i in range(len(errors) - 1))
    assert errors[-1] < 1e-6
    assert errors[-1] < errors[0] / 100.0


def _members_seen(handed):
    """Identity dynamics that appends a copy of each member stack it is handed to ``handed``."""

    def dynamics(members, step):
        handed.append(np.array(members))
        return members

    return dynamics


def test_posterior_ensemble_mean_equals_analysis_mean():
    # identity dynamics hand cycle j + 1 the posterior members of cycle j unchanged
    rng = np.random.default_rng(10)
    n, K = 25, 8
    grid = Grid1D(n=n)
    truth = np.where(grid.points < 0, 1.0, 0.8)
    members = truth + 0.1 * rng.standard_normal((K, n))
    H = ObservationOperator.every_other(n)
    stream = _make_stream(truth, [0.1, 0.2, 0.3], H, gamma=0.01, rng=rng)

    for cfg, runner in (
        (FilterConfig(variant="etkf_baseline", alpha=1.3, localization_bandwidth=1), run_baseline_filter),
        (FilterConfig(variant="gsm", beta_max_target=0.003, localization_bandwidth=0), run_weighted_filter),
        (FilterConfig(variant="gsm_clustered", beta_max_target=0.0027, localization_bandwidth=1, dist=1), run_weighted_filter),
    ):
        handed = []
        posterior_mean = runner(members, _members_seen(handed), *stream, cfg, grid, steps_per_obs=1, snapshots=())[1]
        assert len(handed) == len(posterior_mean) == 3
        for posterior, m in zip(handed[1:], posterior_mean):
            np.testing.assert_allclose(ensemble_moments(posterior).mean, m, atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(11, 16), k_minus_n=st.integers(-8, 6), obs=st.sampled_from(["dense", "every_other", "random"]),
       alpha=st.floats(1.01, 1.6), bandwidth=st.sampled_from([None, 0, 1, 2]), gamma=st.sampled_from([0.05, 0.2, 1.0]),
       seed=st.integers(0, 2**32 - 1))
def test_baseline_filter_under_linear_dynamics_follows_the_kalman_recursion(n, k_minus_n, obs, alpha, bandwidth,
                                                                             gamma, seed):
    # with linear dynamics the ETKF baseline is a deterministic square-root filter: its mean follows
    # m <- M^s m, P_f = alpha^2 M^s P M^sT, m <- m + W H^T (H W H^T + gamma^2 I)^-1 (y - H m) with the masked
    # W = P_f o T, and P <- P_f - P_f H^T (H P_f H^T + gamma^2 I)^-1 H P_f with the unmasked P_f, as the
    # transform sees the anomalies alone; K on either side of n
    rng = np.random.default_rng(seed)
    K, steps_per_obs, cycles = max(2, n + k_minus_n), 2, 4
    M = rng.standard_normal((n, n))
    M *= 0.9 / np.linalg.norm(M, 2)  # contracting
    if obs == "random":
        H = ObservationOperator(np.sort(rng.choice(n, size=rng.integers(1, n + 1), replace=False)), n)
    else:
        H = getattr(ObservationOperator, obs)(n)
    obs = 1.0 + rng.standard_normal((cycles, H.m))
    members = 1.0 + 0.3 * rng.standard_normal((K, n))
    config = FilterConfig(variant="etkf_baseline", alpha=alpha, localization_bandwidth=bandwidth)
    posterior = run_baseline_filter(members, lambda v, step: v @ M.T, obs, H, gamma**2, config, Grid1D(n),
                                    steps_per_obs=steps_per_obs, snapshots=())[1]

    offsets = np.arange(n)
    mask = np.ones((n, n)) if bandwidth is None else np.abs(offsets[:, None] - offsets) <= bandwidth
    Ms, Hm, noise = np.linalg.matrix_power(M, steps_per_obs), H.matrix(), gamma**2 * np.eye(H.m)
    m, P = members.mean(axis=0), np.cov(members, rowvar=False)
    assert len(posterior) == cycles
    for y, posterior_mean in zip(obs, posterior):
        m, Pf = Ms @ m, alpha**2 * Ms @ P @ Ms.T
        W = Pf * mask
        m = m + W @ Hm.T @ np.linalg.solve(Hm @ W @ Hm.T + noise, y - Hm @ m)
        P = Pf - Pf @ Hm.T @ np.linalg.solve(Hm @ Pf @ Hm.T + noise, Hm @ Pf)
        assert np.linalg.norm(posterior_mean - m) <= 1e-10 * np.linalg.norm(m)



@settings(max_examples=100, deadline=None)
@given(n=st.integers(11, 16), k_minus_n=st.integers(-8, 6), obs=st.sampled_from(["dense", "every_other", "random"]),
       variant=st.sampled_from(["gsm", "gsm_clustered"]), bandwidth=st.sampled_from([None, 0, 1, 2]),
       dist=st.integers(0, 3), target=st.sampled_from([0.0027, 0.003]), gamma=st.sampled_from([0.1, 0.3, 1.0]),
       seed=st.integers(0, 2**32 - 1))
def test_weighted_filter_under_linear_dynamics_matches_a_dense_ensemble_oracle(n, k_minus_n, obs, variant, bandwidth,
                                                                              dist, target, gamma, seed):
    # the gsm weight depends on the members, so the oracle carries the whole ensemble in dense algebra:
    # forecast with M, W = beta sqrt(S_i) R_ij sqrt(S_j) o T (R masked around the jump when clustered)
    # with beta = target / max diag and zero diagonal entries floored, the Kalman mean of that W, and
    # posterior members m + X [I + (H X)^T (H X) / gamma^2]^-1/2 (X scaled by 1/sqrt(K-1)); a band of width
    # <= 2 keeps W's eigenvalues above -3 * target, so gamma^2 >= 0.01 keeps each innovation system definite
    rng = np.random.default_rng(seed)
    K, steps_per_obs, cycles = max(2, n + k_minus_n), 2, 4
    M = rng.standard_normal((n, n))
    M *= 0.9 / np.linalg.norm(M, 2)  # contracting
    if obs == "random":
        H = ObservationOperator(np.sort(rng.choice(n, size=rng.integers(1, n + 1), replace=False)), n)
    else:
        H = getattr(ObservationOperator, obs)(n)
    obs = 1.0 + rng.standard_normal((cycles, H.m))
    members = 1.0 + 0.3 * rng.standard_normal((K, n))
    grid = Grid1D(n)
    config = FilterConfig(variant=variant, beta_max_target=target, localization_bandwidth=bandwidth, dist=dist)
    posterior = run_weighted_filter(members, lambda v, step: v @ M.T, obs, H, gamma**2, config, grid,
                                    steps_per_obs=steps_per_obs, snapshots=())[1]

    offsets = np.arange(n)
    band = np.ones((n, n)) if bandwidth is None else np.abs(offsets[:, None] - offsets) <= bandwidth
    diff = (np.eye(n, k=1) - np.eye(n))[:-1] / grid.dx  # forward differences, (n-1) x n
    Hm = H.matrix()
    assert len(posterior) == cycles
    for y, posterior_mean in zip(obs, posterior):
        for _ in range(steps_per_obs):
            members = members @ M.T
        m = members.mean(axis=0)
        centers = np.mean((members @ diff.T) ** 2, axis=0)  # second moment of the differences
        S = 0.5 * (np.r_[0.0, centers] + np.r_[centers, 0.0])
        R = np.corrcoef(members, rowvar=False)
        if variant == "gsm_clustered":
            R = mask_correlations(R, cluster_regions(int(np.argmax(np.abs(np.diff(m)) / grid.dx)), dist, n))
        W = np.sqrt(S)[:, None] * R * np.sqrt(S) * band
        W *= target / np.diag(W).max()
        W[np.diag_indices(n)] = np.where(np.diag(W) == 0.0, 1e-12 * np.diag(W).max(), np.diag(W))
        m = m + W @ Hm.T @ np.linalg.solve(Hm @ W @ Hm.T + gamma**2 * np.eye(H.m), y - Hm @ m)
        X = (members - members.mean(axis=0)).T / np.sqrt(K - 1)
        HX = Hm @ X
        Xa = X @ scipy.linalg.sqrtm(np.linalg.inv(np.eye(K) + HX.T @ HX / gamma**2))
        members = m + np.sqrt(K - 1) * Xa.T
        assert np.linalg.norm(posterior_mean - m) <= 1e-10 * np.linalg.norm(m)


@pytest.mark.parametrize("case, variant", [
    *((case, variant) for case in CASES for variant in ("etkf_baseline", "gsm")),
    ("dense", "gsm_clustered"),
])
def test_cycled_filter_is_mirror_symmetric(case, variant, tmp_path):
    # x -> -x maps a twin experiment to itself with the velocity negated: WENO5 with Lax-Friedrichs
    # splitting is mirror-symmetric up to roundoff, every_other on odd n keeps its observed set, and the
    # gsm weight reads |dh|^2.  gsm_clustered on sparse and oscillatory is not: cluster_regions centres
    # the discontinuity region on the left cell of the jump face
    cfg = ExperimentConfig.for_case(case, n=201, ensemble_size=20, t_end=0.05, seed=1, variant=variant,
                                    **({"fine_refine": 4} if case == "oscillatory" else {}))
    grid, H = cfg.grid(), cfg.observation_operator()
    bundle = generate_truth(cfg, cache_dir=tmp_path)
    y = synthesize_observations(bundle.truth_h[1:], H, cfg.gamma, cfg.seed)
    members = build_initial_ensemble(cfg, grid, cfg.seed)
    runner = run_baseline_filter if variant == "etkf_baseline" else run_weighted_filter

    def run(members, y, velocity):
        workspace = Workspace()

        def dynamics(h, step):
            return transport_step(h, velocity, step, grid, cfg.dt, workspace)

        return runner(members, dynamics, y, H, cfg.gamma**2, cfg, grid, cfg.obs_stride_steps, range(len(y)))

    plain = run(members, y, bundle.velocity)
    mirrored = run(np.asfortranarray(members[:, ::-1]), y[:, ::-1], -bundle.velocity[:, ::-1])
    # prior mean, posterior mean, and prior variance and prior gsm at every analysis
    for a, b in zip(plain, mirrored, strict=True):
        assert np.abs(b[:, ::-1] - a).max() <= 1e-12 * np.abs(a).max()



def test_dense_clustered_run_is_the_gsm_run(tmp_path):
    # at the dense preset (bandwidth 0) the clustered weight is the gsm weight to roundoff
    # (test_clustered_weight_is_the_gsm_weight_at_bandwidth_zero), so the cycled runs agree too:
    # clustering acts only through couplings.  The initial perturbations give every cell spread
    posteriors = []
    for variant in ("gsm", "gsm_clustered"):
        cfg = ExperimentConfig.for_case("dense", n=201, ensemble_size=50, seed=1, variant=variant)
        grid, H = cfg.grid(), cfg.observation_operator()
        bundle = generate_truth(cfg, cache_dir=tmp_path)
        y = synthesize_observations(bundle.truth_h[1:], H, cfg.gamma, cfg.seed)
        workspace = Workspace()

        def dynamics(h, step):
            return transport_step(h, bundle.velocity, step, grid, cfg.dt, workspace)

        members = build_initial_ensemble(cfg, grid, cfg.seed)
        posteriors.append(run_weighted_filter(members, dynamics, y, H, cfg.gamma**2, cfg, grid,
                                              cfg.obs_stride_steps, ())[1])
    assert posteriors[0].shape == (30, 201)
    np.testing.assert_allclose(posteriors[1], posteriors[0], rtol=1e-12, atol=0.0)


def test_filter_runs_are_deterministic():
    rng = np.random.default_rng(11)
    n, K = 21, 6
    grid = Grid1D(n=n)
    truth = np.where(grid.points < 0, 1.0, 0.8)
    members = truth + 0.1 * rng.standard_normal((K, n))
    H = ObservationOperator.dense(n)
    stream = _make_stream(truth, [0.1, 0.2], H, gamma=0.01, rng=rng)
    cfg = FilterConfig(variant="gsm", localization_bandwidth=0)

    handed_a, handed_b = [], []
    a = run_weighted_filter(members, _members_seen(handed_a), *stream, cfg, grid, steps_per_obs=2, snapshots=[0, 1])
    b = run_weighted_filter(members, _members_seen(handed_b), *stream, cfg, grid, steps_per_obs=2, snapshots=[0, 1])
    assert len(a[1]) == len(b[1]) == 2
    for ra, rb in zip(a, b, strict=True):
        np.testing.assert_array_equal(ra, rb)  # every array, element for element
    for ma, mb in zip(handed_a, handed_b, strict=True):
        np.testing.assert_array_equal(ma, mb)


def test_dynamics_called_between_observations_with_global_step():
    calls = []

    def recording_dynamics(members, step):
        calls.append(step)
        return members

    rng = np.random.default_rng(12)
    n, K = 15, 4
    grid = Grid1D(n=n)
    truth = np.full(n, 1.0)
    members = truth + 0.1 * rng.standard_normal((K, n))
    H = ObservationOperator.dense(n)
    stream = _make_stream(truth, [0.1, 0.2, 0.3], H, gamma=0.01, rng=rng)
    cfg = FilterConfig(variant="gsm", localization_bandwidth=0)
    run_weighted_filter(members, recording_dynamics, *stream, cfg, grid, steps_per_obs=5, snapshots=())
    assert calls == list(range(15))


@pytest.mark.parametrize("variant", ["etkf_baseline", "gsm", "gsm_clustered"])
def test_prior_moments_are_computed_at_the_snapshot_analyses_only(variant, monkeypatch):
    # moments.csv keeps the prior variance and gsm of the snapshot analyses alone, so the filter computes
    # them there and nowhere else; the rows it returns are those of a run that marks every analysis
    rng = np.random.default_rng(16)
    n, K, cycles = 21, 6, 4
    grid = Grid1D(n=n)
    truth = np.where(grid.points < 0, 1.0, 0.8)
    members = truth + 0.05 * rng.standard_normal((K, n))
    H = ObservationOperator.every_other(n)
    stream = _make_stream(truth, range(cycles), H, gamma=0.01, rng=rng)
    cfg = FilterConfig(variant=variant, alpha=1.3, beta_max_target=0.0027, localization_bandwidth=1)
    runner = run_baseline_filter if variant == "etkf_baseline" else run_weighted_filter
    every = runner(members, _members_seen([]), *stream, cfg, grid, 1, range(cycles))

    calls = []
    for name in ("sample_variance_diag", "gradient_second_moment"):
        def counted(*args, name=name, original=getattr(filters, name)):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(filters, name, counted)
    for snapshots in ((), (2,), (0, 3)):
        calls.clear()
        prior_mean, posterior_mean, variance, gsm = runner(members, _members_seen([]), *stream, cfg, grid, 1,
                                                           snapshots)
        assert sorted(calls) == sorted(["sample_variance_diag", "gradient_second_moment"] * len(snapshots))
        np.testing.assert_array_equal(prior_mean, every[0])
        np.testing.assert_array_equal(posterior_mean, every[1])
        for rows, marked in ((variance, every[2]), (gsm, every[3])):
            assert rows.shape == (len(snapshots), n) and rows.flags.c_contiguous
            np.testing.assert_array_equal(rows, marked[list(snapshots)])


def test_filter_variant_mismatch_rejected():
    rng = np.random.default_rng(13)
    grid = Grid1D(n=15)
    members = 1.0 + 0.1 * rng.standard_normal((4, 15))
    H = ObservationOperator.dense(15)
    stream = _make_stream(np.ones(15), [0.1], H, gamma=0.01, rng=rng)
    with pytest.raises(ConfigError):
        run_baseline_filter(members, _identity_dynamics, *stream, FilterConfig(variant="gsm"), grid, 1, ())
    with pytest.raises(ConfigError):
        run_weighted_filter(members, _identity_dynamics, *stream, FilterConfig(variant="etkf_baseline", alpha=1.5),
                            grid, 1, ())


def test_filter_iteration_interface():
    rng = np.random.default_rng(14)
    n, K = 21, 6
    grid = Grid1D(n=n)
    truth = np.where(grid.points < 0, 1.0, 0.8)
    members = truth + 0.05 * rng.standard_normal((K, n))
    H = ObservationOperator.every_other(n)
    times = [0.1, 0.2]
    stream = _make_stream(truth, times, H, gamma=0.01, rng=rng)
    cfg = FilterConfig(variant="gsm_clustered", localization_bandwidth=1, dist=2, beta_max_target=0.0027)
    arrays = run_weighted_filter(members, _identity_dynamics, *stream, cfg, grid, steps_per_obs=1,
                                 snapshots=range(len(times)))

    # prior mean, posterior mean, prior variance and prior gsm: one C-ordered row per analysis time, each marked
    assert len(arrays) == 4
    for a in arrays:
        assert a.shape == (len(times), n)
        assert a.flags.c_contiguous


def test_weighted_filter_reduces_error_against_baseline_static():
    # static dense-observation problem with a step profile: the gradient
    # weighted analysis tracks the truth at least as well as inflation
    rng = np.random.default_rng(15)
    n, K = 41, 20
    grid = Grid1D(n=n)
    truth = np.where(grid.points < 0, 1.0, 0.8)
    members = truth + 0.1 * rng.standard_normal((K, n))
    H = ObservationOperator.dense(n)
    times = np.linspace(0.05, 0.5, 10)
    stream = _make_stream(truth, times, H, gamma=0.01, rng=rng)

    base = run_baseline_filter(
        members, _identity_dynamics, *stream,
        FilterConfig(variant="etkf_baseline", alpha=1.5, localization_bandwidth=0), grid,
        steps_per_obs=1, snapshots=(),
    )[1]
    weighted = run_weighted_filter(
        members, _identity_dynamics, *stream,
        FilterConfig(variant="gsm", beta_max_target=0.003, localization_bandwidth=0), grid,
        steps_per_obs=1, snapshots=(),
    )[1]
    err = lambda posterior: np.mean([np.linalg.norm(m - truth) for m in posterior])
    assert err(weighted) < 2.0 * err(base)  # sanity bracket, not a benchmark
