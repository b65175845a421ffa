"""Stoker dam-break solution and synthetic observation tests."""

import warnings

import numpy as np
import pytest

from shockda.assimilation.filters import run_baseline_filter, run_weighted_filter
from shockda.assimilation.weights import FilterConfig
from shockda.errors import ConfigError, NumericalError
from shockda.solver import GRAVITY, Grid1D, solve_coupled_swe
from shockda.stoker import (
    DamBreakParams,
    ObservationOperator,
    rankine_hugoniot_residual,
    rarefaction_invariant_residual,
    stoker_evaluate,
    stoker_solve,
    synthesize_observations,
)

CASES = [(1.0, 0.8), (1.0, 0.5), (2.0, 1.0)]


def _bisect_root(p, tol=1e-13):
    """Plain bisection on the compatibility function, ignorant of Newton."""

    def f(hm):
        rare = 2.0 * (np.sqrt(GRAVITY * p.h0) - np.sqrt(GRAVITY * hm))
        shock = (hm - p.h1) * np.sqrt(0.5 * GRAVITY * (1.0 / p.h1 + 1.0 / hm))
        return rare - shock

    lo, hi = p.h1, p.h0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


# ------------------------------------------------------------ intermediate state


def test_params_validation():
    with pytest.raises(ConfigError):
        DamBreakParams(h0=0.8, h1=1.0)
    with pytest.raises(ConfigError):
        DamBreakParams(h0=1.0, h1=-0.1)


@pytest.mark.parametrize("h0,h1", CASES)
def test_stoker_residuals_below_1e12(h0, h1):
    p = DamBreakParams(h0=h0, h1=h1)
    inter = stoker_solve(p)
    assert abs(rankine_hugoniot_residual(p, inter)) < 1e-12
    assert abs(rarefaction_invariant_residual(p, inter)) < 1e-12


@pytest.mark.parametrize("h0,h1", CASES)
def test_stoker_matches_bisection_oracle(h0, h1):
    p = DamBreakParams(h0=h0, h1=h1)
    inter = stoker_solve(p)
    assert inter.h_m == pytest.approx(_bisect_root(p), abs=1e-12)


@pytest.mark.parametrize("h0,h1", CASES)
def test_wave_speed_ordering(h0, h1):
    p = DamBreakParams(h0=h0, h1=h1)
    inter = stoker_solve(p)
    assert inter.s > inter.u_m > 0.0
    assert p.h0 > inter.h_m > p.h1


def test_stoker_degenerate_equal_depths():
    inter = stoker_solve(DamBreakParams(h0=1.0, h1=1.0))
    assert (inter.h_m, inter.u_m, inter.s) == (1.0, 0.0, 0.0)



@pytest.mark.parametrize("h0, h1", [(1e300, 0.8), (1e300, 1e-300)])
def test_stoker_huge_depth_raises_without_a_warning(h0, h1):
    # h_m * h_m overflows, which leaves only bisection steps, and 100 halvings cannot narrow a 1e300 bracket to the root
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="dam-break"):
            stoker_solve(DamBreakParams(h0=h0, h1=h1))


def test_stoker_large_depth_converges():
    # the residual is a velocity of scale sqrt(g h0); an absolute tolerance of 1e-14 stopped this one at 9.1e-13
    p = DamBreakParams(h0=1e6, h1=1.0)
    inter = stoker_solve(p)
    assert p.h0 > inter.h_m > p.h1
    assert abs(rarefaction_invariant_residual(p, inter)) < 1e-14 * np.sqrt(GRAVITY * p.h0)


def test_stoker_solve_mass_jump_consistency():
    # s is defined so the mass jump condition holds identically
    p = DamBreakParams()
    inter = stoker_solve(p)
    mass_residual = inter.s * (inter.h_m - p.h1) - inter.h_m * inter.u_m
    assert abs(mass_residual) < 1e-14


# ------------------------------------------------------------------- evaluation


def test_evaluate_initial_condition():
    p = DamBreakParams()
    inter = stoker_solve(p)
    h, u = stoker_evaluate(p, inter, np.array([-0.5, 0.5]), 0.0)
    assert h.tolist() == [1.0, 0.8] and u.tolist() == [0.0, 0.0]


def test_evaluate_rejects_negative_time():
    p = DamBreakParams()
    inter = stoker_solve(p)
    with pytest.raises(ConfigError):
        stoker_evaluate(p, inter, np.zeros(1), -0.1)


def test_evaluate_rejects_nan_time():
    # a NaN time passed the t < 0 check and returned the undisturbed right state everywhere
    p = DamBreakParams()
    with pytest.raises(ConfigError, match="t must be nonnegative"):
        stoker_evaluate(p, stoker_solve(p), np.zeros(1), float("nan"))


def test_evaluate_continuity_at_fan_left_edge():
    p = DamBreakParams()
    inter = stoker_solve(p)
    for t in (0.05, 0.15):
        (h,), (u,) = stoker_evaluate(p, inter, np.array([-t * np.sqrt(GRAVITY * p.h0)]), t)
        assert abs(h - p.h0) < 1e-12
        assert abs(u) < 1e-12


def test_evaluate_continuity_at_fan_foot():
    p = DamBreakParams()
    inter = stoker_solve(p)
    foot = inter.u_m - np.sqrt(GRAVITY * inter.h_m)
    t = 0.1
    (h_left,), (u_left,) = stoker_evaluate(p, inter, np.array([foot * t - 1e-12]), t)
    assert h_left == pytest.approx(inter.h_m, abs=1e-9)
    assert u_left == pytest.approx(inter.u_m, abs=1e-9)


def test_evaluate_piecewise_regions_and_ordering():
    p = DamBreakParams()
    inter = stoker_solve(p)
    x = np.linspace(-1.0, 1.0, 801)
    for t in (0.05, 0.15, 0.3):
        h, u = stoker_evaluate(p, inter, x, t)
        assert np.all(h <= p.h0 + 1e-14) and np.all(h >= p.h1 - 1e-14)
        # beyond the shock: right state at rest
        beyond = x > inter.s * t + 1e-9
        np.testing.assert_array_equal(h[beyond], p.h1)
        np.testing.assert_array_equal(u[beyond], 0.0)
        # before the fan: left state at rest
        before = x < -np.sqrt(GRAVITY * p.h0) * t - 1e-9
        np.testing.assert_array_equal(h[before], p.h0)


def test_shock_and_fan_move_linearly_in_time():
    p = DamBreakParams()
    inter = stoker_solve(p)
    x = np.linspace(-1.0, 1.0, 4001)
    locations = []
    for t in (0.1, 0.2):
        h, _ = stoker_evaluate(p, inter, x, t)
        jump = int(np.argmax(np.abs(np.diff(h))))
        locations.append(0.5 * (x[jump] + x[jump + 1]))
    assert locations[1] == pytest.approx(2.0 * locations[0], abs=2 * (x[1] - x[0]))


def test_degenerate_evaluate_is_constant():
    p = DamBreakParams(h0=1.0, h1=1.0)
    inter = stoker_solve(p)
    h, u = stoker_evaluate(p, inter, np.linspace(-1, 1, 21), 0.2)
    np.testing.assert_array_equal(h, 1.0)
    np.testing.assert_array_equal(u, 0.0)


def test_analytic_matches_coupled_weno_at_origin():
    # cross-check the two truth sources against each other at (x=0, t=0.15)
    grid = Grid1D(n=1001)
    h = np.where(grid.points < 0, 1.0, 0.8)
    run = solve_coupled_swe(
        h, grid, 0.1 * grid.dx, t_end=0.15, record=[750], store_velocity=False
    )
    p = DamBreakParams()
    inter = stoker_solve(p)
    (h_exact,), _ = stoker_evaluate(p, inter, np.zeros(1), 0.15)
    i0 = 500  # x = 0
    assert abs(run.h[-1][i0] - h_exact) < 5e-3


# ------------------------------------------------------------------ observations


def test_observation_operator_selection_matrix():
    H = ObservationOperator.every_other(11)
    assert H.m == 6
    M = H.matrix()
    assert M.shape == (6, 11)
    np.testing.assert_array_equal(M.sum(axis=1), 1.0)
    np.testing.assert_array_equal(np.nonzero(M.sum(axis=0))[0], [0, 2, 4, 6, 8, 10])


def test_observation_operator_dense_is_identity():
    H = ObservationOperator.dense(7)
    np.testing.assert_array_equal(H.matrix(), np.eye(7))


def test_observation_operator_validates_indices():
    with pytest.raises(ConfigError):
        ObservationOperator(np.array([0, 0, 1]), 5)
    with pytest.raises(ConfigError):
        ObservationOperator(np.array([3, 7]), 5)


def test_synthesize_observations_deterministic():
    H = ObservationOperator.dense(41)
    times = np.linspace(0.01, 0.1, 10)
    truth = np.repeat(1.0 + times[:, None], 41, axis=1)

    a = synthesize_observations(truth, H, gamma=0.01, seed=42)
    b = synthesize_observations(truth, H, gamma=0.01, seed=42)
    np.testing.assert_array_equal(a, b)
    c = synthesize_observations(truth, H, gamma=0.01, seed=43)
    assert not np.array_equal(a, c)


def test_synthesize_observations_tiny_gamma_recovers_truth():
    H = ObservationOperator.dense(21)
    truth = np.linspace(0.8, 1.0, 21)

    y = synthesize_observations(truth[None], H, gamma=1e-300, seed=1)
    np.testing.assert_allclose(y[0], truth, atol=1e-290)


def test_synthesize_observations_rejects_nan_gamma():
    # a NaN gamma passed the gamma <= 0 check and returned all-NaN observations
    H = ObservationOperator.dense(5)
    with pytest.raises(ConfigError, match="gamma must be positive"):
        synthesize_observations(np.ones((2, 5)), H, gamma=float("nan"), seed=1)


def test_synthesize_observations_noise_variance():
    # m * J = 101 * 1000 > 1e5 samples, sample variance within 10%
    H = ObservationOperator.dense(101)
    times = np.linspace(1e-3, 1.0, 1000)
    truth_vec = np.linspace(0.8, 1.0, 101)

    y = synthesize_observations(np.tile(truth_vec, (times.size, 1)), H, gamma=0.01, seed=7)
    noise = y - truth_vec
    assert 0.9 * 0.01**2 <= np.var(noise) <= 1.1 * 0.01**2


def test_observation_stream_shape_validation():
    # the filters take one row of H.m observations per cycle
    H = ObservationOperator.every_other(11)
    members = 1.0 + 0.1 * np.random.default_rng(3).standard_normal((4, 11))
    for runner, config in ((run_baseline_filter, FilterConfig(variant="etkf_baseline")),
                           (run_weighted_filter, FilterConfig(variant="gsm"))):
        for y in (np.zeros((2, 11)), np.zeros(6), np.zeros((2, 6, 1))):  # the state's width, rank 1, rank 3
            with pytest.raises(ConfigError, match="observations"):
                runner(members, lambda v, step: v, y, H, 0.01**2, config, Grid1D(11), 1, ())
    with pytest.raises(ConfigError, match="truth rows"):
        synthesize_observations(np.ones((2, 10)), H, gamma=0.01, seed=1)
    with pytest.raises(ConfigError, match="truth rows"):
        synthesize_observations(np.ones(11), H, gamma=0.01, seed=1)

