"""Hand cases and properties for the error metrics."""

import numpy as np
import pytest

from shockda.errors import ConfigError
from shockda.metrics import pointwise_error, relative_error


def test_pointwise_hand_case():
    est = np.array([1.02, 0.99, 0.81])
    tru = np.array([1.00, 1.00, 0.80])
    np.testing.assert_allclose(pointwise_error(est, tru), [0.02, 0.01, 0.01], atol=1e-15)
    np.testing.assert_array_equal(pointwise_error(tru, tru), np.zeros(3))
    np.testing.assert_allclose(pointwise_error(tru + 0.01, tru), np.full(3, 0.01), atol=1e-15)


def test_pointwise_length_mismatch():
    with pytest.raises(ConfigError):
        pointwise_error(np.ones(3), np.ones(4))


def test_relative_hand_case():
    # sum of errors 0.04 over sum of truth 2.8
    est = np.array([1.02, 0.99, 0.81])
    tru = np.array([1.00, 1.00, 0.80])
    assert relative_error(est, tru) == pytest.approx(0.04 / 2.8, rel=1e-14)
    assert relative_error(np.full(5, 1.01), np.ones(5)) == pytest.approx(0.01, rel=1e-14)


def test_relative_error_scale_invariance():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(2, 50))
        tru = rng.uniform(0.5, 1.5, size=n)
        est = tru + rng.standard_normal(n) * 0.1
        c = float(rng.uniform(0.1, 10.0))
        assert relative_error(c * est, c * tru) == pytest.approx(relative_error(est, tru), rel=1e-12)


def test_relative_error_zero_for_exact_estimate():
    tru = np.linspace(0.5, 1.0, 11)
    assert relative_error(tru.copy(), tru) == 0.0


def test_relative_error_triangle_bound():
    # rel(a, t) <= rel(a, b)·sum|b|/sum|t| + rel(b, t) via the triangle inequality
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = 30
        t = rng.uniform(0.5, 1.5, size=n)
        a = t + 0.2 * rng.standard_normal(n)
        b = t + 0.2 * rng.standard_normal(n)
        lhs = relative_error(a, t)
        rhs = relative_error(a, b) * np.sum(np.abs(b)) / np.sum(np.abs(t)) + relative_error(b, t)
        assert lhs <= rhs + 1e-12


def test_relative_error_window_selects_points():
    x = np.linspace(-1.0, 1.0, 5)  # -1, -0.5, 0, 0.5, 1
    tru = np.array([1.0, 1.0, 1.0, 2.0, 2.0])
    est = tru + np.array([10.0, 0.1, 0.1, 0.2, 10.0])
    # only the middle three points fall in [-0.5, 0.5]
    val = relative_error(est, tru, window=(-0.5, 0.5), x=x)
    assert val == pytest.approx(0.4 / 4.0, rel=1e-14)


def test_relative_error_window_endpoint_slack():
    x = np.array([0.0, 0.1, 0.2])
    tru = np.ones(3)
    est = np.array([2.0, 1.0, 2.0])
    # endpoints shifted by less than the 1e-12 slack still count
    v = relative_error(est, tru, window=(0.0 + 5e-13, 0.2 - 5e-13), x=x)
    assert v == pytest.approx(2.0 / 3.0, rel=1e-14)


def test_relative_error_full_grid_window_matches_unwindowed():
    rng = np.random.default_rng(2)
    x = np.linspace(-1.0, 1.0, 33)
    tru = rng.uniform(0.5, 1.5, size=33)
    est = tru + 0.1 * rng.standard_normal(33)
    assert relative_error(est, tru, window=(-1.0, 1.0), x=x) == relative_error(est, tru)


def test_relative_error_window_validation():
    tru = np.ones(4)
    est = np.zeros(4)
    with pytest.raises(ConfigError):
        relative_error(est, tru, window=(0.0, 1.0))  # no x
    with pytest.raises(ConfigError):
        relative_error(est, tru, window=(5.0, 6.0), x=np.linspace(0, 1, 4))
    with pytest.raises(ConfigError):
        relative_error(est, tru, window=(0.0, 1.0), x=np.linspace(0, 1, 5))


def test_relative_error_zero_truth_rejected():
    with pytest.raises(ConfigError):
        relative_error(np.ones(3), np.zeros(3))
