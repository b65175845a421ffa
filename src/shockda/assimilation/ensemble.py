"""Ensemble containers and the sample statistics the filters consume."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError

# variance floor of correlation_matrix_factor
_VAR_FLOOR = 1e-12


@dataclass
class Ensemble:
    """K state vectors with their mean and scaled anomaly matrix.

    ``centered`` is n x K with columns (v_k - mean)/sqrt(K-1), so the
    sample covariance is centered @ centered.T without materializing it.
    """

    members: np.ndarray
    mean: np.ndarray
    centered: np.ndarray

    def covariance(self) -> np.ndarray:
        """Sample covariance, materialized on request only."""
        return self.centered @ self.centered.T


def ensemble_moments(members) -> Ensemble:
    """Build an Ensemble from a (K, n) member stack."""
    members = np.asarray(members, dtype=float)
    if members.ndim != 2:
        raise ConfigError("members must form a (K, n) array")
    if members.shape[0] < 2:
        raise ConfigError("need at least 2 ensemble members")
    mean = members.mean(axis=0)
    centered = (members - mean).T / np.sqrt(members.shape[0] - 1)
    return Ensemble(members, mean, centered)


def sample_variance_diag(ensemble: Ensemble) -> np.ndarray:
    """Per-point sample variance; equals the diagonal of the sample covariance."""
    X = ensemble.centered
    return np.einsum("ik,ik->i", X, X)


def gradient_second_moment(members, dx: float) -> np.ndarray:
    """Second moment of the spatial first differences of a (K, n) member stack, K >= 1, on grid points.

    Cell-interface values S_{i+1/2} = mean_k((v_{i+1} - v_i)/dx)^2 are
    averaged back to the grid, with the two one-sided end values halved:
    S_1 = S_{3/2}/2, S_i = (S_{i-1/2} + S_{i+1/2})/2, S_n = S_{n-1/2}/2.
    Note the 1/K normalization (a raw second moment, not a variance).
    """
    members = np.asarray(members, dtype=float)
    if members.ndim != 2:
        raise ConfigError("expected a (K, n) member stack")
    if members.shape[1] < 2:
        raise ConfigError("need at least 2 grid points")
    d = np.diff(members, axis=1) / dx
    centers = np.mean(d * d, axis=0)
    out = np.empty(members.shape[1])
    out[0] = 0.5 * centers[0]
    out[-1] = 0.5 * centers[-1]
    out[1:-1] = 0.5 * (centers[:-1] + centers[1:])
    return out


def correlation_matrix_factor(ensemble: Ensemble) -> np.ndarray:
    """n x K factor Xt with Xt @ Xt.T the sample correlation matrix.

    Rows of the anomaly matrix are scaled by 1/sqrt(max(variance,
    _VAR_FLOOR)); the floor keeps zero-variance rows finite (their
    correlations come out 0 rather than NaN).
    """
    X = ensemble.centered
    var = np.einsum("ik,ik->i", X, X)
    return X / np.sqrt(np.maximum(var, _VAR_FLOOR))[:, None]
