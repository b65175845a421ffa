"""Error metrics against the truth: pointwise absolute and relative L1."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


def pointwise_error(estimate, truth) -> np.ndarray:
    """Entrywise |estimate - truth|."""
    estimate = np.asarray(estimate, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if estimate.shape != truth.shape:
        raise ConfigError(f"length mismatch: estimate {estimate.shape} vs truth {truth.shape}")
    return np.abs(estimate - truth)


def in_window(points, lo: float, hi: float) -> np.ndarray:
    """Mask of ``points`` inside the closed interval [lo, hi], allowing 1e-12 slack at the endpoints."""
    return (points >= lo - 1e-12) & (points <= hi + 1e-12)


def relative_error(estimate, truth, window=None, x=None) -> float:
    """Sum|estimate - truth| / Sum|truth|, optionally over a spatial window.

    ``window`` is a closed interval (a, b) of the grid coordinates ``x``,
    which must then be given; membership is ``in_window``.
    """
    err = pointwise_error(estimate, truth)
    truth = np.asarray(truth, dtype=float)
    if window is not None:
        if x is None:
            raise ConfigError("a spatial window needs the grid coordinates x")
        x = np.asarray(x, dtype=float)
        if x.shape != truth.shape:
            raise ConfigError("x must match the state length")
        a, b = window
        mask = in_window(x, a, b)
        if not mask.any():
            raise ConfigError(f"window [{a}, {b}] does not intersect the grid")
        err = err[mask]
        truth = truth[mask]
    denom = np.sum(np.abs(truth))
    if denom == 0.0:
        raise ConfigError("relative error undefined: truth is identically zero on the window")
    return float(np.sum(err) / denom)


@dataclass
class ErrorSeries:
    """An error curve over time."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.times.shape != self.values.shape:
            raise ConfigError("times and values must have matching lengths")
        if self.values.size and self.values.min() < 0.0:
            raise ConfigError("error values must be nonnegative")

    def mean_over(self, t_lo: float, t_hi: float) -> float:
        mask = in_window(self.times, t_lo, t_hi)
        if not mask.any():
            raise ConfigError(f"no error samples inside [{t_lo}, {t_hi}]")
        return float(self.values[mask].mean())

