"""Error metrics against the truth: pointwise absolute and relative L1."""

from __future__ import annotations

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


def relative_error(estimate, truth) -> float:
    """Sum|estimate - truth| / Sum|truth|; for a spatial window, pass both restricted to ``in_window``'s mask."""
    err = pointwise_error(estimate, truth)
    denom = np.sum(np.abs(np.asarray(truth, dtype=float)))
    if denom == 0.0:
        raise ConfigError("relative error undefined: truth is identically zero")
    return float(np.sum(err) / denom)
