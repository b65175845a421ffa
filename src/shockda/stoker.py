"""Analytic wet-bed dam-break solution and synthetic observations.

The classical Stoker solution for a step at x = 0 of depth h0 into
quiescent water of depth h1 < h0: a left-running rarefaction fan, a
constant intermediate state (h_m, u_m), and a right-running shock of speed
s.  The intermediate depth solves the compatibility equation that equates
the velocity obtained from the rarefaction Riemann invariant with the
velocity from the shock jump conditions.

Also provides point-selection observation operators and Gaussian synthetic
observations drawn from a seeded generator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError
from .solver import GRAVITY


@dataclass
class DamBreakParams:
    """Left/right depths of the dam at x = 0."""

    h0: float = 1.0
    h1: float = 0.8

    def __post_init__(self):
        # h0 == h1 is allowed and yields the degenerate no-wave solution
        if not (self.h0 >= self.h1 > 0.0):
            raise ConfigError(f"dam break requires h0 >= h1 > 0, got h0={self.h0}, h1={self.h1}")


@dataclass(frozen=True)
class StokerIntermediate:
    """Constant state between the rarefaction foot and the shock."""

    h_m: float
    u_m: float
    s: float


def _compat(h_m: float, p: DamBreakParams) -> float:
    """Rarefaction-invariant velocity minus shock-jump velocity at h_m."""
    rare = 2.0 * (np.sqrt(GRAVITY * p.h0) - np.sqrt(GRAVITY * h_m))
    shock = (h_m - p.h1) * np.sqrt(0.5 * GRAVITY * (1.0 / p.h1 + 1.0 / h_m))
    return rare - shock


def _compat_prime(h_m: float, p: DamBreakParams) -> float:
    phi = np.sqrt(0.5 * GRAVITY * (1.0 / p.h1 + 1.0 / h_m))
    return -np.sqrt(GRAVITY / h_m) - phi + GRAVITY * (h_m - p.h1) / (4.0 * phi * h_m * h_m)


def stoker_solve(params: DamBreakParams) -> StokerIntermediate:
    """Find the intermediate state by safeguarded Newton on (h1, h0).

    The compatibility residual is positive at h1 and negative at h0, so a
    bisection bracket is maintained and used whenever a Newton step leaves
    it.  The residual is a velocity of scale sqrt(g h0), so the tolerance
    on its magnitude is 1e-14 sqrt(g h0), reached within 100 iterations.
    """
    if params.h0 == params.h1:
        return StokerIntermediate(h_m=params.h0, u_m=0.0, s=0.0)

    # a huge h0 can overflow h_m * h_m or the shock velocity; the inf falls to the bisection
    # safeguard or is raised below as a convergence failure, with no warning
    with np.errstate(over="ignore", invalid="ignore"):
        lo, hi = params.h1, params.h0
        tol = 1e-14 * np.sqrt(GRAVITY * params.h0)
        x = 0.5 * (lo + hi)
        fx = _compat(x, params)
        for _ in range(100):
            if abs(fx) < tol:
                break
            if fx > 0.0:
                lo = x
            else:
                hi = x
            step = fx / _compat_prime(x, params)
            x_new = x - step
            if not (lo < x_new < hi) or not np.isfinite(x_new):
                x_new = 0.5 * (lo + hi)
            x = x_new
            fx = _compat(x, params)
        else:
            raise NumericalError(
                f"dam-break compatibility root did not converge in 100 iterations (last residual {fx:.3e})"
            )

        h_m = float(x)
        u_m = 2.0 * (np.sqrt(GRAVITY * params.h0) - np.sqrt(GRAVITY * h_m))
        s = h_m * u_m / (h_m - params.h1)
    if not np.isfinite([u_m, s]).all():
        raise NumericalError(f"dam-break intermediate state is not finite (h_m={h_m:.3e})")
    return StokerIntermediate(h_m=h_m, u_m=float(u_m), s=float(s))


def rankine_hugoniot_residual(params: DamBreakParams, inter: StokerIntermediate) -> float:
    """Momentum jump condition residual across the shock (mass holds by construction of s)."""
    left_flux = inter.h_m * inter.u_m**2 + 0.5 * GRAVITY * inter.h_m**2
    right_flux = 0.5 * GRAVITY * params.h1**2
    return float(inter.s * (inter.h_m * inter.u_m - 0.0) - (left_flux - right_flux))


def rarefaction_invariant_residual(params: DamBreakParams, inter: StokerIntermediate) -> float:
    return float(inter.u_m + 2.0 * np.sqrt(GRAVITY * inter.h_m) - 2.0 * np.sqrt(GRAVITY * params.h0))


def stoker_evaluate(params: DamBreakParams, inter: StokerIntermediate, x: np.ndarray, t: float):
    """Evaluate the arrays (h, u) at the positions of the array x and time t >= 0.

    Piecewise in the similarity variable x/t: undisturbed left
    state, rarefaction fan, intermediate state, undisturbed right state.
    At t = 0 this returns the initial step.
    """
    if not t >= 0.0:  # a NaN fails it too
        raise ConfigError("t must be nonnegative")
    if t == 0.0:
        h = np.where(x < 0.0, params.h0, params.h1)
        u = np.zeros_like(h)
    else:
        with np.errstate(over="ignore"):  # only at a tiny t, far outside the fan, where np.select drops it
            xi = x / t
            c0 = np.sqrt(GRAVITY * params.h0)
            foot = inter.u_m - np.sqrt(GRAVITY * inter.h_m)
            fan_h = (2.0 * c0 - xi) ** 2 / (9.0 * GRAVITY)
            fan_u = 2.0 * (xi + c0) / 3.0
        conds = [xi <= -c0, xi < foot, xi < inter.s]
        h = np.select(conds, [params.h0, fan_h, inter.h_m], default=params.h1)
        u = np.select(conds, [0.0, fan_u, inter.u_m], default=0.0)
    return h, u


@dataclass(frozen=True)
class ObservationOperator:
    """0/1 point-selection operator: y = v[indices]."""

    indices: np.ndarray
    n_state: int

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=int)
        object.__setattr__(self, "indices", idx)
        if idx.ndim != 1:
            raise ConfigError("indices must be one-dimensional")
        if idx.size:
            if idx.min() < 0 or idx.max() >= self.n_state:
                raise ConfigError("observation indices out of range")
            if np.any(np.diff(idx) <= 0):
                raise ConfigError("observation indices must be strictly increasing")

    @classmethod
    def dense(cls, n: int) -> "ObservationOperator":
        return cls(np.arange(n), n)

    @classmethod
    def every_other(cls, n: int) -> "ObservationOperator":
        """Every second grid point starting from the first (both ends seen when n is odd)."""
        return cls(np.arange(0, n, 2), n)

    @property
    def m(self) -> int:
        return self.indices.size

    def apply(self, v: np.ndarray) -> np.ndarray:
        return np.asarray(v)[..., self.indices]

    def matrix(self) -> np.ndarray:
        H = np.zeros((self.m, self.n_state))
        H[np.arange(self.m), self.indices] = 1.0
        return H


def synthesize_observations(truth_rows, H: ObservationOperator, gamma: float, seed: int) -> np.ndarray:
    """Draw y_j = H truth_rows[j] + eta_j, eta_j ~ N(0, gamma^2 I), seeded: the (rows, m) observations.

    Noise is drawn in one row-major block over (row, observation index),
    so the observations regenerate bit-identically from their seed.
    """
    if not gamma > 0.0:  # a NaN fails it too
        raise ConfigError("gamma must be positive")
    truth_rows = np.asarray(truth_rows, dtype=float)
    if truth_rows.ndim != 2 or truth_rows.shape[1] != H.n_state:
        raise ConfigError(f"truth rows {truth_rows.shape} are not (rows, {H.n_state} points)")
    rng = np.random.default_rng(seed)
    return H.apply(truth_rows) + gamma * rng.standard_normal((truth_rows.shape[0], H.m))
