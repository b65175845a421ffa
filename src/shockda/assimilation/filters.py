"""ETKF transform, closed-form analysis mean, and the assimilation loop.

Observation noise is Gamma = gamma^2 I with a scalar gamma^2.  The
analysis mean is the Sherman-Morrison-Woodbury form

    m = m_hat + W H^T (H W H^T + gamma^2 I)^{-1} (y - H m_hat),

which never inverts W.  ``analysis_mean`` picks its solve path from how
the weight is stored: a K x K ensemble-space solve for the low-rank-plus-
diagonal W of every unmasked weight (Bishop et al. 2001, MWR 129:420;
Hunt et al. 2007, Physica D 230:112), and for a band W the observed block
H W H^T, solved by elementwise division when it is diagonal and
otherwise by one LU solve of the m x m innovation matrix.

The posterior anomalies come from the symmetric square root of the
K x K transform

    T = [I + (H X)^T (H X) / gamma^2]^{-1}.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError, NumericalError
from ..solver import Grid1D
from ..stoker import ObservationOperator
from .ensemble import ensemble_moments, gradient_second_moment, sample_variance_diag
from .weights import FilterConfig, WeightMatrix, build_weight, covariance_weight


def _checked_gamma_sq(gamma_sq) -> float:
    """The observation variance gamma^2 of Gamma = gamma^2 I, a positive scalar."""
    if np.ndim(gamma_sq) != 0 or not gamma_sq > 0.0:
        raise ConfigError(f"observation variance gamma^2 must be a positive scalar, got {gamma_sq!r}")
    return float(gamma_sq)


def etkf_transform(X: np.ndarray, H: ObservationOperator, gamma_sq: float) -> np.ndarray:
    """Symmetric square root of T = [I + (H X)^T (H X) / gamma^2]^{-1} for centered X (n x K).

    The K x K system is symmetrized and eigendecomposed; the symmetric
    square root keeps the ones vector an eigenvector with eigenvalue 1,
    preserving zero column sums of the posterior anomalies.
    """
    gamma_sq = _checked_gamma_sq(gamma_sq)
    X = np.asarray(X, dtype=float)
    K = X.shape[1]
    HX = H.apply(X.T).T  # (m, K)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite system is raised below, with no warning
        A = np.eye(K) + HX.T @ (HX / gamma_sq)
        A = 0.5 * (A + A.T)
    try:
        if not np.isfinite(A).all():
            raise np.linalg.LinAlgError("non-finite entries")
        w, Q = np.linalg.eigh(A)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"transform system cannot be eigendecomposed ({exc})") from exc
    if w.min() <= 0.0:
        raise NumericalError(f"transform system not positive definite (min eigenvalue {w.min():.3e})")
    Tsqrt = (Q / np.sqrt(w)) @ Q.T
    return 0.5 * (Tsqrt + Tsqrt.T)


def _symmetric_solve(S: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """S^{-1} rhs for a symmetric S, given as a vector when S is diagonal.

    A full S is solved by LU with partial pivoting (``np.linalg.solve``),
    which also covers the indefinite innovation matrices that band-masked
    covariance weights can give.  Raises with a condition estimate if the
    system is singular or the solution is not finite.
    """
    try:
        if S.ndim == 1:
            if np.any(S == 0.0):
                raise np.linalg.LinAlgError("zero diagonal entry")
            t = rhs / S
        else:
            t = np.linalg.solve(S, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"innovation system singular (condition estimate {_condition(S):.3e})"
        ) from exc
    if not np.all(np.isfinite(t)):
        raise NumericalError(
            f"innovation solve produced non-finite values (condition estimate {_condition(S):.3e})"
        )
    return t


def _condition(S: np.ndarray) -> float:
    return float(np.linalg.cond(np.diag(S) if S.ndim == 1 else S))


def _plus_gamma(S: np.ndarray, gamma_sq: float) -> np.ndarray:
    """S + gamma^2 I, in place, for a symmetric S given as a matrix or, when diagonal, as a vector."""
    S[np.diag_indices_from(S) if S.ndim == 2 else ...] += gamma_sq
    return S


def analysis_mean(m_hat: np.ndarray, y: np.ndarray, H: ObservationOperator, gamma_sq: float, W) -> np.ndarray:
    """Posterior mean m_hat + W H^T (H W H^T + gamma^2 I)^{-1} (y - H m_hat).

    ``W`` may be a WeightMatrix or a raw dense matrix.  The solve path
    follows its storage:

    - a ``"lowrank"`` WeightMatrix, W = beta G G^T + diag(D), is solved in
      ensemble space by the Woodbury identity: with Y = H G and diagonal
      Lambda = H D H^T + gamma^2 I, u = (I/beta + Y^T Lambda^-1 Y)^-1 Y^T Lambda^-1 d
      and m = m_hat + G u + D H^T Lambda^-1 (d - Y u);
    - a band WeightMatrix reads its observed block H W H^T from the band
      rows, solves it by elementwise division when it is diagonal and
      otherwise by one LU solve, and maps the result back with the band
      product W z;
    - a raw dense matrix, the general reference, takes the m x m solve too.

    Raises NumericalError with a condition estimate if the system is
    singular.
    """
    gamma_sq = _checked_gamma_sq(gamma_sq)
    m_hat = np.asarray(m_hat, dtype=float)
    idx = H.indices
    innovation = np.asarray(y, dtype=float) - m_hat[idx]
    if not isinstance(W, WeightMatrix):
        WHt = np.asarray(W, dtype=float)[:, idx]
        return m_hat + WHt @ _symmetric_solve(_plus_gamma(WHt[idx], gamma_sq), innovation)
    if W.form == "lowrank":
        G = W.matrix
        Y = G[idx]
        lam = W.D[idx] + gamma_sq
        Z = np.column_stack([Y, innovation])
        Z /= lam[:, None]  # Lambda^{-1} [Y d]; in place, as a fresh m x (K+1) quotient took 5x as long
        # I/beta + Y^T Lambda^-1 Y is block diagonal: each block is formed and solved alone
        u = np.concatenate([
            _symmetric_solve(np.eye(c.stop - c.start) / W.beta + Y[:, c].T @ Z[:, c], Y[:, c].T @ Z[:, -1])
            for c in W.column_blocks()
        ])
        m = m_hat + G @ u
        m[idx] += W.D[idx] * ((innovation - Y @ u) / lam)
        return m

    z = np.zeros(m_hat.size)
    z[idx] = _symmetric_solve(_plus_gamma(W.observed_block(idx), gamma_sq), innovation)
    return m_hat + W.band_product(z)


def _assimilate(initial_members, dynamics, y, H: ObservationOperator, gamma_sq: float, config: FilterConfig,
                grid: Grid1D, steps_per_obs: int, snapshots) -> tuple[np.ndarray, ...]:
    """Run one cycle per row of the (cycles, m) observations ``y``; return the prior and posterior means as
    (cycles, n) arrays, row j for analysis j, then the prior variance and gsm, computed only at the analyses
    whose index is in the sequence ``snapshots``, as (rows, n) arrays, one row per such analysis in order.
    Every array is C-ordered: a contiguous row sums in the order of a fresh 1-D array."""
    members = np.array(initial_members, dtype=float)
    if members.ndim != 2:
        raise ConfigError("initial ensemble must be a (K, n) stack")
    y = np.asarray(y, dtype=float)
    if y.ndim != 2 or y.shape[1] != H.m:
        raise ConfigError(f"observations {y.shape} are not (cycles, {H.m})")
    K, n = members.shape
    sqrt_km1 = np.sqrt(K - 1)
    baseline = config.variant == "etkf_baseline"

    prior_mean, posterior_mean = np.empty((2, y.shape[0], n))
    prior_variance, prior_gsm = [], []
    step = 0
    for j in range(y.shape[0]):
        for _ in range(steps_per_obs):
            members = dynamics(members, step)
            step += 1

        ens = ensemble_moments(members)
        Xw = config.alpha * ens.centered if baseline else ens.centered
        Tsqrt = etkf_transform(Xw, H, gamma_sq)
        if baseline:
            W = covariance_weight(Xw, config.localization_bandwidth)
        else:
            W = build_weight(ens, config, grid)
        m = analysis_mean(ens.mean, y[j], H, gamma_sq, W)
        members = (m[:, None] + sqrt_km1 * (Xw @ Tsqrt)).T

        prior_mean[j] = ens.mean
        posterior_mean[j] = m
        if j in snapshots:
            prior_variance.append(sample_variance_diag(ens))
            prior_gsm.append(gradient_second_moment(ens.members, grid.dx))

    return prior_mean, posterior_mean, np.reshape(prior_variance, (-1, n)), np.reshape(prior_gsm, (-1, n))


def run_baseline_filter(initial_members, dynamics, y, H: ObservationOperator, gamma_sq: float,
                        config: FilterConfig, grid: Grid1D, steps_per_obs: int, snapshots) -> tuple[np.ndarray, ...]:
    """ETKF with multiplicative inflation and banded covariance localization.

    Each cycle: forecast all members ``steps_per_obs`` dynamics steps,
    inflate the centered ensemble by alpha, use the localized inflated
    covariance as the analysis weight, and transform the inflated
    anomalies into posterior anomalies.  Returns ``_assimilate``'s arrays,
    the moments at the analyses in ``snapshots`` only.
    """
    if config.variant != "etkf_baseline":
        raise ConfigError(f"baseline filter got variant '{config.variant}'")
    return _assimilate(initial_members, dynamics, y, H, gamma_sq, config, grid, steps_per_obs, snapshots)


def run_weighted_filter(initial_members, dynamics, y, H: ObservationOperator, gamma_sq: float,
                        config: FilterConfig, grid: Grid1D, steps_per_obs: int, snapshots) -> tuple[np.ndarray, ...]:
    """Modified ETKF whose analysis weight comes from the gradient second moment.

    No inflation anywhere: both the weight and the transform use the raw
    centered ensemble.  The clustered variant re-detects the jump from the
    prior mean at every assimilation time.  Returns ``_assimilate``'s
    arrays, the moments at the analyses in ``snapshots`` only.
    """
    if config.variant not in ("gsm", "gsm_clustered"):
        raise ConfigError(f"weighted filter got variant '{config.variant}'")
    return _assimilate(initial_members, dynamics, y, H, gamma_sq, config, grid, steps_per_obs, snapshots)
