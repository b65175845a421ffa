"""Prior weight matrices for the analysis step.

The gradient-second-moment weight, optionally clustered around a detected
jump, plus the localized sample covariance used by the baseline filter.
Each is kept in one of two forms.  Every unmasked weight is low rank plus a
diagonal, W = beta G G^T + diag(D), kept as G, beta and D ("lowrank"); a
weight masked to a band b < n-1 is one (b+1) x n band array ("band"; Golub &
Van Loan, Matrix Computations, 4th ed., sec. 4.3), computed diagonal by
diagonal from the low-rank factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, NumericalError
from ..solver import Grid1D
from .ensemble import Ensemble, correlation_matrix_factor, gradient_second_moment

VARIANTS = ("etkf_baseline", "gsm", "gsm_clustered")

# relative size of the invertibility floor added to zero diagonal entries
_FLOOR_REL = 1e-12


@dataclass
class FilterConfig:
    """Filter variant and its tuning knobs.

    ``alpha`` (inflation) only acts in the baseline variant; the
    ``beta_max_target`` scale only acts in the gsm variants, where the
    weight is rescaled each step so its maximum entry hits the target.
    ``localization_bandwidth`` b masks entries with |i-j| > b (b=0 keeps
    the diagonal only); None disables masking, as does any b >= n-1.  The
    observation noise Gamma = gamma^2 I is not a filter setting: the filter
    takes gamma^2 with y and H, as ``analysis_mean`` does.
    """

    variant: str = "gsm"
    alpha: float = 1.5
    beta_max_target: float = 0.003
    localization_bandwidth: int | None = 0
    dist: int = 1

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant '{self.variant}', expected one of {VARIANTS}")
        if not np.isfinite([self.alpha, self.beta_max_target]).all():  # a NaN passes every comparison below
            raise ConfigError(f"alpha and beta_max_target must be finite, got {self.alpha}, {self.beta_max_target}")
        if self.alpha <= 1.0 and self.variant == "etkf_baseline":
            raise ConfigError("inflation alpha must exceed 1")
        if self.beta_max_target <= 0.0:
            raise ConfigError("beta_max_target must be positive")
        if self.localization_bandwidth is not None and self.localization_bandwidth < 0:
            raise ConfigError("localization bandwidth must be >= 0 (or None for no masking)")
        if self.dist < 0:
            raise ConfigError("dist must be >= 0")


@dataclass
class WeightMatrix:
    """Symmetric prior weight with its storage form and realized scale.

    ``matrix`` holds one of two storages, named by ``form``; the analysis
    solve picks its path from it:

    - ``"lowrank"`` (every unmasked weight): the factor G of
      W = beta G G^T + diag(D), n x K (n x 2K when clustered), never
      multiplied out unless ``toarray`` asks for it;
    - ``"band"``: a (b+1) x n band array, row d holding W[i, i+d] in
      column i and zeros in its last d entries (0 <= b <= n-2; b = 0 is a
      diagonal W).

    ``xi`` is the jump index a clustered weight was built around, None
    otherwise.

    Unmasked and clustered constructions are positive semidefinite; a
    band mask can introduce small negative eigenvalues (the analysis
    solve tolerates that).
    """

    form: str
    matrix: np.ndarray
    beta: float
    xi: int | None = None
    D: np.ndarray | None = None

    def toarray(self) -> np.ndarray:
        if self.form == "lowrank":
            return self.beta * (self.matrix @ self.matrix.T) + np.diag(self.D)
        W = np.zeros((self.matrix.shape[1],) * 2)
        for d, band in enumerate(self.matrix):
            np.fill_diagonal(W[:, d:], band[: band.size - d])
            np.fill_diagonal(W[d:], band[: band.size - d])
        return W

    def column_blocks(self) -> list[slice]:
        """Column blocks of a ``"lowrank"`` G on disjoint rows: all of G, or one block per
        smooth region when clustered (``build_weight``), so G^T diag(v) G is block diagonal."""
        width = self.matrix.shape[1] // (1 if self.xi is None else 2)
        return [slice(lo, lo + width) for lo in range(0, self.matrix.shape[1], width)]

    def observed_block(self, idx: np.ndarray) -> np.ndarray:
        """H W H^T of a band W for distinct observed cells ``idx``: its diagonal as a vector
        when no two of them couple, otherwise the m x m block scattered from the band rows."""
        bands = self.matrix
        pos = np.full(bands.shape[1], -1)  # row and column of each observed cell in the block
        pos[idx] = np.arange(idx.size)
        # for each band row d >= 1, the cells i with both i and i+d observed
        pairs = [np.flatnonzero((pos[:-d] >= 0) & (pos[d:] >= 0)) for d in range(1, len(bands))]
        if not any(np.any(bands[d, i]) for d, i in enumerate(pairs, 1)):
            return bands[0][idx]
        block = np.diag(bands[0][idx])
        for d, i in enumerate(pairs, 1):
            block[pos[i], pos[i + d]] = block[pos[i + d], pos[i]] = bands[d, i]
        return block

    def band_product(self, z: np.ndarray) -> np.ndarray:
        """W z for a band W; each row sums its columns in ascending order, which artifact bytes depend on."""
        bands, out = self.matrix, np.zeros(z.size)
        for d in range(len(bands) - 1, 0, -1):  # W[i, i-d] z[i-d]
            out[d:] += bands[d, :-d] * z[:-d]
        out += bands[0] * z
        for d in range(1, len(bands)):  # W[i, i+d] z[i+d]
            out[:-d] += bands[d, :-d] * z[d:]
        return out


def toeplitz_band_mask(n: int, bandwidth: int | None) -> np.ndarray:
    """Dense binary Toeplitz localization mask: 1 where |i - j| <= bandwidth."""
    if bandwidth is None:
        return np.ones((n, n))
    if bandwidth < 0:
        raise ConfigError("bandwidth must be >= 0")
    offsets = np.arange(n)
    return (np.abs(offsets[:, None] - offsets[None, :]) <= bandwidth).astype(float)


def detect_discontinuity(mean: np.ndarray, dx: float) -> int:
    """Index of the steepest first difference (first one on ties)."""
    mean = np.asarray(mean, dtype=float)
    if mean.size < 2:
        raise ConfigError("need at least 2 points to detect a jump")
    return int(np.argmax(np.abs(np.diff(mean)) / dx))


def cluster_regions(xi: int, dist: int, n: int) -> np.ndarray:
    """Region id of each of n cells: 1 in the jump neighborhood |i - xi| <= dist, 0 left of it, 2 right."""
    if not 0 <= xi < n:
        raise ConfigError(f"xi={xi} outside grid of {n} points")
    if dist < 0:
        raise ConfigError("dist must be >= 0")
    i = np.arange(n)
    return (i >= xi - dist).astype(int) + (i > xi + dist)


def coupled(ids_i: np.ndarray, ids_j: np.ndarray) -> np.ndarray:
    """The cluster rule: a coupling survives only with both ends in one smooth region."""
    return (ids_i == ids_j) & (ids_i != 1)


def mask_correlations(R: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Zero correlations across regions and off-diagonal ones inside the jump region: the
    dense reference of the cluster rule that ``_banded_gram`` applies band by band."""
    R = np.asarray(R, dtype=float)
    if R.shape != (ids.size, ids.size):
        raise ConfigError("correlation matrix does not match the region ids")
    keep = coupled(ids[:, None], ids[None, :]) | np.eye(ids.size, dtype=bool)
    return np.where(keep, R, 0.0)


def _banded_gram(F: np.ndarray, bandwidth: int, ids: np.ndarray | None = None) -> np.ndarray:
    """Band array of diagonals 0..bandwidth (< n-1) of F @ F.T; given cluster
    region ``ids``, off-diagonal entries survive only inside one smooth region."""
    n = F.shape[0]
    bands = np.zeros((bandwidth + 1, n))
    for d in range(bands.shape[0]):
        bands[d, : n - d] = np.einsum("ik,ik->i", F[: n - d], F[d:])
        if ids is not None and d > 0:
            bands[d, : n - d] *= coupled(ids[: n - d], ids[d:])
    return bands


def build_weight(ensemble: Ensemble, config: FilterConfig, grid: Grid1D) -> WeightMatrix:
    """Gradient-second-moment weight W, rescaled so max(W) hits the target.

    Entries are sqrt(S_i) r_ij sqrt(S_j), with the correlations masked by
    ``coupled`` around the jump detected in the ensemble mean when
    clustered.  Under a band mask the weight is a band array (for gsm at
    bandwidth 0, the rescaled S); without one it is low rank: G = F =
    sqrt(S) o C, or [P_s1 F, P_s2 F] when clustered.  beta is chosen a
    posteriori from the pre-scale maximum entry; zero diagonal entries then
    get a floor of 1e-12 * max(W) so W stays invertible in flat regions.
    """
    if config.variant not in ("gsm", "gsm_clustered"):
        raise ConfigError(f"build_weight applies to gsm variants, not '{config.variant}'")
    S = gradient_second_moment(ensemble.members, grid.dx)
    if not np.any(S > 0.0):
        raise NumericalError("degenerate prior weight: gradient second moment is identically zero")
    n = S.size
    bandwidth = config.localization_bandwidth

    if config.variant == "gsm" and bandwidth == 0:
        beta, diag = _rescale_diagonal(S, config.beta_max_target)
        return WeightMatrix("band", diag[None, :], beta)

    xi = ids = None
    if config.variant == "gsm_clustered":
        xi = detect_discontinuity(ensemble.mean, grid.dx)
        ids = cluster_regions(xi, config.dist, n)
    F = np.sqrt(S)[:, None] * correlation_matrix_factor(ensemble)
    diag = np.einsum("ik,ik->i", F, F)
    beta, w_diag = _rescale_diagonal(diag, config.beta_max_target)
    if bandwidth is None or bandwidth >= n - 1:
        # couplings survive inside one region: the whole grid, or each smooth region when
        # clustered, one column block of G each (column_blocks)
        regions = [np.ones(n, dtype=bool)] if ids is None else [ids == 0, ids == 2]
        G = np.hstack([F * r[:, None] for r in regions])
        # D: the floor, and the diagonal of the cells in no region (the discontinuity region)
        return WeightMatrix("lowrank", G, beta, xi, w_diag - beta * diag * sum(regions))
    bands = beta * _banded_gram(F, bandwidth, ids)
    bands[0] = w_diag
    return WeightMatrix("band", bands, beta, xi)


def _rescale_diagonal(diag: np.ndarray, target: float) -> tuple[float, np.ndarray]:
    """beta = target / max(diag) and beta * diag, zero entries floored at _FLOOR_REL * its max.

    The weight's maximum entry sits on its diagonal, so beta * W peaks at
    the target; the floor keeps W invertible in flat regions.
    """
    peak = diag.max()
    if peak <= 0.0:
        raise NumericalError("degenerate prior weight: no anomaly spread anywhere")
    with np.errstate(over="ignore"):  # a roundoff-sized peak, as from identical members; raised below
        beta = target / peak
    if not np.isfinite(beta):
        raise NumericalError(f"degenerate prior weight: target {target:.3e} / max diagonal {peak:.3e} overflows")
    scaled = beta * diag
    return float(beta), np.where(scaled == 0.0, _FLOOR_REL * scaled.max(), scaled)


def covariance_weight(X: np.ndarray, bandwidth: int | None) -> WeightMatrix:
    """Localized sample covariance (X @ X.T) o T for the baseline filter.

    ``X`` is the (already inflated) n x K anomaly matrix.  Without a mask
    (bandwidth None or at least n-1) the weight is the ``"lowrank"`` form
    G = X, beta = 1, D = 0; a narrower band gives the ``"band"`` form.  No
    rescaling and no floor (the analysis solve tolerates a singular W).
    """
    if bandwidth is None or bandwidth >= X.shape[0] - 1:
        return WeightMatrix("lowrank", X, 1.0, D=np.zeros(X.shape[0]))
    return WeightMatrix("band", _banded_gram(X, bandwidth), 1.0)
