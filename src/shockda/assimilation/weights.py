"""Prior weight matrices for the analysis step.

Three gradient-second-moment forms (diagonal, full, clustered) plus the
localized sample covariance used by the baseline filter.  Banded
localization masks are never materialized as dense n x n matrices: the
masked products are assembled diagonal band by diagonal band from the
low-rank factors.  The unlocalized sample covariance is not assembled at
all: it is kept as its n x K factor (the "lowrank" form).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ..errors import ConfigError, DegenerateWeightError
from ..solver import Grid1D
from .ensemble import Ensemble, correlation_matrix_factor, gradient_second_moment

VARIANTS = ("etkf_baseline", "gsm", "gsm_clustered")

# relative size of the invertibility floor added to zero diagonal entries
_FLOOR_REL = 1e-12


@dataclass(frozen=True)
class FilterConfig:
    """Filter variant and its tuning knobs.

    ``alpha`` (inflation) only acts in the baseline variant; the
    ``beta_max_target`` scale only acts in the gsm variants, where the
    weight is rescaled each step so its maximum entry hits the target.
    ``localization_bandwidth`` b masks entries with |i-j| > b (b=0 keeps
    the diagonal only); None disables masking.  The observation noise
    Gamma = gamma^2 I is not a filter setting: the filter takes gamma^2
    from the observation stream.
    """

    variant: str = "gsm"
    alpha: float = 1.5
    beta_max_target: float = 0.003
    localization_bandwidth: int | None = 0
    dist: int = 1

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant '{self.variant}', expected one of {VARIANTS}")
        if self.alpha <= 1.0 and self.variant == "etkf_baseline":
            raise ConfigError("inflation alpha must exceed 1")
        if self.beta_max_target <= 0.0:
            raise ConfigError("beta_max_target must be positive")
        if self.localization_bandwidth is not None and self.localization_bandwidth < 0:
            raise ConfigError("localization bandwidth must be >= 0 (or None for no masking)")
        if self.dist < 0:
            raise ConfigError("dist must be >= 0")


@dataclass(frozen=True)
class ClusterPartition:
    """Grid split into smooth-left, discontinuous, smooth-right index sets."""

    xi: int
    r_s1: np.ndarray
    r_d: np.ndarray
    r_s2: np.ndarray

    @property
    def n(self) -> int:
        return self.r_s1.size + self.r_d.size + self.r_s2.size

    @property
    def region_ids(self) -> np.ndarray:
        """0 on the left smooth region, 1 on the discontinuous, 2 on the right."""
        ids = np.empty(self.n, dtype=int)
        ids[self.r_s1] = 0
        ids[self.r_d] = 1
        ids[self.r_s2] = 2
        return ids

    @staticmethod
    def coupled(ids_i: np.ndarray, ids_j: np.ndarray) -> np.ndarray:
        """True where a coupling survives clustering: both ends in one smooth region."""
        return (ids_i == ids_j) & (ids_i != 1)


@dataclass
class WeightMatrix:
    """Symmetric prior weight with its structural form and realized scale.

    ``matrix`` holds one of three storages, and the analysis solve picks
    its path from it:

    - scipy sparse for the banded and diagonal forms;
    - a dense n x n ndarray for the unmasked gsm forms;
    - the n x K factor X of W = X X^T for the ``"lowrank"`` form (the
      unlocalized baseline covariance), which is never multiplied out
      unless ``toarray`` asks for it.

    Unmasked and clustered constructions are positive semidefinite; a
    banded mask can introduce small negative eigenvalues (the analysis
    solve tolerates that).
    """

    form: str
    matrix: object
    beta: float
    partition: ClusterPartition | None = None

    def toarray(self) -> np.ndarray:
        if self.form == "lowrank":
            return self.matrix @ self.matrix.T
        return self.matrix.toarray() if sp.issparse(self.matrix) else np.asarray(self.matrix)

    def max_entry(self) -> float:
        if self.form == "lowrank":
            # by Cauchy-Schwarz a Gram matrix peaks on its diagonal
            return float(self.diagonal().max())
        return float(self.matrix.max())

    def diagonal(self) -> np.ndarray:
        if self.form == "lowrank":
            return np.einsum("ik,ik->i", self.matrix, self.matrix)
        return self.matrix.diagonal() if sp.issparse(self.matrix) else np.diagonal(self.matrix)


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


def cluster_partition(xi: int, dist: int, n: int) -> ClusterPartition:
    """Split indices into the jump neighborhood |i - xi| <= dist and its flanks."""
    if not 0 <= xi < n:
        raise ConfigError(f"xi={xi} outside grid of {n} points")
    if dist < 0:
        raise ConfigError("dist must be >= 0")
    lo = max(0, xi - dist)
    hi = min(n - 1, xi + dist)
    return ClusterPartition(
        xi=xi,
        r_s1=np.arange(0, lo),
        r_d=np.arange(lo, hi + 1),
        r_s2=np.arange(hi + 1, n),
    )


def mask_correlations(R: np.ndarray, partition: ClusterPartition) -> np.ndarray:
    """Zero correlations across regions and off-diagonal ones inside the jump region."""
    R = np.asarray(R, dtype=float)
    ids = partition.region_ids
    if R.shape != (ids.size, ids.size):
        raise ConfigError("correlation matrix does not match the partition")
    keep = ClusterPartition.coupled(ids[:, None], ids[None, :]) | np.eye(ids.size, dtype=bool)
    return np.where(keep, R, 0.0)


def _banded_gram(F: np.ndarray, bandwidth: int, band_mask=None) -> list[np.ndarray]:
    """Diagonals 0..bandwidth of F @ F.T, optionally masked per offset."""
    n = F.shape[0]
    bands = []
    for d in range(bandwidth + 1):
        band = np.einsum("ik,ik->i", F[: n - d], F[d:])
        if band_mask is not None and d > 0:
            band = band * band_mask(d)
        bands.append(band)
    return bands


def _assemble_banded(bands: list[np.ndarray], n: int) -> sp.csr_matrix:
    diagonals = [bands[0]]
    offsets = [0]
    for d in range(1, len(bands)):
        diagonals.extend([bands[d], bands[d]])
        offsets.extend([d, -d])
    return sp.diags(diagonals, offsets, shape=(n, n), format="csr")


def build_weight(ensemble: Ensemble, config: FilterConfig, grid: Grid1D) -> WeightMatrix:
    """Gradient-second-moment weight W, rescaled so max(W) hits the target.

    Forms: diagonal (bandwidth 0), full (sqrt(S_i) r_ij sqrt(S_j) under the
    band mask), clustered (same with correlations masked around the jump
    detected in the ensemble mean).  beta is chosen a posteriori from the
    pre-scale maximum entry; zero diagonal entries then get a floor of
    1e-12 * max(W) so W stays invertible in flat regions.
    """
    if config.variant not in ("gsm", "gsm_clustered"):
        raise ConfigError(f"build_weight applies to gsm variants, not '{config.variant}'")
    S = gradient_second_moment(ensemble, grid.dx)
    if not np.any(S > 0.0):
        raise DegenerateWeightError("degenerate prior weight: gradient second moment is identically zero")
    n = S.size
    bandwidth = config.localization_bandwidth

    partition = None
    if config.variant == "gsm_clustered":
        form = "clustered"
        partition = cluster_partition(detect_discontinuity(ensemble.mean, grid.dx), config.dist, n)
    elif bandwidth == 0:
        form = "diagonal"
    else:
        form = "full"

    if form == "diagonal":
        beta, diag = _rescale_diagonal(S, config.beta_max_target)
        return WeightMatrix(form, sp.diags([diag], [0], format="csr"), beta)

    F = np.sqrt(S)[:, None] * correlation_matrix_factor(ensemble)

    if partition is not None:
        ids = partition.region_ids
        # entries survive only inside one smooth region (diagonal always kept)
        def band_mask(d, ids=ids):
            return ClusterPartition.coupled(ids[: n - d], ids[d:]).astype(float)
    else:
        band_mask = None

    if bandwidth is None:
        W = F @ F.T
        if partition is not None:
            W = mask_correlations(W, partition)
        # By Cauchy-Schwarz the maximum sits on the diagonal, which masking keeps.
        beta, diag = _rescale_diagonal(W.diagonal(), config.beta_max_target)
        W = beta * W
        np.fill_diagonal(W, diag)
        return WeightMatrix(form, W, beta, partition)

    bands = _banded_gram(F, bandwidth, band_mask)
    beta, diag = _rescale_diagonal(bands[0], config.beta_max_target)
    bands = [diag] + [beta * b for b in bands[1:]]
    return WeightMatrix(form, _assemble_banded(bands, n), beta, partition)


def _rescale_diagonal(diag: np.ndarray, target: float) -> tuple[float, np.ndarray]:
    """beta = target / max(diag) and beta * diag, zero entries floored at _FLOOR_REL * its max.

    The weight's maximum entry sits on its diagonal, so beta * W peaks at
    the target; the floor keeps W invertible in flat regions.
    """
    peak = diag.max()
    if peak <= 0.0:
        raise DegenerateWeightError("degenerate prior weight: no anomaly spread anywhere")
    beta = target / peak
    scaled = beta * diag
    return float(beta), np.where(scaled == 0.0, _FLOOR_REL * scaled.max(), scaled)


def covariance_weight(X: np.ndarray, bandwidth: int | None) -> WeightMatrix:
    """Localized sample covariance (X @ X.T) o T for the baseline filter.

    ``X`` is the (already inflated) n x K anomaly matrix.  Without a mask
    (bandwidth None) the weight is the ``"lowrank"`` form that stores X
    itself, and the analysis mean is solved in the K-dimensional ensemble
    space; bandwidth 0 gives a sparse ``"diagonal"`` weight and a finite
    bandwidth a sparse banded ``"full"`` one.  No rescaling and no floor
    (the analysis solve tolerates a singular W).
    """
    n = X.shape[0]
    if bandwidth is None:
        return WeightMatrix("lowrank", X, 1.0)
    if bandwidth == 0:
        diag = np.einsum("ik,ik->i", X, X)
        return WeightMatrix("diagonal", sp.diags([diag], [0], format="csr"), 1.0)
    bands = _banded_gram(X, bandwidth)
    return WeightMatrix("full", _assemble_banded(bands, n), 1.0)
