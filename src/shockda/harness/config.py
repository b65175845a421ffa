"""Experiment configuration, named-case presets, and manifest round-trip.

A config serializes to a flat ``key = value`` manifest; reading it back
reproduces the run bit-identically.  Named cases carry the reference
parameter sets: dense observations (every point; identity mask for the
gradient weights, no mask for the baseline covariance), sparse observations
(every other point, tridiagonal localization), and the oscillatory initial
condition whose truth comes from a fine-grid reference run instead of the
analytic solution.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..errors import ConfigError
from ..solver import GRAVITY, Grid1D, SolverConfig, resolve_steps
from ..stoker import DamBreakParams, ObservationOperator
from ..assimilation import FilterConfig
from .._csvio import fmt17

CASES = ("dense", "sparse", "oscillatory")

_CASE_PRESETS = {
    "dense": dict(t_end=0.15, alpha=1.5, beta_max_target=0.003, localization_bandwidth=0),
    "sparse": dict(t_end=0.3, alpha=1.3, beta_max_target=0.0027, localization_bandwidth=1),
    "oscillatory": dict(t_end=0.3, alpha=1.3, beta_max_target=0.0027, localization_bandwidth=1),
}


@dataclass
class ExperimentConfig:
    case: str = "dense"
    variant: str = "gsm"
    n: int = 1001
    cfl: float = 0.1
    t_end: float = 0.15
    ensemble_size: int = 100
    ic_perturb_std: float = 0.1
    gamma: float = 0.01
    obs_stride_steps: int = 5
    alpha: float = 1.5
    beta_max_target: float = 0.003
    dist: int = 1
    localization_bandwidth: int | None = 0
    seed: int = 1
    output_dir: Path = Path("runs/out")
    h0: float = 1.0
    h1: float = 0.8
    g: float = GRAVITY
    x_dam: float = 0.0
    fine_refine: int = 20
    snapshot_times: tuple = (0.05, 0.10, 0.15)
    cache_dir: Path | None = None

    def __post_init__(self):
        if self.case not in CASES:
            raise ConfigError(f"unknown case '{self.case}', expected one of {CASES}")
        self.output_dir = Path(self.output_dir)
        if self.cache_dir is not None:
            self.cache_dir = Path(self.cache_dir)
        self.snapshot_times = tuple(float(t) for t in self.snapshot_times)
        if self.n < 11:
            raise ConfigError("n must be at least 11")
        if not 0.0 < self.cfl < 1.0:
            raise ConfigError("cfl must lie in (0, 1)")
        if self.t_end <= 0.0:
            raise ConfigError("t_end must be positive")
        if self.ensemble_size < 2:
            raise ConfigError("ensemble size must be at least 2")
        if self.ic_perturb_std < 0.0:
            raise ConfigError("ic_perturb_std must be nonnegative")
        if self.gamma <= 0.0:
            raise ConfigError("gamma must be positive")
        if self.obs_stride_steps < 1:
            raise ConfigError("obs_stride_steps must be at least 1")
        if self.fine_refine < 1:
            raise ConfigError("fine_refine must be at least 1")
        # delegate the remaining range checks
        self.filter_config()
        self.dam_params()
        self.solver_config()
        self.n_steps  # validates t_end divisibility

    @classmethod
    def for_case(cls, case: str, **overrides) -> "ExperimentConfig":
        """Config preset for a named case, with keyword overrides on top.

        The dense-case baseline runs with no localization mask (the plain
        inflated sample covariance); the bandwidth preset applies to the
        gradient-weighted variants and to every sparse-observation run.
        """
        if case not in CASES:
            raise ConfigError(f"unknown case '{case}', expected one of {CASES}")
        params = dict(_CASE_PRESETS[case])
        params.update(overrides)
        variant = params.get("variant", "gsm")
        if case == "dense" and variant == "etkf_baseline" and "localization_bandwidth" not in overrides:
            params["localization_bandwidth"] = None
        return cls(case=case, **params)

    # -- derived pieces ------------------------------------------------

    def grid(self) -> Grid1D:
        return Grid1D(self.n)

    @property
    def dx(self) -> float:
        return self.grid().dx

    @property
    def dt(self) -> float:
        return self.cfl * self.dx

    @property
    def n_steps(self) -> int:
        return resolve_steps(self.t_end, self.dt)

    @property
    def obs_step_indices(self) -> np.ndarray:
        return np.arange(self.obs_stride_steps, self.n_steps + 1, self.obs_stride_steps)

    @property
    def obs_times(self) -> np.ndarray:
        return self.obs_step_indices * self.dt

    def observation_operator(self) -> ObservationOperator:
        if self.case == "dense":
            return ObservationOperator.dense(self.n)
        return ObservationOperator.every_other(self.n)

    def filter_config(self) -> FilterConfig:
        return FilterConfig(
            variant=self.variant,
            alpha=self.alpha,
            beta_max_target=self.beta_max_target,
            localization_bandwidth=self.localization_bandwidth,
            dist=self.dist,
        )

    def solver_config(self) -> SolverConfig:
        return SolverConfig(cfl=self.cfl, g=self.g)

    def dam_params(self) -> DamBreakParams:
        return DamBreakParams(h0=self.h0, h1=self.h1, g=self.g, x_dam=self.x_dam)

    def resolved_cache_dir(self) -> Path:
        """Default truth cache shared by sibling runs of the same experiment."""
        if self.cache_dir is not None:
            return self.cache_dir
        return self.output_dir.parent / "truth_cache"

    # -- manifest round-trip -------------------------------------------

    def to_items(self) -> list[tuple[str, str]]:
        items = []
        for f in dataclasses.fields(self):
            items.append((f.name, _value_to_str(getattr(self, f.name))))
        return items

    @classmethod
    def from_mapping(cls, mapping: dict) -> "ExperimentConfig":
        """Build a config from string key/value pairs (file or manifest)."""
        known = {f.name: f for f in dataclasses.fields(cls)}
        kwargs = {}
        for key, raw in mapping.items():
            if key not in known:
                raise ConfigError(f"unknown config key '{key}'")
            kwargs[key] = _str_to_value(key, raw)
        return cls(**kwargs)


def _value_to_str(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return fmt17(value)
    if isinstance(value, tuple):
        return ",".join(fmt17(v) for v in value)
    return str(value)


_INT_KEYS = {"n", "ensemble_size", "obs_stride_steps", "dist", "seed", "fine_refine"}
_FLOAT_KEYS = {"cfl", "t_end", "ic_perturb_std", "gamma", "alpha", "beta_max_target", "h0", "h1", "g", "x_dam"}
_PATH_KEYS = {"output_dir", "cache_dir"}


def _str_to_value(key: str, raw):
    if not isinstance(raw, str):
        return raw
    text = raw.strip()
    try:
        if key == "localization_bandwidth":
            return None if text.lower() == "none" else int(text)
        if key in _INT_KEYS:
            return int(text)
        if key in _FLOAT_KEYS:
            return float(text)
        if key in _PATH_KEYS:
            return None if text.lower() == "none" else Path(text)
        if key == "snapshot_times":
            return tuple(float(p) for p in text.split(",") if p.strip()) if text else ()
    except ValueError as exc:
        raise ConfigError(f"config key '{key}' has invalid value '{text}'") from exc
    return text


def parse_config_file(path) -> dict:
    """Flat ``key = value`` file; '#' starts a comment, blank lines skipped."""
    mapping = {}
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got '{line.strip()}'")
        key, _, value = stripped.partition("=")
        mapping[key.strip()] = value.strip()
    return mapping
