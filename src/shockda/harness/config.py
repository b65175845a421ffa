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
import os
import re
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..errors import ConfigError
from ..solver import GRAVITY, Grid1D, SolverConfig, resolve_steps
from ..stoker import DamBreakParams, ObservationOperator
from ..assimilation.weights import FilterConfig
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
        for name, kind in _FIELD_TYPES.items():  # a NaN fails every comparison below
            if kind in (float, tuple) and not np.isfinite(getattr(self, name)).all():
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.t_end <= 0.0:
            raise ConfigError("t_end must be positive")
        if self.ensemble_size < 2:
            raise ConfigError("ensemble size must be at least 2")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        if self.ic_perturb_std < 0.0:
            raise ConfigError("ic_perturb_std must be nonnegative")
        if not (self.gamma > 0.0 and 0.0 < self.gamma * self.gamma < np.inf):  # gamma^2 is the noise variance
            raise ConfigError(f"gamma must be positive with a finite, nonzero square, got {self.gamma}")
        if self.obs_stride_steps < 1:
            raise ConfigError("obs_stride_steps must be at least 1")
        if self.fine_refine < 1:
            raise ConfigError("fine_refine must be at least 1")
        # delegate the remaining range checks: cfl to SolverConfig, n to Grid1D (through n_steps)
        self.filter_config()
        self.dam_params()
        self.solver_config()
        if self.n_steps < self.obs_stride_steps:  # n_steps also validates t_end divisibility
            raise ConfigError(f"t_end={self.t_end} is {self.n_steps} steps, "
                              f"under one observation stride of {self.obs_stride_steps}")
        # element counts of float64 arrays a run allocates; only the oscillatory truth has a fine grid,
        # whose depth it records at step 0 and at each analysis time
        fine = (self.fine_refine * (self.n - 1) + 1) * (self.case == "oscillatory")
        for count, what in (((self.n_steps + 1) * self.n, f"t_end={self.t_end} is {self.n_steps:.3g} steps, "
                             "whose velocity history"),
                            (self.ensemble_size * self.n, f"ensemble_size={self.ensemble_size} at n={self.n} is "
                             f"{self.ensemble_size * self.n:.3g} cells, whose member stack"),
                            (fine * (self.n_steps // self.obs_stride_steps + 1), f"fine_refine={self.fine_refine} "
                             f"at n={self.n} is {fine:.3g} points, whose recorded fine depth")):
            if 8 * count > os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"):
                raise ConfigError(f"{what} of {8 * count / 2**30:.3g} GiB exceeds this machine's memory")

    @classmethod
    def for_case(cls, case: str, **settings) -> "ExperimentConfig":
        """Config preset for a named case with ``settings`` on top, each ``str`` one parsed by its field's type.

        The dense-case baseline runs with no localization mask (the plain
        inflated sample covariance); the bandwidth preset applies to the
        gradient-weighted variants and to every sparse-observation run.
        """
        unknown = settings.keys() - _FIELD_TYPES.keys()
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        params = dict(_CASE_PRESETS.get(case, {}))  # __post_init__ rejects an unknown case
        params.update((key, _str_to_value(key, value)) for key, value in settings.items())
        if case == "dense" and params.get("variant") == "etkf_baseline" and "localization_bandwidth" not in settings:
            params["localization_bandwidth"] = None
        return cls(case=case, **params)

    # -- derived pieces ------------------------------------------------

    def grid(self) -> Grid1D:
        return Grid1D(self.n)

    @property
    def dt(self) -> float:
        return self.cfl * self.grid().dx

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


def _value_to_str(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, float):
        return fmt17(value)
    if isinstance(value, tuple):
        return ",".join(fmt17(v) for v in value)
    return str(value)


_FIELD_TYPES = typing.get_type_hints(ExperimentConfig)


def _str_to_value(key: str, raw):
    """A flag, file or manifest string as ExperimentConfig field ``key``'s type; ``none`` for None."""
    if not isinstance(raw, str):
        return raw
    text = raw.strip()
    kind = _FIELD_TYPES[key]
    args = typing.get_args(kind)
    if type(None) in args:
        if text.lower() == "none":
            return None
        (kind,) = (a for a in args if a is not type(None))
    try:
        if kind is tuple:
            return tuple(float(p) for p in text.split(",") if p.strip())
        return kind(text)
    except ValueError as exc:
        raise ConfigError(f"config key '{key}' has invalid value '{text}'") from exc


def read_text(path: Path) -> str:
    """The text of ``path``, line endings untranslated; a file that does not decode is a ConfigError naming it."""
    try:
        with open(path, newline="") as f:
            return f.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def parse_config_file(path) -> dict:
    """Flat ``key = value`` file; a '#' at the start of a line or after whitespace starts a comment
    (so ``run#1`` is a value), blank lines skipped."""
    mapping = {}
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
        stripped = re.split(r"(?:^|\s)#", line, maxsplit=1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got '{line.strip()}'")
        key, _, value = stripped.partition("=")
        mapping[key.strip()] = value.strip()
    return mapping
